#include "netscatter/channel/fading.hpp"

#include <cmath>

#include "netscatter/util/error.hpp"

namespace ns::channel {

gauss_markov_fading::gauss_markov_fading(const fading_params& params,
                                         ns::util::rng rng)
    : params_(&params), current_db_(0.0), rng_(rng) {
    ns::util::require(params.sigma_db >= 0.0, "gauss_markov_fading: sigma must be >= 0");
    ns::util::require(params.rho >= 0.0 && params.rho < 1.0,
                      "gauss_markov_fading: correlation must be in [0,1)");
    // Start from the stationary distribution.
    current_db_ = rng_.gaussian(0.0, params.sigma_db);
}

double gauss_markov_fading::next_db() {
    const double rho = params_->rho;
    const double innovation = std::sqrt(1.0 - rho * rho) * params_->sigma_db;
    current_db_ = rho * current_db_ + rng_.gaussian(0.0, innovation);
    return current_db_;
}

void gauss_markov_fading::skip(std::uint64_t steps) {
    if (steps == 0) return;
    const double decay = std::pow(params_->rho, static_cast<double>(steps));
    const double innovation = std::sqrt(1.0 - decay * decay) * params_->sigma_db;
    current_db_ = decay * current_db_ + rng_.gaussian(0.0, innovation);
}

tap_profile::tap_profile(const multipath_model& model, double sample_rate_hz,
                         double correlation)
    : powers(model.tap_powers(sample_rate_hz)), rho(correlation) {
    ns::util::require(correlation >= 0.0 && correlation < 1.0,
                      "tap_delay_line: correlation must be in [0,1)");
}

tap_delay_line::tap_delay_line(const tap_profile& profile, ns::util::rng rng)
    : profile_(&profile), taps_(profile.powers.size()), rng_(rng) {
    // Start from the stationary distribution (the same draw sequence as
    // multipath_model::sample_taps).
    const std::vector<double>& powers = profile.powers;
    taps_[0] = std::polar(std::sqrt(powers[0]),
                          rng_.uniform(0.0, 2.0 * 3.141592653589793));
    for (std::size_t i = 1; i < powers.size(); ++i) {
        const double sigma = std::sqrt(powers[i] / 2.0);
        taps_[i] = cplx{rng_.gaussian(0.0, sigma), rng_.gaussian(0.0, sigma)};
    }
}

std::span<const cplx> tap_delay_line::next() {
    const double rho = profile_->rho;
    const double innovation_scale = std::sqrt(1.0 - rho * rho);
    for (std::size_t i = 1; i < taps_.size(); ++i) {
        const double sigma = innovation_scale * std::sqrt(profile_->powers[i] / 2.0);
        taps_[i] = rho * taps_[i] +
                   cplx{rng_.gaussian(0.0, sigma), rng_.gaussian(0.0, sigma)};
    }
    return taps_;
}

void tap_delay_line::skip(std::uint64_t rounds) {
    if (rounds == 0) return;
    const double decay = std::pow(profile_->rho, static_cast<double>(rounds));
    const double innovation_scale = std::sqrt(1.0 - decay * decay);
    for (std::size_t i = 1; i < taps_.size(); ++i) {
        const double sigma = innovation_scale * std::sqrt(profile_->powers[i] / 2.0);
        taps_[i] = decay * taps_[i] +
                   cplx{rng_.gaussian(0.0, sigma), rng_.gaussian(0.0, sigma)};
    }
}

}  // namespace ns::channel
