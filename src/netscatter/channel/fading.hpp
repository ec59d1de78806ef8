// Time-varying channel gain for mobility-induced fading (Fig. 9).
//
// The paper measures each device's SNR variance over 30 minutes while
// people walk around an office: variations stay within roughly +-5 dB.
// We model the per-device channel gain (in dB) as a first-order
// Gauss-Markov (AR(1)) process around the static path-loss value — the
// standard model for shadow-fading time series.
#pragma once

#include <span>
#include <vector>

#include "netscatter/channel/impairments.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::channel {

/// Statistics of an AR(1) fading process, shared by every process of a
/// fleet: `sigma_db` is the stationary standard deviation of the gain
/// (dB), `rho` the one-step correlation coefficient in [0, 1).
struct fading_params {
    double sigma_db = 0.0;
    double rho = 0.0;
};

/// AR(1) fading process: g[k+1] = rho * g[k] + sqrt(1-rho^2) * w,
/// w ~ N(0, sigma^2), so the process is stationary with std dev sigma dB.
/// It holds only its state and reads `params` without owning them, so the
/// params must outlive the process.
class gauss_markov_fading {
public:
    gauss_markov_fading(const fading_params& params, ns::util::rng rng);
    /// A temporary would dangle: keep the params alive elsewhere.
    gauss_markov_fading(fading_params&& params, ns::util::rng rng) = delete;

    /// Advances one step and returns the current gain deviation in dB
    /// (zero-mean; add to the static received power).
    double next_db();

    /// Advances `steps` steps in a single draw via the exact k-step
    /// AR(1) transition g[k+s] | g[k] ~ N(rho^s g[k], sigma^2(1-rho^2s)).
    /// Statistically identical to `steps` next_db() calls but costs one
    /// Gaussian — how a device whose gain went unobserved (inactive or
    /// unscheduled rounds) catches up without paying per-round draws.
    void skip(std::uint64_t steps);

    /// Current gain deviation without advancing.
    double current_db() const { return current_db_; }

private:
    const fading_params* params_;
    double current_db_;
    ns::util::rng rng_;
};

/// Power-delay profile shared by every tap line of a fleet: the
/// model's stationary per-tap powers at one sample rate and the
/// round-to-round correlation coefficient rho in [0, 1) of each
/// scattered tap.
struct tap_profile {
    tap_profile(const multipath_model& model, double sample_rate_hz, double correlation);

    std::vector<double> powers;  ///< stationary per-tap power (0 = LoS)
    double rho = 0.0;
};

/// Per-device frequency-selective multipath state: a tapped delay line
/// (tap `i` delayed i samples) whose scattered taps evolve round to
/// round as independent complex AR(1) (Gauss-Markov) processes around
/// the profile's power-delay profile, while the LoS tap stays fixed — the
/// Rician picture of a constant specular path plus Rayleigh scatter
/// that decorrelates as people move through the clutter. The process is
/// stationary: each scattered tap is CN(0, p_i) at every round, so the
/// line keeps unit mean total power. Like gauss_markov_fading it reads
/// `profile` without owning it, so the profile must outlive the line.
class tap_delay_line {
public:
    tap_delay_line(const tap_profile& profile, ns::util::rng rng);
    /// A temporary would dangle: keep the profile alive elsewhere.
    tap_delay_line(tap_profile&& profile, ns::util::rng rng) = delete;

    /// Advances one round and returns the current taps. The span views
    /// internal storage and stays valid until the line is destroyed
    /// (values change on the next call).
    std::span<const cplx> next();

    /// Advances `rounds` rounds in a single draw per scattered tap (the
    /// exact k-step transition of each complex AR(1) process); the same
    /// catch-up contract as gauss_markov_fading::skip.
    void skip(std::uint64_t rounds);

    /// Current taps without advancing.
    std::span<const cplx> current() const { return taps_; }

private:
    const tap_profile* profile_;
    cvec taps_;
    ns::util::rng rng_;
};

}  // namespace ns::channel
