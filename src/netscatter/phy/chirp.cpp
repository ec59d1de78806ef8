#include "netscatter/phy/chirp.hpp"

#include <cmath>
#include <numbers>

#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/util/error.hpp"

namespace ns::phy {

namespace {

// Shared chirp synthesis. The instantaneous frequency ramps from
// (f0 - BW/2) to (f0 + BW/2) over the symbol for an upchirp (slope +1) or
// the reverse for a downchirp (slope -1); sampling at fs == BW aliases
// out-of-band frequencies back into band, realizing the cyclic wrap.
//
// Phase is the exact discrete integral of the instantaneous frequency:
//   phi[n] = 2*pi * ( (f0/fs) * n + slope * (n^2/(2N) - n/2) ).
void make_chirp_into(const css_params& params, double cyclic_shift, double slope,
                     std::span<cplx> chirp) {
    const auto n_samples = params.samples_per_symbol();
    const double n_bins = static_cast<double>(params.num_bins());
    ns::util::require(std::abs(cyclic_shift) < n_bins + 1.0,
                      "make_chirp: cyclic shift out of range");
    ns::util::require(chirp.size() == n_samples, "make_chirp: output is not one symbol");
    const double f0_norm = cyclic_shift / n_bins;  // f0 / fs

    for (std::size_t i = 0; i < n_samples; ++i) {
        const double n = static_cast<double>(i);
        const double phase =
            2.0 * std::numbers::pi *
            (f0_norm * n + slope * (n * n / (2.0 * n_bins) - n / 2.0));
        chirp[i] = std::polar(1.0, phase);
    }
}

cvec make_chirp(const css_params& params, double cyclic_shift, double slope) {
    cvec chirp(params.samples_per_symbol());
    make_chirp_into(params, cyclic_shift, slope, chirp);
    return chirp;
}

}  // namespace

cvec make_upchirp(const css_params& params, double cyclic_shift) {
    return make_chirp(params, cyclic_shift, +1.0);
}

void make_upchirp_into(const css_params& params, double cyclic_shift, std::span<cplx> out) {
    make_chirp_into(params, cyclic_shift, +1.0, out);
}

cvec make_downchirp(const css_params& params, double cyclic_shift) {
    return make_chirp(params, cyclic_shift, -1.0);
}

cvec dechirp_reference(const css_params& params) {
    return make_downchirp(params, 0.0);
}

cvec make_upchirp_time_rotated(const css_params& params, std::size_t shift) {
    ns::util::require(shift < params.num_bins(),
                      "make_upchirp_time_rotated: shift out of range");
    const cvec base = make_upchirp(params, 0.0);
    const std::size_t n = base.size();
    cvec rotated(n);
    for (std::size_t i = 0; i < n; ++i) rotated[i] = base[(i + shift) % n];
    return rotated;
}

std::size_t make_dechirped_tone_kernel(cvec& kernel, double position_bins,
                                       std::size_t num_bins, std::size_t padding,
                                       std::size_t radius_bins) {
    ns::util::require(num_bins >= 2 && padding >= 1,
                      "tone_kernel: need at least two bins and padding >= 1");
    const std::size_t m_total = num_bins * padding;
    const double n = static_cast<double>(num_bins);
    const double m_real = static_cast<double>(m_total);

    // Wrap the peak position into [0, M) padded bins. The kernel is
    // 1-periodic in θ for even N (both sin terms and the phase factor
    // flip sign together), so evaluating with the unwrapped offset x is
    // exact for every cyclic bin index.
    double p = position_bins * static_cast<double>(padding);
    p -= std::floor(p / m_real) * m_real;

    const std::size_t half =
        std::min(radius_bins * padding, m_total / 2);
    const std::size_t window = std::min(2 * half + 1, m_total);
    kernel.resize(window);

    const auto centre = static_cast<std::ptrdiff_t>(std::llround(p));
    const std::ptrdiff_t first_signed = centre - static_cast<std::ptrdiff_t>(half);
    for (std::size_t w = 0; w < window; ++w) {
        const double x =
            p - static_cast<double>(first_signed + static_cast<std::ptrdiff_t>(w));
        const double theta = x / m_real;
        const double denominator = std::sin(std::numbers::pi * theta);
        double magnitude;
        if (std::abs(denominator) < 1e-12) {
            magnitude = n;  // θ -> 0 limit (the on-peak bin)
        } else {
            magnitude =
                std::sin(std::numbers::pi * x / static_cast<double>(padding)) /
                denominator;
        }
        kernel[w] = signed_polar(magnitude, std::numbers::pi * (n - 1.0) * theta);
    }

    const std::ptrdiff_t m_signed = static_cast<std::ptrdiff_t>(m_total);
    return static_cast<std::size_t>(((first_signed % m_signed) + m_signed) % m_signed);
}

std::size_t make_multipath_tone_kernel(cvec& envelope, std::span<const cplx> taps,
                                       std::uint32_t cyclic_shift, double tone_bins,
                                       std::size_t num_bins, std::size_t padding,
                                       std::size_t radius_bins, cvec& kernel_scratch) {
    ns::util::require(!taps.empty(), "multipath_tone_kernel: need at least one tap");
    const std::size_t m_total = num_bins * padding;
    const std::size_t spread = (taps.size() - 1) * padding;
    ns::util::require(spread < m_total,
                      "multipath_tone_kernel: more taps than the spectrum has bins");
    // Clamp the per-tap window so window + tap spread fits the spectrum —
    // the same silent clamping make_dechirped_tone_kernel applies at
    // radius >= num_bins/2, extended by the spread the taps add.
    const std::size_t max_radius = ((m_total - spread - 1) / 2) / padding;
    const double position = static_cast<double>(cyclic_shift) + tone_bins;
    const std::size_t first_p = make_dechirped_tone_kernel(
        kernel_scratch, position, num_bins, padding,
        std::min(radius_bins, max_radius));

    const std::size_t window = kernel_scratch.size();
    envelope.assign(window + spread, cplx{0.0, 0.0});

    const double n = static_cast<double>(num_bins);
    const double omega = 2.0 * std::numbers::pi * tone_bins / n;  // rad/sample
    for (std::size_t t = 0; t < taps.size(); ++t) {
        if (taps[t] == cplx{0.0, 0.0}) continue;
        const double td = static_cast<double>(t);
        // Constant phase of the t-sample delay: the cyclic-shift identity
        // β_t plus the residual tone's e^{-jωt} (the tone is applied to
        // the waveform before the channel delays it).
        const double beta =
            2.0 * std::numbers::pi *
                (td / 2.0 + td * td / (2.0 * n) -
                 static_cast<double>(cyclic_shift) * td / n) -
            omega * td;
        const cplx gain = taps[t] * std::polar(1.0, beta);
        // Tap t's kernel sits t·padding padded bins below the LoS peak;
        // envelope[0] anchors at first_p - spread.
        const std::size_t base = spread - t * padding;
        for (std::size_t w = 0; w < window; ++w) {
            envelope[base + w] += gain * kernel_scratch[w];
        }
    }
    return (first_p + m_total - spread) % m_total;
}

cvec dechirp(const css_params& params, const cvec& symbol) {
    ns::util::require(symbol.size() == params.samples_per_symbol(),
                      "dechirp: symbol length mismatch");
    // Multiplying by the downchirp (== conjugate of the baseline upchirp)
    // collapses each device's chirp into a constant-frequency tone.
    const cvec down = dechirp_reference(params);
    return ns::dsp::multiply(symbol, down);
}

}  // namespace ns::phy
