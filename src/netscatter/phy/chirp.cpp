#include "netscatter/phy/chirp.hpp"

#include <algorithm>
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

/// Padded bins on each side of a window's peak.
std::size_t kernel_half(std::size_t num_bins, std::size_t padding, std::size_t radius_bins) {
    return std::min(radius_bins * padding, num_bins * padding / 2);
}

/// e^{−jπk/period} with k reduced modulo 2·period first, so the angle
/// passed to libm stays within ±π however far k reaches.
cplx half_turns(std::int64_t k, std::int64_t period) {
    std::int64_t r = k % (2 * period);
    if (r >= period) r -= 2 * period;
    if (r < -period) r += 2 * period;
    return std::polar(1.0, -std::numbers::pi * static_cast<double>(r) /
                               static_cast<double>(period));
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

void make_downchirp_into(const css_params& params, double cyclic_shift,
                         std::span<cplx> out) {
    make_chirp_into(params, cyclic_shift, -1.0, out);
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

std::size_t tone_kernel_window_size(std::size_t num_bins, std::size_t padding,
                                    std::size_t radius_bins) {
    return std::min(2 * kernel_half(num_bins, padding, radius_bins) + 1, num_bins * padding);
}

tone_kernel_table::tone_kernel_table(std::size_t num_bins, std::size_t padding,
                                     std::size_t radius_bins)
    : num_bins_(num_bins),
      padding_(padding),
      radius_bins_(radius_bins),
      half_(kernel_half(num_bins, padding, radius_bins)) {
    ns::util::require(num_bins >= 2 && padding >= 1,
                      "tone_kernel: need at least two bins and padding >= 1");
    const auto m_total = static_cast<std::int64_t>(num_bins * padding);
    const auto pad = static_cast<std::int64_t>(padding);
    const auto n_minus_1 = static_cast<std::int64_t>(num_bins) - 1;
    const std::size_t entries = 2 * half_ + 1;
    phasors_.resize(3 * entries);
    for (std::size_t i = 0; i < entries; ++i) {
        const std::int64_t j = static_cast<std::int64_t>(i) - static_cast<std::int64_t>(half_);
        phasors_[3 * i] = half_turns(j, m_total);
        phasors_[3 * i + 1] = half_turns(j, pad);
        phasors_[3 * i + 2] = half_turns(n_minus_1 * j, m_total);
    }
}

std::size_t tone_kernel_table::build(cvec& kernel, double position_bins,
                                     std::size_t radius_bins) const {
    ns::util::require(num_bins_ >= 2 && radius_bins <= radius_bins_,
                      "tone_kernel: window wider than its table");
    const std::size_t m_total = num_bins_ * padding_;
    const double n = static_cast<double>(num_bins_);
    const double m_real = static_cast<double>(m_total);

    // Wrap the peak position into [0, M) padded bins. The kernel is
    // 1-periodic in θ for even N (both sin terms and the phase factor
    // flip sign together), so evaluating with the unwrapped offset x is
    // exact for every cyclic bin index.
    double p = position_bins * static_cast<double>(padding_);
    p -= std::floor(p / m_real) * m_real;

    const std::size_t half = kernel_half(num_bins_, padding_, radius_bins);
    const std::size_t window = tone_kernel_window_size(num_bins_, padding_, radius_bins);
    kernel.resize(window);

    const auto centre = static_cast<std::ptrdiff_t>(std::llround(p));
    const std::ptrdiff_t first_signed = centre - static_cast<std::ptrdiff_t>(half);
    // Element w sits at x = d − j, j = w − half: the window's three
    // phasors of d times the table's phasors of j (see the class note).
    const double d = p - static_cast<double>(centre);
    const cplx den_d = std::polar(1.0, std::numbers::pi * d / m_real);
    const cplx num_d = std::polar(1.0, std::numbers::pi * d / static_cast<double>(padding_));
    const cplx phase_d = std::polar(1.0, std::numbers::pi * (n - 1.0) * d / m_real);
    const cplx* j_phasors = phasors_.data() + 3 * (half_ - half);
    for (std::size_t w = 0; w < window; ++w) {
        const cplx den_j = j_phasors[3 * w];
        const cplx num_j = j_phasors[3 * w + 1];
        const cplx phase_j = j_phasors[3 * w + 2];
        // Products written out: std::complex's operator* adds a NaN
        // recovery branch the finite table never needs.
        const double denominator = den_d.imag() * den_j.real() + den_d.real() * den_j.imag();
        double magnitude;
        if (std::abs(denominator) < 1e-12) {
            magnitude = n;  // θ -> 0 limit (the on-peak bin)
        } else {
            magnitude =
                (num_d.imag() * num_j.real() + num_d.real() * num_j.imag()) / denominator;
        }
        const double re = phase_d.real() * phase_j.real() - phase_d.imag() * phase_j.imag();
        const double im = phase_d.real() * phase_j.imag() + phase_d.imag() * phase_j.real();
        kernel[w] = cplx{magnitude * re, magnitude * im};
    }

    const std::ptrdiff_t m_signed = static_cast<std::ptrdiff_t>(m_total);
    return static_cast<std::size_t>(((first_signed % m_signed) + m_signed) % m_signed);
}

std::size_t make_dechirped_tone_kernel(cvec& kernel, double position_bins,
                                       const tone_kernel_table& table) {
    return table.build(kernel, position_bins, table.radius_bins());
}

void make_dechirped_tone_kernel(cvec& kernel, double position_bins, std::size_t num_bins,
                                std::size_t padding, std::size_t window_start,
                                std::size_t window_length) {
    ns::util::require(window_length >= 1 && window_start + window_length <= num_bins,
                      "tone_kernel: partial window outside the symbol");
    const double m_real = static_cast<double>(num_bins * padding);
    double p = position_bins * static_cast<double>(padding);
    p -= std::floor(p / m_real) * m_real;
    // θ stays in (−1, 1): the kernel is 1-periodic in θ for integer L.
    const double length = static_cast<double>(window_length);
    const double phase =
        std::numbers::pi * (2.0 * static_cast<double>(window_start) + length - 1.0);
    kernel.resize(num_bins * padding);
    for (std::size_t m = 0; m < kernel.size(); ++m) {
        const double theta = (p - static_cast<double>(m)) / m_real;
        const double den = std::sin(std::numbers::pi * theta);
        const double magnitude = std::abs(den) < 1e-12
                                     ? length  // θ -> 0 limit (the on-peak bin)
                                     : std::sin(std::numbers::pi * length * theta) / den;
        kernel[m] = signed_polar(magnitude, phase * theta);
    }
}

std::size_t make_multipath_tone_kernel(cvec& envelope, std::span<const cplx> taps,
                                       std::uint32_t cyclic_shift, double tone_bins,
                                       const tone_kernel_table& table,
                                       cvec& kernel_scratch) {
    ns::util::require(!taps.empty(), "multipath_tone_kernel: need at least one tap");
    const std::size_t num_bins = table.num_bins();
    const std::size_t padding = table.padding();
    const std::size_t m_total = num_bins * padding;
    const std::size_t spread = (taps.size() - 1) * padding;
    ns::util::require(spread < m_total,
                      "multipath_tone_kernel: more taps than the spectrum has bins");
    // Clamp the per-tap window so window + tap spread fits the spectrum —
    // the same silent clamping the bare kernel applies at radius >=
    // num_bins/2, extended by the spread the taps add.
    const std::size_t max_radius = ((m_total - spread - 1) / 2) / padding;
    const double position = static_cast<double>(cyclic_shift) + tone_bins;
    const std::size_t first_p =
        table.build(kernel_scratch, position, std::min(table.radius_bins(), max_radius));

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
