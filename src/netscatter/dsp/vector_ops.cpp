#include "netscatter/dsp/vector_ops.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "netscatter/util/error.hpp"

namespace ns::dsp {

namespace {

// The shifted loops' phasor e^{j·step·i}: every 1024-sample block starts
// from std::polar(1, step·i) and then advances by phasor *= rotation, so
// rounding error never carries from one block into the next.
constexpr std::size_t reanchor_interval = 1024;

double phasor_step(double frequency_hz, double sample_rate_hz) {
    ns::util::require(sample_rate_hz > 0.0, "frequency shift: sample rate must be positive");
    return 2.0 * std::numbers::pi * frequency_hz / sample_rate_hz;
}

/// Calls consume(i, phasor_i) for i in [0, count), in order, stepping the
/// re-anchored phasor recurrence: the one definition both shifted loops
/// share.
template <class Consume>
void for_each_phasor(std::size_t count, double step, Consume consume) {
    const cplx rotation = std::polar(1.0, step);
    cplx phasor{1.0, 0.0};
    for (std::size_t i = 0; i < count; ++i) {
        if (i % reanchor_interval == 0) phasor = std::polar(1.0, step * static_cast<double>(i));
        consume(i, phasor);
        phasor *= rotation;
    }
}

}  // namespace

cvec multiply(std::span<const cplx> a, std::span<const cplx> b) {
    ns::util::require(a.size() == b.size(), "multiply: length mismatch");
    cvec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
    return out;
}

void accumulate(cvec& a, std::span<const cplx> b) {
    ns::util::require(b.size() <= a.size(), "accumulate: b longer than a");
    for (std::size_t i = 0; i < b.size(); ++i) a[i] += b[i];
}

void accumulate_at(cvec& a, std::span<const cplx> b, std::size_t offset) {
    if (offset >= a.size()) return;
    const std::size_t count = std::min(b.size(), a.size() - offset);
    for (std::size_t i = 0; i < count; ++i) a[offset + i] += b[i];
}

void accumulate_scaled(cvec& a, std::span<const cplx> b, cplx gain, std::size_t offset) {
    if (offset >= a.size()) return;
    const std::size_t count = std::min(b.size(), a.size() - offset);
    for (std::size_t i = 0; i < count; ++i) a[offset + i] += b[i] * gain;
}

void accumulate_scaled_shifted(cvec& a, std::span<const cplx> b, cplx gain,
                               double frequency_hz, double sample_rate_hz,
                               std::size_t offset) {
    const double step = phasor_step(frequency_hz, sample_rate_hz);
    if (offset >= a.size()) return;
    cplx* const dst = a.data() + offset;
    const cplx* const src = b.data();
    // gain by value: a by-reference capture would be reloaded after every
    // store through dst.
    for_each_phasor(std::min(b.size(), a.size() - offset), step,
                    [dst, src, gain](std::size_t i, cplx phasor) {
                        dst[i] += (src[i] * phasor) * gain;
                    });
}

void scale(cvec& a, double factor) {
    for (auto& value : a) value *= factor;
}

void scale(cvec& a, cplx factor) {
    for (auto& value : a) value *= factor;
}

double mean_power(std::span<const cplx> a) {
    if (a.empty()) return 0.0;
    return energy(a) / static_cast<double>(a.size());
}

double energy(std::span<const cplx> a) {
    double total = 0.0;
    for (const auto& value : a) total += std::norm(value);
    return total;
}

cvec frequency_shift(std::span<const cplx> a, double frequency_hz, double sample_rate_hz) {
    cvec out;
    frequency_shift_into(a, frequency_hz, sample_rate_hz, out);
    return out;
}

void frequency_shift_into(std::span<const cplx> a, double frequency_hz,
                          double sample_rate_hz, cvec& out) {
    const double step = phasor_step(frequency_hz, sample_rate_hz);
    out.resize(a.size());
    cplx* const dst = out.data();
    const cplx* const src = a.data();
    for_each_phasor(a.size(), step,
                    [dst, src](std::size_t i, cplx phasor) { dst[i] = src[i] * phasor; });
}

}  // namespace ns::dsp
