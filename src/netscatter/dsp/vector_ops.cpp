#include "netscatter/dsp/vector_ops.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "netscatter/util/error.hpp"

namespace ns::dsp {

namespace {

// The shifted loops' phasor e^{j·step·i}: every 1024-sample block starts
// from std::polar(1, step·i0) and then advances by phasor *= rotation,
// so rounding error never carries from one block into the next. Blocks
// are independent recurrences, so four run in lockstep, which hides the
// latency of the complex-multiply chain; their phasors are staged one
// chunk at a time for the loop that consumes them.
constexpr std::size_t reanchor_interval = 1024;
constexpr std::size_t interleaved_chains = 4;
constexpr std::size_t phasor_chunk = 256;

double phasor_step(double frequency_hz, double sample_rate_hz) {
    ns::util::require(sample_rate_hz > 0.0, "frequency shift: sample rate must be positive");
    return 2.0 * std::numbers::pi * frequency_hz / sample_rate_hz;
}

/// Runs the phasor recurrence over the re-anchor blocks of [0, count)
/// and hands each staged run to consume(i, phasors, len), where
/// phasors[t] is the phasor of sample i + t. needed(block) is how many
/// leading samples of a block are consumed; 0 skips the block without
/// starting its recurrence. Every phasor gets the same operations, in
/// the same order, as one chain stepping sample by sample.
template <class Needed, class Consume>
void for_each_phasor_run(std::size_t count, double step, Needed needed, Consume consume) {
    const cplx rotation = std::polar(1.0, step);
    const std::size_t blocks = (count + reanchor_interval - 1) / reanchor_interval;
    cplx staged[interleaved_chains][phasor_chunk];
    std::size_t block = 0;
    while (block < blocks) {
        std::size_t first[interleaved_chains] = {};
        std::size_t need[interleaved_chains] = {};
        std::size_t chains = 0;
        std::size_t longest = 0;
        for (; block < blocks && chains < interleaved_chains; ++block) {
            const std::size_t samples = needed(block);
            if (samples == 0) continue;
            first[chains] = block * reanchor_interval;
            need[chains] = samples;
            longest = std::max(longest, samples);
            ++chains;
        }
        // Idle lanes of a short last group spin harmlessly on `rotation`.
        cplx phasor[interleaved_chains];
        for (std::size_t c = 0; c < interleaved_chains; ++c) {
            phasor[c] = c < chains ? std::polar(1.0, step * static_cast<double>(first[c]))
                                   : rotation;
        }
        for (std::size_t j0 = 0; j0 < longest; j0 += phasor_chunk) {
            const std::size_t len = std::min(phasor_chunk, longest - j0);
            for (std::size_t t = 0; t < len; ++t) {
                for (std::size_t c = 0; c < interleaved_chains; ++c) {
                    staged[c][t] = phasor[c];
                    phasor[c] *= rotation;
                }
            }
            for (std::size_t c = 0; c < chains; ++c) {
                if (need[c] > j0) consume(first[c] + j0, staged[c], std::min(len, need[c] - j0));
            }
        }
    }
}

/// a[offset+i] += (b[i] * phasor_i) * gain over the sounding symbols of
/// b: the one shifted accumulate behind the dense and keyed forms. A
/// block's recurrence runs only up to the end of its last sounding
/// symbol, and a block with none is skipped.
void accumulate_shifted(cvec& a, const keyed_waveform& b, cplx gain, double step,
                        std::size_t offset) {
    if (offset >= a.size() || b.symbol_len == 0) return;
    const std::size_t count = std::min(b.size(), a.size() - offset);
    const std::size_t len = b.symbol_len;
    cplx* const out = a.data() + offset;
    const auto needed = [&](std::size_t block) -> std::size_t {
        const std::size_t begin = block * reanchor_interval;
        const std::size_t end = std::min(begin + reanchor_interval, count);
        for (std::size_t k = (end - 1) / len + 1; k-- > begin / len;) {
            if (b.symbols[k] != nullptr) return std::min(end, (k + 1) * len) - begin;
        }
        return 0;
    };
    // gain by value: a by-reference capture would be reloaded after
    // every store through dst.
    for_each_phasor_run(count, step, needed,
                        [&b, out, len, gain](std::size_t i, const cplx* phasors,
                                             std::size_t run) {
        for (std::size_t t = 0; t < run;) {
            const std::size_t k = (i + t) / len;
            const std::size_t stop = std::min(run, (k + 1) * len - i);
            if (b.symbols[k] != nullptr) {
                const cplx* src = b.symbols[k] + (i + t - k * len);
                cplx* dst = out + i + t;
                const cplx* phasor = phasors + t;
                for (std::size_t u = 0; u < stop - t; ++u) {
                    dst[u] += (src[u] * phasor[u]) * gain;
                }
            }
            t = stop;
        }
    });
}

}  // namespace

cvec multiply(std::span<const cplx> a, std::span<const cplx> b) {
    ns::util::require(a.size() == b.size(), "multiply: length mismatch");
    cvec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
    return out;
}

cvec multiply_conj(std::span<const cplx> a, std::span<const cplx> b) {
    ns::util::require(a.size() == b.size(), "multiply_conj: length mismatch");
    cvec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * std::conj(b[i]);
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
    if (b.empty()) return;
    const cplx* const samples = b.data();
    accumulate_shifted(a, {.symbols = {&samples, 1}, .symbol_len = b.size()}, gain, step,
                       offset);
}

void render_keyed(const keyed_waveform& b, cvec& out) {
    out.resize(b.size());
    auto cursor = out.begin();
    for (const cplx* symbol : b.symbols) {
        cursor = symbol != nullptr ? std::copy_n(symbol, b.symbol_len, cursor)
                                   : std::fill_n(cursor, b.symbol_len, cplx{0.0, 0.0});
    }
}

void accumulate_keyed(cvec& a, const keyed_waveform& b, cplx gain, double frequency_hz,
                      double sample_rate_hz, std::size_t offset) {
    if (frequency_hz != 0.0) {
        accumulate_shifted(a, b, gain, phasor_step(frequency_hz, sample_rate_hz), offset);
        return;
    }
    if (offset >= a.size()) return;
    const std::size_t count = std::min(b.size(), a.size() - offset);
    for (std::size_t begin = 0, k = 0; begin < count; begin += b.symbol_len, ++k) {
        if (b.symbols[k] == nullptr) continue;
        accumulate_scaled(a, {b.symbols[k], std::min(b.symbol_len, count - begin)}, gain,
                          offset + begin);
    }
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
    const std::size_t count = a.size();
    cplx* const dst = out.data();
    const cplx* const src = a.data();
    for_each_phasor_run(
        count, step,
        [count](std::size_t block) {
            return std::min(reanchor_interval, count - block * reanchor_interval);
        },
        [dst, src](std::size_t i, const cplx* phasors, std::size_t run) {
            for (std::size_t t = 0; t < run; ++t) dst[i + t] = src[i + t] * phasors[t];
        });
}

}  // namespace ns::dsp
