// Element-wise complex vector operations used by the modulator
// (superposing device signals) and demodulator (dechirping = element-wise
// multiplication by the conjugate downchirp).
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "netscatter/dsp/fft.hpp"

namespace ns::dsp {

/// Element-wise product a[i] * b[i]. Requires equal lengths.
cvec multiply(std::span<const cplx> a, std::span<const cplx> b);

/// Adds b into a in place: a[i] += b[i]. Requires b no longer than a.
void accumulate(cvec& a, std::span<const cplx> b);

/// Adds b into a starting at sample `offset`: a[offset+i] += b[i].
/// Samples of b that would fall past the end of a are dropped (a device
/// whose packet tail exceeds the capture window is simply truncated).
void accumulate_at(cvec& a, std::span<const cplx> b, std::size_t offset);

/// Fused scale + accumulate: a[offset+i] += b[i] * gain, without
/// materializing the scaled copy. Bit-identical to scale() followed by
/// accumulate_at() (same multiplication order), which lets the
/// superposition channel add an unmodified contribution without ever
/// copying its waveform. Overhang past the end of a is dropped.
void accumulate_scaled(cvec& a, std::span<const cplx> b, cplx gain, std::size_t offset);

/// Fused frequency shift + scale + accumulate:
/// a[offset+i] += (b[i] * e^{j 2π f i / fs}) * gain, using the exact
/// phasor recurrence of frequency_shift() (one shared definition: every
/// 1024-sample block re-anchors from std::polar, then multiplies by the
/// per-sample rotation), so the result is bit-identical to
/// frequency_shift() + scale() + accumulate_at() while touching one
/// buffer instead of three.
void accumulate_scaled_shifted(cvec& a, std::span<const cplx> b, cplx gain,
                               double frequency_hz, double sample_rate_hz,
                               std::size_t offset);

/// Scales every element by `factor`.
void scale(cvec& a, double factor);

/// Scales every element by complex `factor` (amplitude and phase).
void scale(cvec& a, cplx factor);

/// Mean of |x[i]|^2 — the average signal power.
double mean_power(std::span<const cplx> a);

/// Total energy, sum of |x[i]|^2.
double energy(std::span<const cplx> a);

/// Applies a frequency shift: a[i] * e^{j 2π f i / fs}.
cvec frequency_shift(std::span<const cplx> a, double frequency_hz, double sample_rate_hz);

/// frequency_shift into a caller-provided buffer (resized; capacity
/// reuse makes repeated calls allocation-free). `out` must not alias `a`.
void frequency_shift_into(std::span<const cplx> a, double frequency_hz,
                          double sample_rate_hz, cvec& out);

}  // namespace ns::dsp
