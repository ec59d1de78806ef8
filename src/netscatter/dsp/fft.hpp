// Radix-2 iterative FFT.
//
// The NetScatter receiver decodes *all* concurrent devices with a single
// FFT per symbol (§3.1), so the FFT is the computational heart of the
// whole system. Every transform size we need — 2^SF symbol lengths,
// zero-padded lengths for sub-bin peak resolution (§3.2.3), STFT windows,
// and the 2·2^SF aggregate-bandwidth demodulation (§3.1) — is a power of
// two, so a radix-2 kernel suffices; non-power-of-two sizes are rejected.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ns::dsp {

using cplx = std::complex<double>;
using cvec = std::vector<cplx>;

/// True when n is a power of two (and non-zero).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n. Requires n >= 1.
std::size_t next_power_of_two(std::size_t n);

/// In-place forward FFT (decimation-in-time, no normalization).
/// Requires data.size() to be a power of two.
void fft_inplace(cvec& data);

/// In-place inverse FFT, normalized by 1/N so ifft(fft(x)) == x.
/// Requires data.size() to be a power of two.
void ifft_inplace(cvec& data);

/// Out-of-place forward FFT of `data`.
cvec fft(cvec data);

/// Out-of-place inverse FFT of `data` (normalized by 1/N).
cvec ifft(cvec data);

/// FFT of `data` zero-padded to `padded_size` samples. Zero-padding in
/// time interpolates the spectrum (sinc convolution, Fig. 8), giving the
/// sub-FFT-bin peak resolution the receiver needs for the near-far
/// analysis. Requires padded_size to be a power of two >= data.size().
cvec fft_zero_padded(const cvec& data, std::size_t padded_size);

/// Squared magnitudes |X[k]|^2 of a spectrum.
std::vector<double> power_spectrum(const cvec& spectrum);

/// power_spectrum into a caller-provided buffer (resized; capacity reuse
/// makes repeated calls allocation-free).
void power_spectrum_into(const cvec& spectrum, std::vector<double>& power);

/// Rotates a spectrum so the zero-frequency bin sits at the centre
/// (matplotlib-style fftshift); used when rendering spectrograms.
cvec fftshift(cvec spectrum);

}  // namespace ns::dsp
