// Chirp waveform generation (§2.1).
//
// At the critically-sampled rate (fs == BW), a cyclic time shift of the
// baseline upchirp is exactly equivalent to an initial-frequency shift:
// frequencies above BW/2 alias down to -BW/2 (Fig. 3c). We therefore
// synthesize "cyclic shift s" as an initial-frequency offset of
// s · BW / 2^SF Hz, which (a) is exact for integer s, (b) naturally
// extends to the fractional shifts produced by hardware timing jitter and
// CFO, and (c) after dechirping yields a clean complex tone at FFT bin s.
// A true time-domain rotation is also provided; tests verify the two
// agree for integer shifts.
#pragma once

#include <cstdint>
#include <span>

#include "netscatter/dsp/fft.hpp"
#include "netscatter/phy/css_params.hpp"

namespace ns::phy {

using ns::dsp::cplx;
using ns::dsp::cvec;

/// Generates one upchirp symbol of `params.samples_per_symbol()` samples
/// with the given cyclic shift (may be fractional; must satisfy
/// |shift| < 2^SF+1 for sanity), unit amplitude and zero initial phase.
cvec make_upchirp(const css_params& params, double cyclic_shift = 0.0);

/// make_upchirp into a caller-provided span of exactly
/// `params.samples_per_symbol()` samples: the same values, no allocation.
void make_upchirp_into(const css_params& params, double cyclic_shift, std::span<cplx> out);

/// Generates one downchirp symbol (conjugate slope). `cyclic_shift` has
/// the same meaning as for upchirps; NetScatter preambles transmit the
/// device's assigned shift on downchirps too (§3.3.1).
cvec make_downchirp(const css_params& params, double cyclic_shift = 0.0);

/// make_downchirp into a caller-provided span of exactly
/// `params.samples_per_symbol()` samples: the same values, no allocation.
void make_downchirp_into(const css_params& params, double cyclic_shift,
                         std::span<cplx> out);

/// Baseline downchirp used by the receiver for dechirping, i.e.
/// make_downchirp(params, 0). Cache this: it is multiplied against every
/// received symbol.
cvec dechirp_reference(const css_params& params);

/// True time-domain cyclic rotation of a baseline upchirp by an integer
/// number of chips; used by tests to validate the frequency-shift
/// equivalence. Requires 0 <= shift < 2^SF.
cvec make_upchirp_time_rotated(const css_params& params, std::size_t shift);

/// Dechirps one received symbol: element-wise multiplication by the
/// baseline downchirp. Requires symbol.size() == params.samples_per_symbol().
cvec dechirp(const css_params& params, const cvec& symbol);

/// std::polar for a signed magnitude such as the Dirichlet kernel's
/// sin(πNθ)/sin(πθ). std::polar leaves a negative rho undefined (and
/// aborts under _GLIBCXX_ASSERTIONS); negating the |m| phasor is exact,
/// so the bits equal m·cos θ, m·sin θ.
inline cplx signed_polar(double magnitude, double phase) {
    return magnitude < 0.0 ? -std::polar(-magnitude, phase)
                           : std::polar(magnitude, phase);
}

/// Window size of one truncated Dirichlet kernel: ±radius_bins chip bins
/// around the peak, clamped to the padded spectrum of num_bins·padding
/// bins:
///     half   = min(radius_bins · padding, num_bins · padding / 2)
///     window = min(2 · half + 1, num_bins · padding)
/// The one definition of the sizing; tone_kernel_table and the roofline
/// model both read it.
std::size_t tone_kernel_window_size(std::size_t num_bins, std::size_t padding,
                                    std::size_t radius_bins);

/// The per-offset half of the Dirichlet kernel, built once per window
/// geometry (num_bins, padding, radius_bins). Window element w sits at
/// x = d − j padded bins from the peak, with d the peak's distance from
/// its nearest padded bin and j = w − half, so every libm factor of the
/// kernel splits by angle addition into a per-window phasor of d times a
/// per-j constant held here:
///   sin(πx/M)          = Im(e^{jπd/M} · e^{−jπj/M})
///   sin(πx/padding)    = Im(e^{jπd/padding} · e^{−jπj/padding})
///   e^{jπ(N−1)x/M}     = e^{jπ(N−1)d/M} · e^{−jπ(N−1)j/M}
/// A few KB at the deployed geometry; holds no per-window state, so one
/// table serves any number of windows.
class tone_kernel_table {
public:
    tone_kernel_table() = default;
    tone_kernel_table(std::size_t num_bins, std::size_t padding, std::size_t radius_bins);

    /// True when the table was built for exactly this geometry.
    bool matches(std::size_t num_bins, std::size_t padding,
                 std::size_t radius_bins) const {
        return num_bins == num_bins_ && padding == padding_ && radius_bins == radius_bins_;
    }
    std::size_t num_bins() const { return num_bins_; }
    std::size_t padding() const { return padding_; }
    std::size_t radius_bins() const { return radius_bins_; }

    /// Writes the window of a peak at `position_bins` chip bins (wrapped
    /// modulo num_bins), truncated at `radius_bins` ≤ radius_bins(), and
    /// returns the padded-bin index of kernel[0].
    std::size_t build(cvec& kernel, double position_bins, std::size_t radius_bins) const;

private:
    std::size_t num_bins_ = 0;
    std::size_t padding_ = 0;
    std::size_t radius_bins_ = 0;
    std::size_t half_ = 0;  ///< padded bins each side of the peak
    /// Three phasors per j in [−half_, half_], at 3·(j + half_):
    /// e^{−jπj/M}, e^{−jπj/padding} and e^{−jπ(N−1)j/M}.
    cvec phasors_;
};

/// The dechirp-to-tone identity, evaluated analytically (§3.2): a cyclic
/// shift s plus a residual tone displacement δ dechirps to the complex
/// tone e^{j2π (s+δ)/N · n}, whose zero-padded N-point FFT is a Dirichlet
/// kernel centred at padded bin (s+δ)·padding:
///   X[m] = e^{jπ(N-1)θ} · sin(πNθ)/sin(πθ),  θ = ((s+δ)·padding - m)/M
/// with N = table.num_bins() samples, M = N·padding output bins. This
/// writes the kernel values for the window of ±radius_bins chip bins
/// around the peak into `kernel` (resized; capacity reuse makes repeated
/// calls allocation-free) and returns the padded-bin index of kernel[0]
/// (cyclic). A radius of >= num_bins/2 yields the full spectrum,
/// matching fft_zero_padded of the synthesized tone; a truncated radius
/// drops only far sidelobes (|X| ~ N/(π·Δbins) beyond Δ chip bins).
///
/// The window is built from `table` by angle addition: three sincos per
/// window, then complex multiplies and one divide per element, no libm.
/// Every element stays within 1e-13·N of the direct libm evaluation of
/// the formula above (tone_kernel.table_kernel_matches_direct_formula).
///
/// `position_bins` = s + δ may be any real; it is wrapped modulo num_bins.
std::size_t make_dechirped_tone_kernel(cvec& kernel, double position_bins,
                                       const tone_kernel_table& table);

/// The kernel of a tone that sounds only over samples [a, a + L) of the
/// symbol (one segment of a misaligned frame), a = window_start and
/// L = window_length ≥ 1, a + L ≤ N:
///   X[m] = e^{jπ(2a+L−1)θ} · sin(πLθ)/sin(πθ),  θ = (position·padding − m)/M.
/// Short segments have main lobes about 2N/L chip bins wide, so `kernel`
/// holds all M bins, kernel[m] at padded bin m, evaluated with libm.
void make_dechirped_tone_kernel(cvec& kernel, double position_bins, std::size_t num_bins,
                                std::size_t padding, std::size_t window_start,
                                std::size_t window_length);

/// Frequency-selective multipath on the fast path. A tap delaying the
/// chirp by t samples is — at the critical sampling rate — exactly a
/// -t-bin cyclic shift with a constant, shift-dependent phase:
///   x_s[n - t] = x_{s-t}[n] · e^{jβ_t},   β_t = 2π(t/2 + t²/2N − s·t/N),
/// so the post-dechirp spectrum of a multipath chirp is the tap-weighted
/// sum of the SAME Dirichlet window at integer-bin offsets. (Dual view:
/// an LTI channel multiplies a chirp pointwise in time by its frequency
/// response sampled along the sweep, and after dechirping time maps to
/// frequency — the taps become a spectral envelope on the kernel.)
///
/// Writes the combined window for taps `taps` (tap i delayed i samples)
/// of a device at integer shift `cyclic_shift` with residual tone
/// displacement `tone_bins` chip bins into `envelope` (window size
/// kernel + (taps-1)·padding; resized, capacity reuse) and returns the
/// padded-bin index of envelope[0]. The residual tone — applied to the
/// waveform BEFORE the channel — adds e^{-jωt} per tap
/// (ω = 2π·tone_bins/N rad/sample). `kernel_scratch` holds the
/// single-tap window, built from `table` with its radius shrunk as far
/// as the tap spread needs to fit the spectrum. With taps == {1} this
/// reduces exactly to
/// make_dechirped_tone_kernel. Exact up to the kernel truncation and
/// the t-sample symbol-boundary effect of linear (vs cyclic) tap
/// convolution, both below the truncation tolerance class.
std::size_t make_multipath_tone_kernel(cvec& envelope, std::span<const cplx> taps,
                                       std::uint32_t cyclic_shift, double tone_bins,
                                       const tone_kernel_table& table,
                                       cvec& kernel_scratch);

}  // namespace ns::phy
