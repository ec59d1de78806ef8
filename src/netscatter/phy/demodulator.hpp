// CSS demodulation primitives (§2.1, §3.1, §3.2.3).
//
// Demodulation of one symbol is: dechirp (multiply by the baseline
// downchirp) then FFT. The same single FFT output serves every concurrent
// device — the receiver just inspects different bins. Zero-padding before
// the FFT interpolates the spectrum for sub-bin peak location (the
// receiver "has to achieve a sub-FFT bin resolution", §3.2.3).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netscatter/dsp/peak.hpp"
#include "netscatter/engine/fft_plan.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/css_params.hpp"

namespace ns::phy {

/// Shared demodulation front end: dechirps a symbol and exposes the
/// (optionally zero-padded) power spectrum. Constructed once; the
/// downchirp reference and the padded FFT plan are fetched up front, so
/// no plan is built inside a round.
class demodulator {
public:
    /// `zero_padding_factor` multiplies the FFT size (1 = no padding);
    /// must be a power of two. The deployed receiver uses 10x-equivalent
    /// resolution; we default to 8 (power of two) which gives 1/8-bin
    /// granularity.
    explicit demodulator(css_params params, std::size_t zero_padding_factor = 8);

    /// Dechirp + FFT + |.|^2. Returns 2^SF * zero_padding_factor bins.
    /// Requires symbol.size() == params.samples_per_symbol().
    std::vector<double> symbol_power_spectrum(const cvec& symbol) const;

    /// Dechirp + zero-padded FFT, complex output (phase preserved). The
    /// receiver estimates per-device residual frequency offsets from the
    /// phase progression of the preamble peaks across symbols (§4.2's
    /// measurement method).
    cvec symbol_spectrum(const cvec& symbol) const;

    /// symbol_spectrum into a caller-provided buffer (resized; capacity
    /// reuse makes repeated calls allocation-free). Identical arithmetic
    /// to symbol_spectrum / symbol_power_spectrum, so the three paths
    /// stay bit-identical. `out` must not alias `symbol`.
    void symbol_spectrum_into(std::span<const cplx> symbol, cvec& out) const;

    /// Classic CSS hard decision: the strongest padded bin, mapped back to
    /// a symbol value in [0, 2^SF) by rounding to the nearest chip bin.
    std::uint32_t demodulate_lora_symbol(const cvec& symbol) const;

    /// Strongest peak with fractional-bin resolution in *chip-bin* units
    /// (i.e. divided by the padding factor); used by the Choir baseline
    /// and the offset-measurement experiments.
    ns::dsp::peak find_symbol_peak(const cvec& symbol) const;

    /// Location and power of the strongest padded bin within
    /// +-`search_radius_padded` of chip bin `bin`. The offset is in padded
    /// bins relative to the nominal location. Receivers lock a device's
    /// offset from its preamble (the residual displacement is constant
    /// within a packet) and then read payload symbols in a narrow window
    /// around the locked location, which keeps interference from leaking
    /// into the wide guard window during OFF symbols.
    struct windowed_peak {
        std::ptrdiff_t offset = 0;  ///< padded bins from the nominal location
        double power = 0.0;
    };
    windowed_peak peak_in_window(const std::vector<double>& padded_spectrum,
                                 std::uint32_t bin, std::size_t search_radius_padded) const;

    /// Maximum power within +-`radius` padded bins of (bin's nominal
    /// location + `offset` padded bins); used for payload slicing at a
    /// preamble-locked location.
    double power_at_offset(const std::vector<double>& padded_spectrum, std::uint32_t bin,
                           std::ptrdiff_t offset, std::size_t radius = 1) const;

    /// Number of padded FFT bins per chip bin.
    std::size_t padding_factor() const { return padding_; }

    /// Size of the padded FFT.
    std::size_t padded_size() const { return params_.num_bins() * padding_; }

    const css_params& params() const { return params_; }

private:
    css_params params_;
    std::size_t padding_;
    cvec downchirp_;
    std::shared_ptr<const ns::engine::fft_plan> plan_;
};

}  // namespace ns::phy
