#include "netscatter/phy/demodulator.hpp"

#include <algorithm>
#include <cmath>

#include "netscatter/dsp/fft.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/util/error.hpp"

namespace ns::phy {

demodulator::demodulator(css_params params, std::size_t zero_padding_factor)
    : params_(params), padding_(zero_padding_factor) {
    ns::util::require(ns::dsp::is_power_of_two(padding_),
                      "demodulator: zero padding factor must be a power of two");
    downchirp_ = dechirp_reference(params_);
    plan_ = ns::engine::get_fft_plan(padded_size());
}

std::vector<double> demodulator::symbol_power_spectrum(const cvec& symbol) const {
    // Payload-slicing hot path: dechirp straight into the per-thread
    // scratch buffer, zero-pad, transform in place. Same arithmetic as
    // symbol_spectrum (so powers are bit-identical), minus one padded
    // complex allocation per symbol.
    ns::util::require(symbol.size() == params_.samples_per_symbol(),
                      "demodulator: symbol length mismatch");
    ns::dsp::cvec& scratch = ns::engine::fft_scratch(padded_size());
    for (std::size_t i = 0; i < symbol.size(); ++i) {
        scratch[i] = symbol[i] * downchirp_[i];
    }
    std::fill(scratch.begin() + static_cast<std::ptrdiff_t>(symbol.size()),
              scratch.end(), ns::dsp::cplx{0.0, 0.0});
    plan_->forward(scratch);
    return ns::dsp::power_spectrum(scratch);
}

cvec demodulator::symbol_spectrum(const cvec& symbol) const {
    cvec out;
    symbol_spectrum_into(symbol, out);
    return out;
}

void demodulator::symbol_spectrum_into(std::span<const cplx> symbol, cvec& out) const {
    ns::util::require(symbol.size() == params_.samples_per_symbol(),
                      "demodulator: symbol length mismatch");
    out.resize(padded_size());
    for (std::size_t i = 0; i < symbol.size(); ++i) {
        out[i] = symbol[i] * downchirp_[i];
    }
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(symbol.size()), out.end(),
              ns::dsp::cplx{0.0, 0.0});
    plan_->forward(out);
}

std::uint32_t demodulator::demodulate_lora_symbol(const cvec& symbol) const {
    const std::vector<double> power = symbol_power_spectrum(symbol);
    const std::size_t bin = ns::dsp::argmax(power);
    // Round the padded bin to the nearest chip bin, wrapping at the top.
    const std::size_t chip = (bin + padding_ / 2) / padding_ % params_.num_bins();
    return static_cast<std::uint32_t>(chip);
}

ns::dsp::peak demodulator::find_symbol_peak(const cvec& symbol) const {
    const std::vector<double> power = symbol_power_spectrum(symbol);
    ns::dsp::peak p = ns::dsp::find_peak(power);
    // Express locations in chip-bin units.
    p.fractional_bin /= static_cast<double>(padding_);
    p.bin = p.bin / padding_ % params_.num_bins();
    return p;
}

demodulator::windowed_peak demodulator::peak_in_window(
    const std::vector<double>& padded_spectrum, std::uint32_t bin,
    std::size_t search_radius_padded) const {
    ns::util::require(padded_spectrum.size() == padded_size(),
                      "peak_in_window: spectrum size mismatch");
    ns::util::require(bin < params_.num_bins(), "peak_in_window: bin out of range");
    const std::size_t n = padded_spectrum.size();
    const std::size_t centre = static_cast<std::size_t>(bin) * padding_;
    windowed_peak best;
    best.power = -1.0;
    const auto radius = static_cast<std::ptrdiff_t>(search_radius_padded);
    for (std::ptrdiff_t off = -radius; off <= radius; ++off) {
        const std::size_t idx =
            (centre + n + static_cast<std::size_t>(off + static_cast<std::ptrdiff_t>(n))) % n;
        if (padded_spectrum[idx] > best.power) {
            best.power = padded_spectrum[idx];
            best.offset = off;
        }
    }
    return best;
}

double demodulator::power_at_offset(const std::vector<double>& padded_spectrum,
                                    std::uint32_t bin, std::ptrdiff_t offset,
                                    std::size_t radius) const {
    ns::util::require(padded_spectrum.size() == padded_size(),
                      "power_at_offset: spectrum size mismatch");
    ns::util::require(bin < params_.num_bins(), "power_at_offset: bin out of range");
    const std::size_t n = padded_spectrum.size();
    const auto base = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(bin) * padding_) +
                      offset;
    double best = 0.0;
    for (std::ptrdiff_t k = -static_cast<std::ptrdiff_t>(radius);
         k <= static_cast<std::ptrdiff_t>(radius); ++k) {
        const std::size_t idx = static_cast<std::size_t>(
            ((base + k) % static_cast<std::ptrdiff_t>(n) + static_cast<std::ptrdiff_t>(n)) %
            static_cast<std::ptrdiff_t>(n));
        best = std::max(best, padded_spectrum[idx]);
    }
    return best;
}

}  // namespace ns::phy
