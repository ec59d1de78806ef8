// The receiver's view of one round after the dechirp (§3.3.1) — the one
// interface at which channel synthesis and decoding meet.
//
// The decoder reads a round in two steps. The preamble upchirps come
// first, as full padded spectra: the guard search and the tone estimate
// need nearly every bin of them. Once the preamble has detected each
// device and locked its peak, the decoder asks only for payload power in
// a narrow window around each locked peak: a payload symbol is ON-OFF
// keyed, read at one place per device.
//
// Two producers answer: the sample path dechirps and FFTs the whole
// captured symbol and gathers the windows from it (the oracle), and the
// symbol-domain fast path synthesizes only the requested bins
// (channel::symbol_round). Both answer bit for bit what the full spectra
// hold.
#pragma once

#include <cstdint>
#include <span>

#include "netscatter/dsp/fft.hpp"

namespace ns::phy {

/// Payload windows a decoder asks for: window w covers the `width`
/// padded bins first[w], first[w] + 1, … of each payload symbol's
/// spectrum, cyclic over its padded size (first[w] < padded size,
/// width ≤ padded size). Windows may overlap.
struct power_windows {
    std::span<const std::uint32_t> first;
    std::size_t width = 0;

    /// Requested bins per payload symbol: width per window.
    std::size_t bins() const { return first.size() * width; }
};

/// One received round, dechirped, as the decoder reads it.
class dechirped_round {
public:
    /// The complex padded spectra of the preamble upchirps, in order;
    /// valid until the round's producer runs its next round.
    virtual std::span<const ns::dsp::cvec> preamble_spectra() = 0;

    /// |X_i[b]|² of every payload symbol i at every bin b of `windows`,
    /// window by window: with P payload symbols,
    /// out[(w·P + i)·width + j] is the power of symbol i at padded bin
    /// (first[w] + j) mod padded size, so each window's powers are one
    /// contiguous run. `out` holds P × windows.bins() values.
    virtual void payload_power(const power_windows& windows, std::span<double> out) = 0;

protected:
    ~dechirped_round() = default;
};

}  // namespace ns::phy
