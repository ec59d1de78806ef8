// CSS modulators.
//
// Two transmitter flavours share the chirp generator:
//  * lora_modulator — classic CSS (LoRa backscatter [25]): one device
//    conveys SF bits per symbol by choosing one of 2^SF cyclic shifts.
//  * distributed_modulator — NetScatter's distributed CSS coding (§3.1):
//    a device owns ONE assigned cyclic shift and ON-OFF keys it, sending
//    the chirp for '1' and silence for '0'; all devices transmit
//    concurrently and superpose over the air.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/css_params.hpp"

namespace ns::phy {

/// Classic CSS modulator: each symbol value in [0, 2^SF) selects a cyclic
/// shift of the upchirp.
class lora_modulator {
public:
    explicit lora_modulator(css_params params);

    /// Modulates one symbol value into 2^SF samples.
    cvec modulate_symbol(std::uint32_t value) const;

    /// Modulates a symbol sequence (concatenated symbols).
    cvec modulate(const std::vector<std::uint32_t>& symbols) const;

    /// modulate into a caller-provided buffer (resized; capacity reuse
    /// makes repeated calls allocation-free).
    void modulate_into(std::span<const std::uint32_t> symbols, cvec& out) const;

    /// Packs a bit sequence into SF-bit symbol values (MSB-first; the
    /// final symbol is zero-padded) and modulates it.
    cvec modulate_bits(const std::vector<bool>& bits) const;

    /// Converts bits to SF-bit symbol values without modulating.
    std::vector<std::uint32_t> bits_to_symbols(const std::vector<bool>& bits) const;

    /// Converts symbol values back to bits (inverse of bits_to_symbols);
    /// `bit_count` trims the zero-padding of the final symbol.
    std::vector<bool> symbols_to_bits(const std::vector<std::uint32_t>& symbols,
                                      std::size_t bit_count) const;

    const css_params& params() const { return params_; }

private:
    css_params params_;
};

/// NetScatter distributed-CSS modulator for a single device.
///
/// The device is assigned one cyclic shift at association (§3.3.2); each
/// payload bit maps to one symbol period: the assigned upchirp for '1',
/// silence for '0'. The preamble (6 upchirps + 2 downchirps, §3.3.1) also
/// uses the assigned shift.
class distributed_modulator {
public:
    /// `cyclic_shift` is the device's assigned shift in [0, 2^SF).
    distributed_modulator(css_params params, std::uint32_t cyclic_shift);

    /// Samples for one ON symbol (the assigned upchirp).
    const cvec& on_symbol() const { return on_symbol_; }

    /// Modulates a payload bit sequence: one symbol period per bit.
    cvec modulate_payload(const std::vector<bool>& bits) const;

    /// Modulates the 6-up + 2-down preamble at the assigned shift.
    cvec modulate_preamble() const;

    /// Full packet: preamble followed by payload bits (the caller appends
    /// CRC to the bits beforehand; see ns::phy::frame).
    cvec modulate_packet(const std::vector<bool>& payload_bits) const;

    /// modulate_packet into a caller-provided buffer (resized; capacity
    /// reuse makes repeated calls allocation-free).
    void modulate_packet_into(const std::vector<bool>& payload_bits, cvec& out) const;

    std::uint32_t cyclic_shift() const { return cyclic_shift_; }
    const css_params& params() const { return params_; }

    /// Preamble length in symbols (6 upchirps + 2 downchirps).
    static constexpr std::size_t preamble_upchirps = 6;
    static constexpr std::size_t preamble_downchirps = 2;
    static constexpr std::size_t preamble_symbols =
        preamble_upchirps + preamble_downchirps;

private:
    css_params params_;
    std::uint32_t cyclic_shift_;
    cvec on_symbol_;
    cvec down_symbol_;
};

}  // namespace ns::phy
