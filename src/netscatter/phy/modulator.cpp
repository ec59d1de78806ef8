#include "netscatter/phy/modulator.hpp"

#include <algorithm>

#include "netscatter/util/error.hpp"

namespace ns::phy {

lora_modulator::lora_modulator(css_params params) : params_(params) {}

cvec lora_modulator::modulate_symbol(std::uint32_t value) const {
    ns::util::require(value < params_.num_bins(), "lora_modulator: symbol out of range");
    return make_upchirp(params_, static_cast<double>(value));
}

cvec lora_modulator::modulate(const std::vector<std::uint32_t>& symbols) const {
    cvec out;
    modulate_into(symbols, out);
    return out;
}

void lora_modulator::modulate_into(std::span<const std::uint32_t> symbols, cvec& out) const {
    const std::size_t sps = params_.samples_per_symbol();
    out.resize(symbols.size() * sps);
    for (std::size_t k = 0; k < symbols.size(); ++k) {
        ns::util::require(symbols[k] < params_.num_bins(),
                          "lora_modulator: symbol out of range");
        make_upchirp_into(params_, static_cast<double>(symbols[k]),
                          std::span<cplx>(out).subspan(k * sps, sps));
    }
}

std::vector<std::uint32_t> lora_modulator::bits_to_symbols(const std::vector<bool>& bits) const {
    const int sf = params_.spreading_factor;
    std::vector<std::uint32_t> symbols;
    symbols.reserve((bits.size() + static_cast<std::size_t>(sf) - 1) /
                    static_cast<std::size_t>(sf));
    std::uint32_t current = 0;
    int filled = 0;
    for (bool bit : bits) {
        current = (current << 1) | (bit ? 1u : 0u);
        if (++filled == sf) {
            symbols.push_back(current);
            current = 0;
            filled = 0;
        }
    }
    if (filled > 0) symbols.push_back(current << (sf - filled));  // zero-pad final symbol
    return symbols;
}

std::vector<bool> lora_modulator::symbols_to_bits(const std::vector<std::uint32_t>& symbols,
                                                  std::size_t bit_count) const {
    const int sf = params_.spreading_factor;
    std::vector<bool> bits;
    bits.reserve(symbols.size() * static_cast<std::size_t>(sf));
    for (std::uint32_t value : symbols) {
        for (int i = sf - 1; i >= 0; --i) bits.push_back(((value >> i) & 1u) != 0);
    }
    ns::util::require(bit_count <= bits.size(), "symbols_to_bits: bit_count too large");
    bits.resize(bit_count);
    return bits;
}

cvec lora_modulator::modulate_bits(const std::vector<bool>& bits) const {
    return modulate(bits_to_symbols(bits));
}

distributed_modulator::distributed_modulator(css_params params, std::uint32_t cyclic_shift)
    : params_(params), cyclic_shift_(cyclic_shift) {
    ns::util::require(cyclic_shift < params.num_bins(),
                      "distributed_modulator: cyclic shift out of range");
    on_symbol_ = make_upchirp(params_, static_cast<double>(cyclic_shift_));
    down_symbol_ = make_downchirp(params_, static_cast<double>(cyclic_shift_));
}

cvec distributed_modulator::modulate_payload(const std::vector<bool>& bits) const {
    const std::size_t sps = params_.samples_per_symbol();
    cvec out(bits.size() * sps, cplx{0.0, 0.0});
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) {
            std::copy(on_symbol_.begin(), on_symbol_.end(),
                      out.begin() + static_cast<std::ptrdiff_t>(i * sps));
        }
    }
    return out;
}

cvec distributed_modulator::modulate_preamble() const {
    cvec out;
    out.reserve(preamble_symbols * params_.samples_per_symbol());
    for (std::size_t i = 0; i < preamble_upchirps; ++i) {
        out.insert(out.end(), on_symbol_.begin(), on_symbol_.end());
    }
    for (std::size_t i = 0; i < preamble_downchirps; ++i) {
        out.insert(out.end(), down_symbol_.begin(), down_symbol_.end());
    }
    return out;
}

cvec distributed_modulator::modulate_packet(const std::vector<bool>& payload_bits) const {
    cvec packet;
    modulate_packet_into(payload_bits, packet);
    return packet;
}

void distributed_modulator::modulate_packet_into(const std::vector<bool>& payload_bits,
                                                 cvec& out) const {
    const std::size_t sps = params_.samples_per_symbol();
    out.resize((preamble_symbols + payload_bits.size()) * sps);
    auto cursor = out.begin();
    for (std::size_t i = 0; i < preamble_upchirps; ++i) {
        cursor = std::copy(on_symbol_.begin(), on_symbol_.end(), cursor);
    }
    for (std::size_t i = 0; i < preamble_downchirps; ++i) {
        cursor = std::copy(down_symbol_.begin(), down_symbol_.end(), cursor);
    }
    for (std::size_t i = 0; i < payload_bits.size(); ++i) {
        if (payload_bits[i]) {
            cursor = std::copy(on_symbol_.begin(), on_symbol_.end(), cursor);
        } else {
            cursor = std::fill_n(cursor, sps, cplx{0.0, 0.0});
        }
    }
}

}  // namespace ns::phy
