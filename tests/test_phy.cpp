// Unit tests for ns::phy — CSS parameters (Table 1), chirp generation,
// modulators, demodulator, framing, sensitivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "netscatter/channel/awgn.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/phy/demodulator.hpp"
#include "netscatter/phy/frame.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/phy/sensitivity.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using namespace ns::phy;
using ns::dsp::cplx;
using ns::dsp::cvec;

// --------------------------------------------------------- css_params --

TEST(css_params, deployed_configuration_derived_values) {
    const css_params p = deployed_params();
    EXPECT_EQ(p.num_bins(), 512u);
    EXPECT_EQ(p.samples_per_symbol(), 512u);
    EXPECT_NEAR(p.symbol_duration_s(), 1.024e-3, 1e-9);
    EXPECT_NEAR(p.symbol_rate_hz(), 976.5625, 1e-6);
    EXPECT_NEAR(p.onoff_bitrate_bps(), 976.5625, 1e-6);   // ~976 bps (§4.2)
    EXPECT_NEAR(p.lora_bitrate_bps(), 8789.0625, 1e-4);   // ~8.7 kbps (§4.4)
    EXPECT_NEAR(p.bin_spacing_hz(), 976.5625, 1e-6);      // ~976 Hz (Table 1)
    EXPECT_NEAR(p.time_per_bin_s(), 2e-6, 1e-12);         // 2 us (Table 1)
}

TEST(css_params, bin_displacement_formulas) {
    const css_params p = deployed_params();
    // ΔFFTbin = Δt * BW (§3.2.1): 2 us at 500 kHz -> 1 bin.
    EXPECT_NEAR(p.bins_from_time_offset(2e-6), 1.0, 1e-12);
    // 3.5 us of hardware delay exceeds one bin (§3.2.1).
    EXPECT_GT(p.bins_from_time_offset(3.5e-6), 1.0);
    // ΔFFTbin = 2^SF * Δf / BW (§3.2.2): 976.5625 Hz -> 1 bin.
    EXPECT_NEAR(p.bins_from_frequency_offset(976.5625), 1.0, 1e-9);
    // 150 Hz (Fig. 14a worst case) is ~0.15 bin.
    EXPECT_NEAR(p.bins_from_frequency_offset(150.0), 0.1536, 1e-3);
}

TEST(css_params, chirp_slope_collision_rule) {
    // (500 kHz, SF 9) and (250 kHz, SF 7) have equal slope BW^2 / 2^SF —
    // the pair LoRa cannot concurrently decode (§2.2).
    const css_params a{.bandwidth_hz = 500e3, .spreading_factor = 9};
    const css_params b{.bandwidth_hz = 250e3, .spreading_factor = 7};
    EXPECT_NEAR(a.chirp_slope_hz_per_s(), b.chirp_slope_hz_per_s(), 1e-6);
    const css_params c{.bandwidth_hz = 250e3, .spreading_factor = 8};
    EXPECT_NE(a.chirp_slope_hz_per_s(), c.chirp_slope_hz_per_s());
}

TEST(css_params, table1_rows_match_paper) {
    const auto configs = table1_configs();
    ASSERT_EQ(configs.size(), 6u);

    // Row 0: 500 kHz / SF 9 -> 2 us, 976 Hz, 976 bps, -123 dBm.
    EXPECT_NEAR(configs[0].max_time_variation_s, 2e-6, 1e-12);
    EXPECT_NEAR(configs[0].max_frequency_variation_hz, 976.5625, 1e-4);
    EXPECT_NEAR(configs[0].bitrate_bps, 976.5625, 1e-4);
    EXPECT_NEAR(configs[0].sensitivity_dbm, -123.0, 1.0);

    // Row 1: 500 kHz / SF 8 -> 2 us, 1953 Hz, 1953 bps, ~-120 dBm.
    EXPECT_NEAR(configs[1].max_time_variation_s, 2e-6, 1e-12);
    EXPECT_NEAR(configs[1].max_frequency_variation_hz, 1953.125, 1e-3);
    EXPECT_NEAR(configs[1].bitrate_bps, 1953.125, 1e-3);
    EXPECT_NEAR(configs[1].sensitivity_dbm, -120.0, 1.5);

    // Row 2: 250 kHz / SF 8 -> 4 us, 976 Hz, 976 bps, -123 dBm.
    EXPECT_NEAR(configs[2].max_time_variation_s, 4e-6, 1e-12);
    EXPECT_NEAR(configs[2].bitrate_bps, 976.5625, 1e-4);
    EXPECT_NEAR(configs[2].sensitivity_dbm, -123.0, 1.5);

    // Row 4: 125 kHz / SF 7 -> 8 us, 976 Hz, 976 bps, -123 dBm.
    EXPECT_NEAR(configs[4].max_time_variation_s, 8e-6, 1e-12);
    EXPECT_NEAR(configs[4].bitrate_bps, 976.5625, 1e-4);
    EXPECT_NEAR(configs[4].sensitivity_dbm, -123.0, 2.0);
}

// -------------------------------------------------------------- chirp --

TEST(chirp, unit_amplitude_everywhere) {
    const css_params p = deployed_params();
    for (const auto& sample : make_upchirp(p, 37.0)) {
        EXPECT_NEAR(std::abs(sample), 1.0, 1e-12);
    }
}

TEST(chirp, downchirp_is_conjugate_of_upchirp) {
    const css_params p{.bandwidth_hz = 125e3, .spreading_factor = 7};
    const cvec up = make_upchirp(p, 0.0);
    const cvec down = make_downchirp(p, 0.0);
    for (std::size_t i = 0; i < up.size(); ++i) {
        EXPECT_NEAR(std::abs(down[i] - std::conj(up[i])), 0.0, 1e-9);
    }
}

TEST(chirp, dechirp_reference_equals_baseline_downchirp) {
    const css_params p = deployed_params();
    const cvec ref = dechirp_reference(p);
    const cvec down = make_downchirp(p, 0.0);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i], down[i]);
    }
}

TEST(chirp, out_of_range_shift_throws) {
    const css_params p = deployed_params();
    EXPECT_THROW(make_upchirp(p, 1024.0), ns::util::invalid_argument);
    EXPECT_THROW(make_upchirp_time_rotated(p, 512), ns::util::invalid_argument);
}

// Frequency-shift synthesis must be equivalent (up to a constant phase)
// to a true cyclic rotation in time, for every integer shift. This is the
// equivalence Fig. 3(c) rests on.
class chirp_shift_equivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(chirp_shift_equivalence, frequency_shift_equals_time_rotation) {
    const css_params p{.bandwidth_hz = 500e3, .spreading_factor = 7};
    const std::size_t shift = GetParam();
    const cvec by_frequency = make_upchirp(p, static_cast<double>(shift));
    const cvec by_rotation = make_upchirp_time_rotated(p, shift);
    // Inner product magnitude == N iff the two are equal up to a global
    // phase.
    cplx inner{0.0, 0.0};
    for (std::size_t i = 0; i < by_frequency.size(); ++i) {
        inner += by_frequency[i] * std::conj(by_rotation[i]);
    }
    EXPECT_NEAR(std::abs(inner), static_cast<double>(p.num_bins()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(shifts, chirp_shift_equivalence,
                         ::testing::Values(0, 1, 2, 5, 31, 64, 100, 127));

// Dechirping a shift-s chirp produces an FFT peak exactly at bin s.
class chirp_peak_location : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(chirp_peak_location, peak_at_assigned_bin) {
    const css_params p = deployed_params();
    const std::uint32_t shift = GetParam();
    const demodulator demod(p, 1);
    const cvec symbol = make_upchirp(p, static_cast<double>(shift));
    const auto power = demod.symbol_power_spectrum(symbol);
    EXPECT_EQ(ns::dsp::argmax(power), shift);
}

INSTANTIATE_TEST_SUITE_P(shifts, chirp_peak_location,
                         ::testing::Values(0, 1, 2, 17, 100, 255, 256, 400, 511));

TEST(chirp, fractional_shift_lands_between_bins) {
    const css_params p = deployed_params();
    const demodulator demod(p, 16);
    const cvec symbol = make_upchirp(p, 100.5);
    const ns::dsp::peak pk = demod.find_symbol_peak(symbol);
    EXPECT_NEAR(pk.fractional_bin, 100.5, 0.1);
}

TEST(chirp, orthogonality_of_distinct_shifts) {
    // Energy of shift-a chirp leaking into bin b (a != b) must be tiny
    // compared with the main peak — the basis of concurrent decoding.
    const css_params p{.bandwidth_hz = 500e3, .spreading_factor = 8};
    const demodulator demod(p, 1);
    const auto power = demod.symbol_power_spectrum(make_upchirp(p, 40.0));
    const double main_peak = power[40];
    for (std::size_t bin = 0; bin < power.size(); ++bin) {
        if (bin == 40) continue;
        EXPECT_LT(power[bin], main_peak * 1e-6) << "bin " << bin;
    }
}

// -------------------------------------------------------- lora modem --

TEST(lora_modulator, rejects_out_of_range_symbol) {
    const lora_modulator mod(deployed_params());
    EXPECT_THROW(mod.modulate_symbol(512), ns::util::invalid_argument);
}

TEST(lora_modulator, bits_to_symbols_packs_msb_first) {
    const css_params p{.bandwidth_hz = 500e3, .spreading_factor = 4};
    const lora_modulator mod(p);
    // 1010 1100 -> symbols 0b1010=10, 0b1100=12.
    const std::vector<bool> bits = {1, 0, 1, 0, 1, 1, 0, 0};
    const auto symbols = mod.bits_to_symbols(bits);
    ASSERT_EQ(symbols.size(), 2u);
    EXPECT_EQ(symbols[0], 10u);
    EXPECT_EQ(symbols[1], 12u);
}

TEST(lora_modulator, partial_final_symbol_zero_padded) {
    const css_params p{.bandwidth_hz = 500e3, .spreading_factor = 4};
    const lora_modulator mod(p);
    const std::vector<bool> bits = {1, 1};  // -> 0b1100 = 12
    const auto symbols = mod.bits_to_symbols(bits);
    ASSERT_EQ(symbols.size(), 1u);
    EXPECT_EQ(symbols[0], 12u);
    EXPECT_EQ(mod.symbols_to_bits(symbols, 2), bits);
}

TEST(lora_modulator, bit_symbol_roundtrip) {
    const lora_modulator mod(deployed_params());
    ns::util::rng gen(42);
    const std::vector<bool> bits = gen.bits(45);  // 5 SF-9 symbols
    const auto symbols = mod.bits_to_symbols(bits);
    EXPECT_EQ(mod.symbols_to_bits(symbols, bits.size()), bits);
}

TEST(lora_modem, clean_demodulation_all_symbol_values) {
    const css_params p{.bandwidth_hz = 500e3, .spreading_factor = 7};
    const lora_modulator mod(p);
    const demodulator demod(p);
    for (std::uint32_t value = 0; value < p.num_bins(); value += 7) {
        EXPECT_EQ(demod.demodulate_lora_symbol(mod.modulate_symbol(value)), value);
    }
}

TEST(lora_modem, demodulates_below_noise_floor) {
    // At SNR = -10 dB the 2^9 processing gain (27 dB) still yields a
    // clean decision.
    const css_params p = deployed_params();
    const lora_modulator mod(p);
    const demodulator demod(p);
    ns::util::rng gen(7);
    int errors = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        const auto value = static_cast<std::uint32_t>(gen.uniform_int(0, 511));
        cvec symbol = mod.modulate_symbol(value);
        ns::channel::add_noise_for_unit_signal_snr(symbol, -10.0, gen);
        if (demod.demodulate_lora_symbol(symbol) != value) ++errors;
    }
    EXPECT_LE(errors, 2);
}

// ------------------------------------------------- distributed modem --

TEST(distributed_modulator, on_symbol_is_assigned_chirp) {
    const css_params p = deployed_params();
    const distributed_modulator mod(p, 42);
    const cvec expected = make_upchirp(p, 42.0);
    ASSERT_EQ(mod.on_symbol().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(std::abs(mod.on_symbol()[i] - expected[i]), 0.0, 1e-12);
    }
}

TEST(distributed_modulator, off_bits_produce_silence) {
    const css_params p = deployed_params();
    const distributed_modulator mod(p, 10);
    const cvec payload = mod.modulate_payload({true, false, true});
    const std::size_t sps = p.samples_per_symbol();
    ASSERT_EQ(payload.size(), 3 * sps);
    EXPECT_GT(ns::dsp::mean_power(std::span(payload).subspan(0, sps)), 0.9);
    EXPECT_EQ(ns::dsp::mean_power(std::span(payload).subspan(sps, sps)), 0.0);
    EXPECT_GT(ns::dsp::mean_power(std::span(payload).subspan(2 * sps, sps)), 0.9);
}

TEST(distributed_modulator, preamble_six_up_two_down) {
    const css_params p = deployed_params();
    const distributed_modulator mod(p, 8);
    const cvec preamble = mod.modulate_preamble();
    const std::size_t sps = p.samples_per_symbol();
    ASSERT_EQ(preamble.size(), 8 * sps);
    // Symbols 0..5 must match the assigned upchirp, 6..7 the downchirp.
    const cvec up = make_upchirp(p, 8.0);
    const cvec down = make_downchirp(p, 8.0);
    for (std::size_t i = 0; i < sps; ++i) {
        EXPECT_NEAR(std::abs(preamble[i] - up[i]), 0.0, 1e-12);
        EXPECT_NEAR(std::abs(preamble[6 * sps + i] - down[i]), 0.0, 1e-12);
    }
}

TEST(distributed_modulator, packet_length) {
    const css_params p = deployed_params();
    const distributed_modulator mod(p, 0);
    const cvec packet = mod.modulate_packet(std::vector<bool>(40, true));
    EXPECT_EQ(packet.size(), (8 + 40) * p.samples_per_symbol());
}

TEST(distributed_modulator, shift_out_of_range_throws) {
    EXPECT_THROW(distributed_modulator(deployed_params(), 512),
                 ns::util::invalid_argument);
}

// -------------------------------------------------------- demodulator --

TEST(demodulator, padding_must_be_power_of_two) {
    EXPECT_THROW(demodulator(deployed_params(), 3), ns::util::invalid_argument);
}

TEST(demodulator, power_at_offset_tracks_fractional_drift) {
    // A device drifted by 0.3 bins must still credit its own bin within
    // half a bin of the nominal location.
    const css_params p = deployed_params();
    const demodulator demod(p, 8);
    const cvec symbol = make_upchirp(p, 100.3);
    const auto power = demod.symbol_power_spectrum(symbol);
    const double at_own = demod.power_at_offset(power, 100, 0, 4);
    const double at_other = demod.power_at_offset(power, 200, 0, 4);
    EXPECT_GT(at_own, 100.0 * at_other);
}

TEST(demodulator, wrong_length_symbol_throws) {
    const demodulator demod(deployed_params());
    EXPECT_THROW(demod.symbol_power_spectrum(cvec(100)), ns::util::invalid_argument);
}

TEST(demodulator, padded_size) {
    const demodulator demod(deployed_params(), 8);
    EXPECT_EQ(demod.padded_size(), 512u * 8u);
    EXPECT_EQ(demod.padding_factor(), 8u);
}

// -------------------------------------------------------------- frame --

TEST(frame, linklayer_format_is_40_bits_on_air) {
    const frame_format f = linklayer_format();
    EXPECT_EQ(f.payload_plus_crc_bits(), 40u);  // §4.4: payload + CRC = 40 bits
    EXPECT_EQ(f.netscatter_symbols(), 48u);     // 8 preamble + 40 payload
}

TEST(frame, netscatter_airtime) {
    const frame_format f = linklayer_format();
    const css_params p = deployed_params();
    EXPECT_NEAR(f.netscatter_airtime_s(p), 48.0 * 1.024e-3, 1e-9);
}

TEST(frame, lora_symbol_count_rounds_up) {
    const frame_format f = linklayer_format();
    const css_params p = deployed_params();  // SF 9: ceil(40/9) = 5 symbols
    EXPECT_EQ(f.lora_symbols(p), 8u + 5u);
    EXPECT_NEAR(f.lora_airtime_s(p), 13.0 * 1.024e-3, 1e-9);
}

TEST(frame, build_and_check_roundtrip) {
    const frame_format f = linklayer_format();
    ns::util::rng gen(1);
    const std::vector<bool> payload = gen.bits(f.payload_bits);
    const std::vector<bool> bits = build_frame_bits(f, payload);
    ASSERT_EQ(bits.size(), f.payload_plus_crc_bits());
    const frame_check_result check = check_frame_bits(f, bits);
    EXPECT_TRUE(check.ok);
    EXPECT_EQ(check.payload, payload);
}

TEST(frame, check_rejects_corruption_and_bad_length) {
    const frame_format f = linklayer_format();
    ns::util::rng gen(2);
    std::vector<bool> bits = build_frame_bits(f, gen.bits(f.payload_bits));
    bits[3] = !bits[3];
    EXPECT_FALSE(check_frame_bits(f, bits).ok);
    bits.pop_back();
    EXPECT_FALSE(check_frame_bits(f, bits).ok);
}

TEST(frame, build_validates_payload_size) {
    EXPECT_THROW(build_frame_bits(linklayer_format(), std::vector<bool>(10)),
                 ns::util::invalid_argument);
}

// -------------------------------------------------------- sensitivity --

TEST(sensitivity, anchor_point_sf9_500khz) {
    const css_params p = deployed_params();
    EXPECT_NEAR(sensitivity_dbm(p), -123.5, 0.6);
}

TEST(sensitivity, improves_with_sf_and_narrower_bw) {
    const css_params sf9{.bandwidth_hz = 500e3, .spreading_factor = 9};
    const css_params sf10{.bandwidth_hz = 500e3, .spreading_factor = 10};
    EXPECT_LT(sensitivity_dbm(sf10), sensitivity_dbm(sf9));
    const css_params narrow{.bandwidth_hz = 125e3, .spreading_factor = 9};
    EXPECT_LT(sensitivity_dbm(narrow), sensitivity_dbm(sf9));
}

TEST(sensitivity, snr_min_range_check) {
    EXPECT_NEAR(snr_min_db(9), -12.5, 1e-12);
    EXPECT_NEAR(snr_min_db(7), -7.5, 1e-12);
    EXPECT_THROW(snr_min_db(4), ns::util::invalid_argument);
    EXPECT_THROW(snr_min_db(13), ns::util::invalid_argument);
}

TEST(sensitivity, rate_table_sorted_and_capped) {
    const auto table = rate_adaptation_table();
    ASSERT_FALSE(table.empty());
    for (std::size_t i = 1; i < table.size(); ++i) {
        EXPECT_GE(table[i - 1].bitrate_bps, table[i].bitrate_bps);
    }
    for (const auto& option : table) {
        EXPECT_LE(option.bitrate_bps, max_lora_bitrate_bps);
    }
}

TEST(sensitivity, best_bitrate_monotone_in_rssi) {
    double previous = 0.0;
    for (double rssi = -135.0; rssi <= -60.0; rssi += 5.0) {
        const double bitrate = best_bitrate_bps(rssi);
        EXPECT_GE(bitrate, previous) << "rssi " << rssi;
        previous = bitrate;
    }
    // Strong devices reach the paper's 32 kbps cap; dead links get zero.
    EXPECT_DOUBLE_EQ(best_bitrate_bps(-60.0), max_lora_bitrate_bps);
    EXPECT_DOUBLE_EQ(best_bitrate_bps(-150.0), 0.0);
}


TEST(sensitivity, concurrent_config_analysis_matches_paper) {
    // §2.2: 19 distinct chirp slopes across the LoRa BW family and SF
    // 6..12; only 8 classes survive the -123 dBm / 1 kbps constraints.
    const auto analysis = analyze_concurrent_configs();
    EXPECT_EQ(analysis.distinct_slope_classes, 19u);
    EXPECT_EQ(analysis.usable_classes, 8u);
    ASSERT_EQ(analysis.usable_representatives.size(), 8u);
    // Every representative meets the constraints and the deployed
    // (500 kHz, SF 9) configuration is among them.
    bool deployed_found = false;
    for (const auto& p : analysis.usable_representatives) {
        EXPECT_LE(sensitivity_dbm(p), -123.0);
        EXPECT_GE(p.lora_bitrate_bps(), 1000.0);
        if (p.bandwidth_hz == 500e3 && p.spreading_factor == 9) deployed_found = true;
    }
    EXPECT_TRUE(deployed_found);
}

TEST(sensitivity, concurrent_representatives_have_distinct_slopes) {
    const auto analysis = analyze_concurrent_configs();
    std::vector<double> slopes;
    for (const auto& p : analysis.usable_representatives) {
        slopes.push_back(p.chirp_slope_hz_per_s());
    }
    std::sort(slopes.begin(), slopes.end());
    EXPECT_EQ(std::adjacent_find(slopes.begin(), slopes.end()), slopes.end());
}

TEST(sensitivity, relaxed_constraints_admit_more_classes) {
    const auto strict = analyze_concurrent_configs(-123.0, 1000.0);
    const auto relaxed = analyze_concurrent_configs(-110.0, 100.0);
    EXPECT_GT(relaxed.usable_classes, strict.usable_classes);
    EXPECT_EQ(relaxed.distinct_slope_classes, strict.distinct_slope_classes);
}

}  // namespace
