// Property-based tests (parameterized gtest sweeps) on the library's
// core invariants: chirp orthogonality across configurations, decoding
// under randomized impairments, CRC error detection, allocator safety,
// BER monotonicity, FFT correctness across sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <tuple>

#include "netscatter/channel/awgn.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/dsp/fft.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/mac/allocator.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/demodulator.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/rx/receiver.hpp"
#include "netscatter/util/crc.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using ns::dsp::cplx;
using ns::dsp::cvec;

// ----------------------------------------- FFT across transform sizes --

class fft_sizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(fft_sizes, roundtrip_and_parseval) {
    const std::size_t n = GetParam();
    ns::util::rng gen(n);
    cvec signal(n);
    for (auto& x : signal) x = cplx{gen.gaussian(), gen.gaussian()};
    const cvec spectrum = ns::dsp::fft(signal);
    EXPECT_NEAR(ns::dsp::energy(spectrum) / static_cast<double>(n),
                ns::dsp::energy(signal), 1e-6 * ns::dsp::energy(signal));
    const cvec back = ns::dsp::ifft(spectrum);
    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) max_err = std::max(max_err, std::abs(back[i] - signal[i]));
    EXPECT_LT(max_err, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(sizes, fft_sizes,
                         ::testing::Values(2, 8, 64, 128, 512, 2048, 8192));

// ------------------------------- chirp orthogonality per configuration --

class chirp_configs
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(chirp_configs, distinct_shifts_stay_orthogonal) {
    const auto [bw, sf] = GetParam();
    const ns::phy::css_params p{.bandwidth_hz = bw, .spreading_factor = sf};
    const ns::phy::demodulator demod(p, 1);
    ns::util::rng gen(static_cast<std::uint64_t>(sf));
    // Sample random shift pairs; energy of shift a must not leak into b.
    for (int trial = 0; trial < 20; ++trial) {
        const auto a = static_cast<std::uint32_t>(
            gen.uniform_int(0, static_cast<std::int64_t>(p.num_bins()) - 1));
        auto b = static_cast<std::uint32_t>(
            gen.uniform_int(0, static_cast<std::int64_t>(p.num_bins()) - 1));
        if (a == b) b = (b + 1) % p.num_bins();
        const auto power = demod.symbol_power_spectrum(
            ns::phy::make_upchirp(p, static_cast<double>(a)));
        EXPECT_GT(power[a], 1e6 * power[b])
            << "bw " << bw << " sf " << sf << " shifts " << a << "," << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    configs, chirp_configs,
    ::testing::Values(std::make_tuple(500e3, 9), std::make_tuple(500e3, 8),
                      std::make_tuple(250e3, 8), std::make_tuple(250e3, 7),
                      std::make_tuple(125e3, 7), std::make_tuple(125e3, 6)));

// ----------------------- decoding under randomized residual impairments --

class impaired_decoding : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(impaired_decoding, skip2_tolerates_sub_bin_residuals) {
    // Property: with SKIP = 2 and residual (timing + CFO) displacement
    // under half a bin, every device decodes regardless of the random
    // draw. This is the §3.2.1 design invariant.
    const std::uint64_t seed = GetParam();
    ns::util::rng gen(seed);
    ns::rx::receiver_params rxp;
    rxp.phy = ns::phy::deployed_params();
    rxp.frame = ns::phy::linklayer_format();
    ns::rx::receiver rx(rxp);

    std::vector<std::uint32_t> shifts;
    for (std::uint32_t s = 0; s < 16; ++s) shifts.push_back(s * 32);
    rx.set_registered_shifts(shifts);

    std::vector<ns::channel::tx_contribution> contributions;
    std::vector<cvec> waveforms;
    std::vector<std::vector<bool>> sent;
    for (std::uint32_t shift : shifts) {
        const std::vector<bool> bits =
            ns::phy::build_frame_bits(rxp.frame, gen.bits(rxp.frame.payload_bits));
        sent.push_back(bits);
        ns::phy::distributed_modulator mod(rxp.phy, shift);
        ns::channel::tx_contribution tx;
        waveforms.push_back(mod.modulate_packet(bits));
        tx.waveform = std::span<const ns::dsp::cplx>(waveforms.back());
        tx.snr_db = 5.0;
        tx.timing_offset_s = gen.uniform(-0.8e-6, 0.8e-6);   // < 0.4 bin
        tx.frequency_offset_hz = gen.uniform(-90.0, 90.0);   // < 0.1 bin
        contributions.push_back(std::move(tx));
    }
    ns::channel::channel_config config;
    const std::size_t samples =
        (rxp.frame.preamble_symbols + rxp.frame.payload_plus_crc_bits()) *
        rxp.phy.samples_per_symbol();
    ns::channel::channel_workspace chan_ws;
    const cvec stream = ns::channel::combine(
        std::span<const ns::channel::tx_contribution>(contributions), samples,
        rxp.phy, config, gen, chan_ws);
    const auto result = rx.decode(stream, 0);
    for (std::size_t d = 0; d < shifts.size(); ++d) {
        EXPECT_TRUE(result.reports[d].crc_ok) << "seed " << seed << " device " << d;
        EXPECT_EQ(result.reports[d].bits, sent[d]) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, impaired_decoding,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------- CRC error detection --

class crc_burst_errors : public ::testing::TestWithParam<std::size_t> {};

TEST_P(crc_burst_errors, detects_all_bursts_up_to_8_bits) {
    // CRC-8 detects every burst error of length <= 8 — the classic
    // guarantee; sweep burst start positions.
    const std::size_t burst_len = GetParam();
    ns::util::rng gen(burst_len);
    const std::vector<bool> payload = gen.bits(32);
    const std::vector<bool> protected_bits = ns::util::append_crc8(payload);
    for (std::size_t start = 0; start + burst_len <= protected_bits.size(); ++start) {
        std::vector<bool> corrupted = protected_bits;
        // Invert the burst ends and randomize the middle (non-zero burst).
        corrupted[start] = !corrupted[start];
        if (burst_len > 1) {
            corrupted[start + burst_len - 1] = !corrupted[start + burst_len - 1];
        }
        for (std::size_t i = 1; i + 1 < burst_len; ++i) {
            if (gen.bernoulli(0.5)) {
                corrupted[start + i] = !corrupted[start + i];
            }
        }
        EXPECT_FALSE(ns::util::check_crc8(corrupted))
            << "burst " << burst_len << " at " << start;
    }
}

INSTANTIATE_TEST_SUITE_P(burst_lengths, crc_burst_errors,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------------- allocator invariants --

class allocator_random_powers : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(allocator_random_powers, neighbours_within_tolerable_difference) {
    // Property: after power-aware allocation of a <=35 dB-spread
    // population, every adjacent pair's power difference stays within the
    // side-lobe tolerance of its separation.
    ns::util::rng gen(GetParam());
    ns::mac::allocation_params ap{.phy = ns::phy::deployed_params(),
                                  .skip = 2,
                                  .num_association_slots = 0};
    const ns::mac::shift_allocator alloc(ap);

    const std::size_t n = 128;
    std::vector<ns::mac::device_power> devices;
    for (std::uint32_t i = 0; i < n; ++i) {
        devices.push_back({i, gen.uniform(-115.0, -80.0)});  // 35 dB spread
    }
    const std::vector<std::uint32_t> shifts = alloc.allocate(devices);

    // Order assigned shifts and check adjacent (circular) pairs.
    std::vector<std::pair<std::uint32_t, double>> placed;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        placed.emplace_back(shifts[i], devices[i].rx_power_dbm);
    }
    std::sort(placed.begin(), placed.end());
    for (std::size_t i = 0; i < placed.size(); ++i) {
        const auto& [shift_a, power_a] = placed[i];
        const auto& [shift_b, power_b] = placed[(i + 1) % placed.size()];
        const std::uint32_t separation = alloc.circular_distance(shift_a, shift_b);
        const double difference = std::abs(power_a - power_b);
        EXPECT_LE(difference,
                  ns::mac::tolerable_power_difference_db(ap.phy, separation) + 1e-9)
            << "pair at shifts " << shift_a << "," << shift_b;
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, allocator_random_powers,
                         ::testing::Values(11, 22, 33, 44, 55));

// ----------------------------------------------- BER monotone in SNR --

TEST(properties, single_device_ber_monotone_in_snr) {
    // Higher SNR must never yield (significantly) more bit errors.
    ns::rx::receiver_params rxp;
    rxp.phy = ns::phy::deployed_params();
    rxp.frame = ns::phy::linklayer_format();
    ns::rx::receiver rx(rxp);
    rx.set_registered_shifts({100});
    ns::util::rng gen(17);

    std::vector<double> bers;
    for (double snr : {-22.0, -18.0, -14.0, -10.0}) {
        std::size_t errors = 0, bits = 0;
        for (int trial = 0; trial < 6; ++trial) {
            const std::vector<bool> frame_bits =
                ns::phy::build_frame_bits(rxp.frame, gen.bits(rxp.frame.payload_bits));
            ns::phy::distributed_modulator mod(rxp.phy, 100);
            ns::channel::tx_contribution tx;
            const cvec waveform = mod.modulate_packet(frame_bits);
            tx.waveform = std::span<const ns::dsp::cplx>(waveform);
            tx.snr_db = snr;
            ns::channel::channel_config config;
            const std::size_t samples = tx.waveform.size();
            ns::channel::channel_workspace chan_ws;
            const cvec stream = ns::channel::combine(
                std::span<const ns::channel::tx_contribution>(&tx, 1), samples,
                rxp.phy, config, gen, chan_ws);
            const auto result = rx.decode(stream, 0);
            bits += frame_bits.size();
            if (result.reports[0].detected) {
                for (std::size_t i = 0; i < frame_bits.size(); ++i) {
                    if (result.reports[0].bits[i] != frame_bits[i]) ++errors;
                }
            } else {
                for (bool b : frame_bits) errors += b ? 1 : 0;
            }
        }
        bers.push_back(static_cast<double>(errors) / static_cast<double>(bits));
    }
    for (std::size_t i = 1; i < bers.size(); ++i) {
        EXPECT_LE(bers[i], bers[i - 1] + 0.02) << "step " << i;
    }
    EXPECT_LT(bers.back(), 0.01);  // -10 dB is comfortably decodable
}

// -------------------------------- processing gain matches 2^SF theory --

class processing_gain : public ::testing::TestWithParam<int> {};

TEST_P(processing_gain, peak_to_noise_scales_with_sf) {
    // After dechirp+FFT the peak-power-to-mean-noise-bin ratio is
    // N * snr_linear; verify within statistical tolerance.
    const int sf = GetParam();
    const ns::phy::css_params p{.bandwidth_hz = 500e3, .spreading_factor = sf};
    const ns::phy::demodulator demod(p, 1);
    ns::util::rng gen(static_cast<std::uint64_t>(100 + sf));
    const double snr_db = -5.0;
    const double expected_ratio =
        static_cast<double>(p.num_bins()) * std::pow(10.0, snr_db / 10.0);

    double ratio_sum = 0.0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
        cvec symbol = ns::phy::make_upchirp(p, 50.0);
        ns::channel::add_noise_for_unit_signal_snr(symbol, snr_db, gen);
        const auto power = demod.symbol_power_spectrum(symbol);
        double noise_sum = 0.0;
        std::size_t noise_bins = 0;
        for (std::size_t b = 0; b < power.size(); ++b) {
            if (b != 50) {
                noise_sum += power[b];
                ++noise_bins;
            }
        }
        ratio_sum += power[50] / (noise_sum / static_cast<double>(noise_bins));
    }
    const double measured = ratio_sum / trials;
    EXPECT_NEAR(measured / expected_ratio, 1.0, 0.45) << "sf " << sf;
}

INSTANTIATE_TEST_SUITE_P(sfs, processing_gain, ::testing::Values(7, 8, 9, 10));

// --------------------------------------- padded demod degrades nothing --

class padded_lora_demod : public ::testing::TestWithParam<std::size_t> {};

TEST_P(padded_lora_demod, all_padding_factors_decode_cleanly) {
    const std::size_t padding = GetParam();
    const ns::phy::css_params p{.bandwidth_hz = 250e3, .spreading_factor = 7};
    const ns::phy::lora_modulator mod(p);
    const ns::phy::demodulator demod(p, padding);
    ns::util::rng gen(padding);
    for (int t = 0; t < 32; ++t) {
        const auto value = static_cast<std::uint32_t>(gen.uniform_int(0, 127));
        EXPECT_EQ(demod.demodulate_lora_symbol(mod.modulate_symbol(value)), value);
    }
}

INSTANTIATE_TEST_SUITE_P(paddings, padded_lora_demod, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
