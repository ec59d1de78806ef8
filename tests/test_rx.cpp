// Unit tests for ns::rx — the NetScatter receiver: concurrent decoding
// at the AP-triggered packet start, thresholding, CRC.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>

#include "netscatter/channel/awgn.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/phy/frame.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/rx/receiver.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using namespace ns::rx;
using ns::dsp::cplx;
using ns::dsp::cvec;

receiver_params default_rx() {
    receiver_params params;
    params.phy = ns::phy::deployed_params();
    params.frame = ns::phy::linklayer_format();
    return params;
}

// Builds the superposed stream of several devices with per-device SNRs
// and random payloads; returns the stream and the sent frame bits.
struct concurrent_setup {
    cvec stream;
    std::vector<std::uint32_t> shifts;
    std::vector<std::vector<bool>> frame_bits;
};

concurrent_setup make_concurrent(const receiver_params& rxp,
                                 const std::vector<std::uint32_t>& shifts,
                                 const std::vector<double>& snrs_db,
                                 ns::util::rng& gen, std::size_t lead_in = 0) {
    concurrent_setup setup;
    setup.shifts = shifts;
    const std::size_t packet_samples =
        (rxp.frame.preamble_symbols + rxp.frame.payload_plus_crc_bits()) *
        rxp.phy.samples_per_symbol();
    std::vector<ns::channel::tx_contribution> contributions;
    std::vector<ns::dsp::cvec> waveforms;
    for (std::size_t d = 0; d < shifts.size(); ++d) {
        const std::vector<bool> payload = gen.bits(rxp.frame.payload_bits);
        const std::vector<bool> bits = ns::phy::build_frame_bits(rxp.frame, payload);
        setup.frame_bits.push_back(bits);
        ns::phy::distributed_modulator mod(rxp.phy, shifts[d]);
        ns::channel::tx_contribution tx;
        waveforms.push_back(mod.modulate_packet(bits));
        tx.waveform = std::span<const ns::dsp::cplx>(waveforms.back());
        tx.snr_db = snrs_db[d];
        tx.sample_delay = lead_in;
        contributions.push_back(std::move(tx));
    }
    ns::channel::channel_config config;
    ns::channel::channel_workspace chan_ws;
    setup.stream = ns::channel::combine(
        std::span<const ns::channel::tx_contribution>(contributions),
        packet_samples + lead_in + rxp.phy.samples_per_symbol(), rxp.phy, config,
        gen, chan_ws);
    return setup;
}

TEST(receiver, single_device_clean_decode) {
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({100});
    ns::util::rng gen(1);
    const auto setup = make_concurrent(rxp, {100}, {10.0}, gen);
    const decode_result result = rx.decode(setup.stream, 0);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_TRUE(result.reports[0].detected);
    EXPECT_TRUE(result.reports[0].crc_ok);
    EXPECT_EQ(result.reports[0].bits, setup.frame_bits[0]);
}

TEST(receiver, decodes_below_noise_floor) {
    // -12 dB per-sample SNR: below the noise floor, inside the SF 9
    // sensitivity budget (SNR_min = -12.5 dB).
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({40});
    ns::util::rng gen(2);
    int delivered = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto setup = make_concurrent(rxp, {40}, {-12.0}, gen);
        const decode_result result = rx.decode(setup.stream, 0);
        if (result.reports[0].crc_ok && result.reports[0].bits == setup.frame_bits[0]) {
            ++delivered;
        }
    }
    EXPECT_GE(delivered, 8);
}

TEST(receiver, eight_concurrent_devices) {
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    std::vector<std::uint32_t> shifts = {0, 64, 128, 192, 256, 320, 384, 448};
    rx.set_registered_shifts(shifts);
    ns::util::rng gen(3);
    const std::vector<double> snrs(8, 0.0);
    const auto setup = make_concurrent(rxp, shifts, snrs, gen);
    const decode_result result = rx.decode(setup.stream, 0);
    for (std::size_t d = 0; d < 8; ++d) {
        EXPECT_TRUE(result.reports[d].detected) << d;
        EXPECT_TRUE(result.reports[d].crc_ok) << d;
        EXPECT_EQ(result.reports[d].bits, setup.frame_bits[d]) << d;
    }
}

TEST(receiver, absent_device_not_detected) {
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({100, 300});  // 300 never transmits
    ns::util::rng gen(4);
    const auto setup = make_concurrent(rxp, {100}, {10.0}, gen);
    const decode_result result = rx.decode(setup.stream, 0);
    EXPECT_TRUE(result.reports[0].detected);
    EXPECT_FALSE(result.reports[1].detected);
    EXPECT_FALSE(result.reports[1].crc_ok);
}

TEST(receiver, pure_noise_detects_nothing) {
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({10, 100, 200});
    ns::util::rng gen(5);
    const std::size_t samples =
        (rxp.frame.preamble_symbols + rxp.frame.payload_plus_crc_bits()) *
        rxp.phy.samples_per_symbol();
    const cvec noise = ns::channel::make_noise(samples, 1.0, gen);
    const decode_result result = rx.decode(noise, 0);
    for (const auto& report : result.reports) {
        EXPECT_FALSE(report.detected);
    }
}

TEST(receiver, near_far_within_tolerance) {
    // Two devices separated by half the band tolerate ~35 dB (Fig. 15b).
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({2, 258});
    ns::util::rng gen(6);
    int weak_ok = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto setup = make_concurrent(rxp, {2, 258}, {25.0, -8.0}, gen);
        const decode_result result = rx.decode(setup.stream, 0);
        EXPECT_TRUE(result.reports[0].crc_ok);  // the strong one always works
        if (result.reports[1].crc_ok && result.reports[1].bits == setup.frame_bits[1]) {
            ++weak_ok;
        }
    }
    EXPECT_GE(weak_ok, 8);
}

TEST(receiver, decode_at_known_lead_in) {
    // The AP knows where its query triggered the round, so decoding at a
    // non-zero start must recover a packet that begins 450 samples in.
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({64, 320});
    ns::util::rng gen(8);
    const auto setup = make_concurrent(rxp, {64, 320}, {8.0, 8.0}, gen, 450);
    const decode_result result = rx.decode(setup.stream, 450);
    ASSERT_EQ(result.reports.size(), 2u);
    for (std::size_t d = 0; d < 2; ++d) {
        EXPECT_TRUE(result.reports[d].crc_ok) << d;
        EXPECT_EQ(result.reports[d].bits, setup.frame_bits[d]) << d;
    }
}

TEST(receiver, decode_requires_full_packet) {
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({100});
    EXPECT_THROW(rx.decode(cvec(100), 0), ns::util::invalid_argument);
}

TEST(receiver, rejects_out_of_range_shift) {
    receiver rx(default_rx());
    EXPECT_THROW(rx.set_registered_shifts({512}), ns::util::invalid_argument);
}

TEST(receiver, payload_zero_and_one_runs) {
    // All-ones and all-zeros payloads stress the ON-OFF threshold: the
    // preamble power estimate must hold even when the payload is silent.
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({128});
    ns::util::rng gen(10);
    for (const bool value : {false, true}) {
        const std::vector<bool> payload(rxp.frame.payload_bits, value);
        const std::vector<bool> bits = ns::phy::build_frame_bits(rxp.frame, payload);
        ns::phy::distributed_modulator mod(rxp.phy, 128);
        ns::channel::tx_contribution tx;
        const ns::dsp::cvec waveform = mod.modulate_packet(bits);
        tx.waveform = std::span<const ns::dsp::cplx>(waveform);
        tx.snr_db = 5.0;
        ns::channel::channel_config config;
        ns::channel::channel_workspace chan_ws;
        const cvec stream = ns::channel::combine(
            std::span<const ns::channel::tx_contribution>(&tx, 1),
            tx.waveform.size(), rxp.phy, config, gen, chan_ws);
        const decode_result result = rx.decode(stream, 0);
        EXPECT_TRUE(result.reports[0].crc_ok) << "payload value " << value;
    }
}

TEST(receiver, frames_across_64_symbol_words_decode_exactly) {
    // Slicing gathers 64 decisions per word: frames one short of, at and
    // past a word, and several words long, with random payloads.
    for (const std::size_t symbols : {63u, 64u, 65u, 128u, 200u}) {
        receiver_params rxp = default_rx();
        rxp.frame.payload_bits = symbols - rxp.frame.crc_bits;
        receiver rx(rxp);
        const std::vector<std::uint32_t> shifts = {8, 200, 320};
        rx.set_registered_shifts(shifts);
        ns::util::rng gen(symbols);
        const auto setup = make_concurrent(rxp, shifts, {8.0, 8.0, 8.0}, gen);
        const decode_result result = rx.decode(setup.stream, 0);
        for (std::size_t d = 0; d < shifts.size(); ++d) {
            EXPECT_TRUE(result.reports[d].crc_ok) << symbols << " symbols, device " << d;
            EXPECT_EQ(result.reports[d].bits, setup.frame_bits[d])
                << symbols << " symbols, device " << d;
        }
    }
}

TEST(receiver, timing_jitter_within_skip_tolerated) {
    // A residual offset of 0.8 bins stays within the SKIP = 2 guard and
    // must not break decoding (the preamble search, peak_in_window, spans
    // guard_search_radius() padded bins each side, short of the slot
    // midpoint, and the neighbouring slot is empty).
    const receiver_params rxp = default_rx();
    receiver rx(rxp);
    rx.set_registered_shifts({100, 102});
    ns::util::rng gen(11);
    ns::phy::distributed_modulator mod_a(rxp.phy, 100);
    ns::phy::distributed_modulator mod_b(rxp.phy, 102);
    const std::vector<bool> payload_a = gen.bits(rxp.frame.payload_bits);
    const std::vector<bool> payload_b = gen.bits(rxp.frame.payload_bits);
    const auto bits_a = ns::phy::build_frame_bits(rxp.frame, payload_a);
    const auto bits_b = ns::phy::build_frame_bits(rxp.frame, payload_b);

    ns::channel::tx_contribution a, b;
    const ns::dsp::cvec wave_a = mod_a.modulate_packet(bits_a);
    const ns::dsp::cvec wave_b = mod_b.modulate_packet(bits_b);
    a.waveform = std::span<const ns::dsp::cplx>(wave_a);
    a.snr_db = 5.0;
    a.timing_offset_s = 0.8e-6;  // 0.4 bins
    b.waveform = std::span<const ns::dsp::cplx>(wave_b);
    b.snr_db = 5.0;
    b.timing_offset_s = -0.8e-6;
    ns::channel::channel_config config;
    const std::array<ns::channel::tx_contribution, 2> txs{a, b};
    ns::channel::channel_workspace chan_ws;
    const cvec stream =
        ns::channel::combine(std::span<const ns::channel::tx_contribution>(txs),
                             a.waveform.size(), rxp.phy, config, gen, chan_ws);
    const decode_result result = rx.decode(stream, 0);
    EXPECT_TRUE(result.reports[0].crc_ok);
    EXPECT_TRUE(result.reports[1].crc_ok);
    EXPECT_EQ(result.reports[0].bits, bits_a);
    EXPECT_EQ(result.reports[1].bits, bits_b);
}

}  // namespace
