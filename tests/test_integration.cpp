// Integration tests — cross-module behaviour: the full protocol loop
// (AP <-> devices <-> channel <-> receiver), the headline paper numbers,
// and the bandwidth-aggregation mode.
#include <gtest/gtest.h>

#include <cmath>

#include "netscatter/baseline/lora_link.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/mac/ap.hpp"
#include "netscatter/phy/aggregation.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/rx/receiver.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/sim/timeline.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using ns::dsp::cvec;

// ---------------------------------------------- protocol walkthrough --

TEST(integration, association_handshake_end_to_end) {
    // Fig. 10: device 2 joins while device 1 keeps transmitting.
    ns::mac::allocation_params alloc{
        .phy = ns::phy::deployed_params(), .skip = 2, .num_association_slots = 2};
    ns::mac::vector_device_table table(3);
    ns::mac::access_point ap(alloc, std::nullopt, table, table.powers.size());

    ns::device::device_params dev_params;
    dev_params.detector.rssi_noise_sigma_db = 0.0;
    dev_params.detector.rssi_step_db = 0.0;
    ns::device::backscatter_device device2(dev_params, 7);

    // Round 1: device 2 hears a query and requests association.
    auto intent = device2.handle_query(-30.0, std::nullopt);
    ASSERT_EQ(intent.action, ns::device::device_action::association_request);
    EXPECT_EQ(intent.association_region, ns::device::snr_region::high);

    // AP decodes the request (simulation carries the id) and assigns.
    table.powers.at(2) = -95.0;
    const auto response = ap.handle_association_request(
        {.device_id = 2, .region = intent.association_region});
    ASSERT_TRUE(response.has_value());

    // Round 2: the query carries the assignment; device 2 ACKs.
    const ns::mac::query_message query = ap.build_query();
    ASSERT_TRUE(query.response.has_value());
    intent = device2.handle_query(
        -30.0, ns::device::shift_assignment{
                   .network_id = query.response->network_id,
                   .cyclic_shift = static_cast<std::uint32_t>(
                       query.response->shift_slot * alloc.skip)});
    ASSERT_EQ(intent.action, ns::device::device_action::association_ack);
    ap.handle_association_ack(2);

    // Round 3: device 2 now sends data on its assigned shift.
    intent = device2.handle_query(-30.0, std::nullopt);
    EXPECT_EQ(intent.action, ns::device::device_action::transmit_data);
    EXPECT_EQ(intent.cyclic_shift, response->shift_slot * alloc.skip);
    EXPECT_TRUE(ap.acked(2));
    EXPECT_EQ(table.shift(2), intent.cyclic_shift);
}

TEST(integration, query_serialization_survives_channel_of_bits) {
    // The query's serialized bits parse back identically — devices and AP
    // agree on the wire format.
    ns::mac::query_message query;
    query.group_id = 0;
    query.response = ns::mac::association_response{.network_id = 9, .shift_slot = 31};
    const auto parsed = ns::mac::parse_query(ns::mac::serialize(query));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->response->shift_slot, 31);
}

// ----------------------------------------------- headline paper gains --

TEST(integration, fig18_linklayer_gains_in_paper_range) {
    // §4.4: NetScatter link-layer gain over LoRa backscatter without rate
    // adaptation is 61.9x (config 1) and 50.9x (config 2) at 256 devices.
    const auto frame = ns::phy::linklayer_format();
    const auto params = ns::phy::deployed_params();
    const auto lora = ns::baseline::fixed_rate_network(frame, 256);

    const auto ns1 = ns::sim::netscatter_ideal_metrics(
        frame, params, ns::sim::query_config::config1, 256);
    const auto ns2 = ns::sim::netscatter_ideal_metrics(
        frame, params, ns::sim::query_config::config2, 256);

    const double gain1 = ns1.linklayer_rate_bps / lora.linklayer_rate_bps;
    const double gain2 = ns2.linklayer_rate_bps / lora.linklayer_rate_bps;
    EXPECT_NEAR(gain1, 61.9, 12.0);
    EXPECT_NEAR(gain2, 50.9, 10.0);
    EXPECT_GT(gain1, gain2);  // config 2 pays the 1760-bit query
}

TEST(integration, fig19_latency_reductions_in_paper_range) {
    // §4.4: latency reductions of 67.0x / 55.1x over LoRa backscatter
    // without rate adaptation.
    const auto frame = ns::phy::linklayer_format();
    const auto params = ns::phy::deployed_params();
    const auto lora = ns::baseline::fixed_rate_network(frame, 256);
    const auto ns1 = ns::sim::netscatter_ideal_metrics(
        frame, params, ns::sim::query_config::config1, 256);
    const auto ns2 = ns::sim::netscatter_ideal_metrics(
        frame, params, ns::sim::query_config::config2, 256);
    EXPECT_NEAR(lora.latency_s / ns1.latency_s, 67.0, 13.0);
    EXPECT_NEAR(lora.latency_s / ns2.latency_s, 55.1, 11.0);
}

TEST(integration, fig17_phy_rate_gain_over_fixed_lora) {
    // §4.4: 26.2x PHY-rate gain over LoRa backscatter without rate
    // adaptation at 256 devices (250 kbps vs ~9.5 kbps).
    const auto frame = ns::phy::phy_format();
    const auto params = ns::phy::deployed_params();
    const auto netscatter = ns::sim::netscatter_ideal_metrics(
        frame, params, ns::sim::query_config::config1, 256);
    const auto lora = ns::baseline::fixed_rate_network(frame, 256);
    EXPECT_NEAR(netscatter.phy_rate_bps / lora.phy_rate_bps, 26.2, 5.0);
}

TEST(integration, throughput_gain_formula_2sf_over_sf) {
    // §3.1: aggregate throughput gain over LoRa is 2^SF / SF.
    const auto params = ns::phy::deployed_params();
    const double aggregate_netscatter =
        params.onoff_bitrate_bps() * static_cast<double>(params.num_bins());
    const double lora = params.lora_bitrate_bps();
    EXPECT_NEAR(aggregate_netscatter / lora, 512.0 / 9.0, 1e-6);
    // And the aggregate equals the chirp bandwidth (§3.1).
    EXPECT_NEAR(aggregate_netscatter, params.bandwidth_hz, 1e-6);
}

// -------------------------------------------- end-to-end 64-device run --

TEST(integration, deployment_of_64_devices_delivers_over_90_percent) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 64, 11);
    ns::sim::sim_config config;
    config.rounds = 4;
    config.seed = 3;
    ns::sim::network_simulator sim(dep, config);
    const ns::sim::sim_result result = sim.run();
    EXPECT_GT(result.delivery_rate(), 0.9);
    EXPECT_LT(result.ber(), 0.02);
}

TEST(integration, power_aware_allocation_no_worse_than_agnostic) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 96, 13);
    ns::sim::sim_config aware;
    aware.rounds = 4;
    aware.seed = 5;
    ns::sim::sim_config agnostic = aware;
    agnostic.power_aware_allocation = false;
    const auto r_aware = ns::sim::network_simulator(dep, aware).run();
    const auto r_agnostic = ns::sim::network_simulator(dep, agnostic).run();
    EXPECT_GE(r_aware.total_delivered + 3, r_agnostic.total_delivered);
}

// ------------------------------------------------ bandwidth aggregation --

TEST(integration, aggregate_band_single_fft_decodes_both_bands) {
    // §3.1: one 2*2^SF FFT demodulates devices across both sub-bands.
    ns::phy::aggregate_params agg;
    agg.chirp = ns::phy::deployed_params();
    agg.num_bands = 2;

    ns::util::rng gen(14);
    const std::vector<std::pair<std::size_t, std::uint32_t>> devices = {
        {0, 10}, {0, 300}, {1, 40}, {1, 500}};

    cvec superposed(agg.samples_per_symbol(), ns::dsp::cplx{0.0, 0.0});
    for (const auto& [band, shift] : devices) {
        const cvec chirp =
            ns::phy::make_aggregate_upchirp(agg, band, static_cast<double>(shift));
        ns::dsp::accumulate(superposed, chirp);
    }
    const auto power = ns::phy::aggregate_symbol_power_spectrum(agg, superposed);
    ASSERT_EQ(power.size(), 1024u);

    // Every device's aggregate bin towers over the median.
    std::vector<double> sorted = power;
    std::nth_element(sorted.begin(), sorted.begin() + 512, sorted.end());
    const double median = sorted[512];
    for (const auto& [band, shift] : devices) {
        EXPECT_GT(power[agg.bin_of(band, shift)], 1000.0 * (median + 1e-9))
            << "band " << band << " shift " << shift;
    }
}

TEST(integration, aggregate_bands_do_not_alias_onto_each_other) {
    ns::phy::aggregate_params agg;
    agg.chirp = ns::phy::deployed_params();
    const cvec band0 = ns::phy::make_aggregate_upchirp(agg, 0, 100.0);
    const auto power = ns::phy::aggregate_symbol_power_spectrum(agg, band0);
    // The mirror bin in band 1 must be empty.
    EXPECT_GT(power[agg.bin_of(0, 100)], 1e6 * power[agg.bin_of(1, 100)]);
}

TEST(integration, aggregate_capacity_doubles) {
    ns::phy::aggregate_params agg;
    agg.chirp = ns::phy::deployed_params();
    agg.num_bands = 2;
    EXPECT_EQ(agg.total_bins(), 1024u);
    EXPECT_NEAR(agg.sample_rate_hz(), 1e6, 1e-6);
    // Per-device bitrate is unchanged: symbol duration is still 2^SF/BW.
    EXPECT_EQ(agg.samples_per_symbol(), 1024u);
}

}  // namespace
