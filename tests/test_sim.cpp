// Unit tests for ns::sim — deployment generator, timeline models,
// network simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/sim/timeline.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/stats.hpp"

namespace {

using namespace ns::sim;

// ----------------------------------------------------------- deployment --

TEST(deployment, places_requested_devices_in_bounds) {
    const deployment dep(deployment_params{}, 64, 1);
    ASSERT_EQ(dep.devices().size(), 64u);
    for (const auto& device : dep.devices()) {
        EXPECT_GE(device.x_m, 0.0);
        EXPECT_LE(device.x_m, dep.params().floor_width_m);
        EXPECT_GE(device.y_m, 0.0);
        EXPECT_LE(device.y_m, dep.params().floor_depth_m);
    }
}

TEST(deployment, respects_min_distance) {
    const deployment dep(deployment_params{}, 128, 2);
    for (const auto& device : dep.devices()) {
        const double d = std::hypot(device.x_m - dep.ap_x_m(), device.y_m - dep.ap_y_m());
        EXPECT_GE(d, dep.params().min_distance_m - 1e-9);
    }
}

TEST(deployment, deterministic_per_seed) {
    const deployment a(deployment_params{}, 16, 7);
    const deployment b(deployment_params{}, 16, 7);
    const deployment c(deployment_params{}, 16, 8);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_DOUBLE_EQ(a.devices()[i].x_m, b.devices()[i].x_m);
    }
    bool any_different = false;
    for (std::size_t i = 0; i < 16; ++i) {
        if (a.devices()[i].x_m != c.devices()[i].x_m) any_different = true;
    }
    EXPECT_TRUE(any_different);
}

TEST(deployment, wall_count_geometry) {
    const deployment dep(deployment_params{}, 1, 1);
    // Device in the same room as the AP: zero walls.
    EXPECT_EQ(dep.walls_between(dep.ap_x_m() + 0.5, dep.ap_y_m() + 0.5), 0);
    // A corner device crosses vertical and horizontal interior walls.
    EXPECT_GE(dep.walls_between(0.5, 0.5), 2);
}

TEST(deployment, link_budget_consistency) {
    const deployment dep(deployment_params{}, 64, 3);
    const double floor_dbm = dep.noise_floor_dbm(500e3);
    EXPECT_NEAR(floor_dbm, -111.0, 0.1);
    for (const auto& device : dep.devices()) {
        EXPECT_NEAR(device.query_rssi_dbm,
                    dep.params().ap_tx_dbm - device.oneway_loss_db, 1e-9);
        EXPECT_NEAR(device.uplink_rx_dbm,
                    dep.params().ap_tx_dbm - 2.0 * device.oneway_loss_db -
                        dep.params().conversion_loss_db,
                    1e-9);
    }
}

TEST(deployment, near_far_spread_is_tens_of_db) {
    const deployment dep(deployment_params{}, 256, 4);
    const double floor_dbm = dep.noise_floor_dbm(500e3);
    double min_snr = 1e9, max_snr = -1e9;
    for (const auto& device : dep.devices()) {
        min_snr = std::min(min_snr, device.uplink_rx_dbm - floor_dbm);
        max_snr = std::max(max_snr, device.uplink_rx_dbm - floor_dbm);
    }
    const double spread = max_snr - min_snr;
    EXPECT_GT(spread, 20.0);
    EXPECT_LT(spread, 60.0);
}

// -------------------------------------------------------------- timeline --

TEST(timeline, query_bits_per_config) {
    EXPECT_EQ(query_bits(query_config::config1), 32u);
    EXPECT_EQ(query_bits(query_config::config2), 1760u);
}

TEST(timeline, round_components) {
    const auto frame = ns::phy::linklayer_format();
    const auto params = ns::phy::deployed_params();
    const round_timing t1 = netscatter_round(frame, params, query_config::config1);
    EXPECT_NEAR(t1.query_time_s, 32.0 / 160e3, 1e-12);       // 0.2 ms
    EXPECT_NEAR(t1.preamble_time_s, 8.0 * 1.024e-3, 1e-9);   // 8.2 ms
    EXPECT_NEAR(t1.payload_time_s, 40.0 * 1.024e-3, 1e-9);   // 41 ms
    const round_timing t2 = netscatter_round(frame, params, query_config::config2);
    EXPECT_NEAR(t2.query_time_s, 11e-3, 0.1e-3);             // §3.3.3: ~11 ms
    EXPECT_GT(t2.total_time_s, t1.total_time_s);
    // Even for config 2 the payload dominates (§4.4 observation).
    EXPECT_GT(t2.payload_time_s + t2.preamble_time_s, t2.query_time_s);
}

TEST(timeline, phy_rate_is_per_device_bitrate_times_delivered) {
    const auto frame = ns::phy::phy_format();
    const auto params = ns::phy::deployed_params();
    const auto metrics =
        netscatter_metrics(frame, params, query_config::config1, 256, 256);
    // 256 devices x 976.5625 bps = 250 kbps: the Fig. 17 ideal endpoint.
    EXPECT_NEAR(metrics.phy_rate_bps, 250e3, 100.0);
}

TEST(timeline, ideal_equals_full_delivery) {
    const auto frame = ns::phy::linklayer_format();
    const auto params = ns::phy::deployed_params();
    const auto ideal =
        netscatter_ideal_metrics(frame, params, query_config::config1, 128);
    const auto full = netscatter_metrics(frame, params, query_config::config1, 128, 128);
    EXPECT_DOUBLE_EQ(ideal.phy_rate_bps, full.phy_rate_bps);
    EXPECT_DOUBLE_EQ(ideal.linklayer_rate_bps, full.linklayer_rate_bps);
}

TEST(timeline, latency_independent_of_population) {
    // The whole point of concurrency: one round serves all devices.
    const auto frame = ns::phy::linklayer_format();
    const auto params = ns::phy::deployed_params();
    const auto m16 = netscatter_metrics(frame, params, query_config::config1, 16, 16);
    const auto m256 = netscatter_metrics(frame, params, query_config::config1, 256, 256);
    EXPECT_DOUBLE_EQ(m16.latency_s, m256.latency_s);
}

// --------------------------------------------------------- network sim --

sim_config fast_sim(std::size_t rounds = 3) {
    sim_config config;
    config.rounds = rounds;
    config.seed = 99;
    return config;
}

TEST(sim_config, validate_accepts_defaults_and_rejects_garbage) {
    EXPECT_NO_THROW(sim_config{}.validate());

    sim_config bad_rounds;
    bad_rounds.rounds = 0;
    EXPECT_THROW(bad_rounds.validate(), ns::util::invalid_argument);

    sim_config bad_skip;
    bad_skip.skip = 0;
    EXPECT_THROW(bad_skip.validate(), ns::util::invalid_argument);

    sim_config huge_skip;
    huge_skip.skip = static_cast<std::uint32_t>(huge_skip.phy.num_bins());
    EXPECT_THROW(huge_skip.validate(), ns::util::invalid_argument);

    sim_config bad_detection;
    bad_detection.detection_factor = 0.0;
    EXPECT_THROW(bad_detection.validate(), ns::util::invalid_argument);

    sim_config bad_padding;
    bad_padding.zero_padding = 0;
    EXPECT_THROW(bad_padding.validate(), ns::util::invalid_argument);

    sim_config bad_rho;
    bad_rho.fading_rho = 1.0;
    EXPECT_THROW(bad_rho.validate(), ns::util::invalid_argument);

    // The simulator validates on construction, so a bad config fails
    // loudly instead of producing garbage results.
    const deployment dep(deployment_params{}, 4, 1);
    sim_config bad;
    bad.rounds = 0;
    EXPECT_THROW(network_simulator(dep, bad), ns::util::invalid_argument);
}

TEST(network_sim, small_network_delivers_everything) {
    const deployment dep(deployment_params{}, 8, 5);
    network_simulator sim(dep, fast_sim());
    const sim_result result = sim.run();
    EXPECT_EQ(result.rounds.size(), 3u);
    EXPECT_GT(result.total_transmitting, 0u);
    EXPECT_GE(result.delivery_rate(), 0.99);
}

TEST(network_sim, allocation_covers_all_devices_distinctly) {
    const deployment dep(deployment_params{}, 32, 6);
    network_simulator sim(dep, fast_sim());
    std::vector<std::uint32_t> shifts = sim.ap().active_shifts();
    EXPECT_EQ(shifts.size(), 32u);
    std::sort(shifts.begin(), shifts.end());
    EXPECT_EQ(std::adjacent_find(shifts.begin(), shifts.end()), shifts.end());
}

TEST(network_sim, association_snrs_reflect_gain_choice) {
    const deployment dep(deployment_params{}, 16, 7);
    network_simulator sim(dep, fast_sim());
    // Association SNR = uplink SNR + chosen gain; gains are <= 0 dB, so
    // every association SNR is bounded by the raw uplink SNR.
    const std::vector<double> snrs = sim.association_snrs_db();
    ASSERT_EQ(snrs.size(), 16u);
    const double floor_dbm = dep.noise_floor_dbm(500e3);
    for (std::size_t i = 0; i < snrs.size(); ++i) {
        const double uplink_snr_db = dep.devices()[i].uplink_rx_dbm - floor_dbm;
        EXPECT_LE(snrs[i], uplink_snr_db + 1e-9);
        EXPECT_GE(snrs[i], uplink_snr_db - 10.0 - 1e-9);
    }
}

TEST(network_sim, deterministic_for_same_seed) {
    const deployment dep(deployment_params{}, 8, 8);
    network_simulator a(dep, fast_sim());
    network_simulator b(dep, fast_sim());
    const sim_result ra = a.run();
    const sim_result rb = b.run();
    EXPECT_EQ(ra.total_delivered, rb.total_delivered);
    EXPECT_EQ(ra.total_bit_errors, rb.total_bit_errors);
}

TEST(network_sim, jitter_ablation_does_not_hurt) {
    // Turning hardware timing jitter OFF can only help (or tie) at SKIP=2.
    const deployment dep(deployment_params{}, 48, 9);
    sim_config with_jitter = fast_sim(4);
    sim_config without_jitter = with_jitter;
    without_jitter.model_timing_jitter = false;
    const sim_result rj = network_simulator(dep, with_jitter).run();
    const sim_result rn = network_simulator(dep, without_jitter).run();
    EXPECT_GE(rn.total_delivered + 2, rj.total_delivered);
}

TEST(network_sim, result_accessors_consistent) {
    const deployment dep(deployment_params{}, 8, 10);
    network_simulator sim(dep, fast_sim());
    const sim_result result = sim.run();
    std::size_t delivered = 0, transmitting = 0;
    for (const auto& round : result.rounds) {
        delivered += round.delivered;
        transmitting += round.transmitting;
    }
    EXPECT_EQ(delivered, result.total_delivered);
    EXPECT_EQ(transmitting, result.total_transmitting);
    EXPECT_LE(result.total_delivered, result.total_detected);
    EXPECT_GE(result.mean_delivered_per_round(), 0.0);
}

/// Threads of this process, one /proc/self/task entry each (Linux).
std::size_t process_threads() {
    std::size_t threads = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        ++threads;
    }
    return threads;
}

TEST(network_sim, round_threads_start_workers_only_at_symbol_fidelity) {
#if !defined(__linux__)
    GTEST_SKIP() << "counts threads through /proc/self/task";
#endif
    // Only the symbol-domain combine fans out across round threads; a
    // sample-fidelity simulator must not park idle workers.
    const deployment dep(deployment_params{}, 8, 11);
    sim_config config = fast_sim();
    config.intra_round_threads = 4;
    const std::size_t before = process_threads();
    config.fidelity = phy_fidelity::sample;
    {
        const network_simulator sim(dep, config);
        EXPECT_EQ(process_threads(), before);
    }
    config.fidelity = phy_fidelity::symbol;
    {
        const network_simulator sim(dep, config);
        EXPECT_EQ(process_threads(), before + 3);
    }
}

TEST(network_sim, empty_result_rates_are_zero) {
    sim_result empty;
    EXPECT_DOUBLE_EQ(empty.delivery_rate(), 0.0);
    EXPECT_DOUBLE_EQ(empty.ber(), 0.0);
}

}  // namespace
