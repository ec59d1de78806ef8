// Randomized scenario_spec fuzzer (seeded, deterministic).
//
// Generates small random-but-valid specs across the whole declarative
// surface — geometry presets, every traffic kind, both association
// modes, mobility, interference, grouping, and the control-plane fault
// processes — and checks the two load-bearing contracts on each:
// validate() accepts what the generator claims is valid, and the run is
// bit-identical serial vs 8 worker threads. The generator is a pure
// function of its seed, so a failure reproduces from the test log.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/scenario/scenario_spec.hpp"
#include "netscatter/spec/spec_codec.hpp"
#include "netscatter/util/rng.hpp"
#include "tests/outcome_digest.hpp"

namespace {

using namespace ns::scenario;

/// Uniform pick from a small enum domain.
template <typename T>
T pick(ns::util::rng& rng, std::initializer_list<T> values) {
    const auto index = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(values.size()) - 1));
    return *(values.begin() + static_cast<std::ptrdiff_t>(index));
}

/// One random valid spec, small enough that sixteen runs stay cheap.
scenario_spec random_spec(std::uint64_t seed) {
    ns::util::rng rng(seed);
    scenario_spec spec;
    spec.name = "fuzz-" + std::to_string(seed);
    spec.description = "randomized spec";

    spec.geometry.preset =
        pick(rng, {geometry_preset::office, geometry_preset::warehouse_aisle,
                   geometry_preset::open_field});
    spec.geometry.num_devices =
        static_cast<std::size_t>(rng.uniform_int(8, 32));

    spec.traffic.kind =
        pick(rng, {traffic_kind::saturated, traffic_kind::periodic,
                   traffic_kind::poisson, traffic_kind::bursty});
    spec.traffic.duty_cycle = rng.uniform(0.25, 1.0);
    spec.traffic.period_rounds = static_cast<std::size_t>(rng.uniform_int(1, 4));
    spec.traffic.arrivals_per_round = rng.uniform(0.1, 1.5);
    spec.traffic.burst_probability = rng.uniform(0.0, 0.5);
    spec.traffic.burst_length = static_cast<std::size_t>(rng.uniform_int(1, 6));

    if (rng.bernoulli(0.7)) {
        spec.churn.join_rate_per_round = rng.uniform(0.0, 2.0);
        spec.churn.leave_rate_per_round = rng.uniform(0.0, 2.0);
        spec.churn.initial_active = static_cast<std::size_t>(
            rng.uniform_int(2, static_cast<std::int64_t>(
                                   spec.geometry.num_devices)));
        spec.churn.association = pick(rng, {association_mode::bounded_queue,
                                            association_mode::slotted_aloha});
        spec.churn.aloha_initial_window =
            static_cast<std::uint32_t>(rng.uniform_int(1, 4));
        spec.churn.aloha_max_window = spec.churn.aloha_initial_window *
                                      static_cast<std::uint32_t>(
                                          rng.uniform_int(1, 16));
    }

    if (rng.bernoulli(0.4)) {
        spec.mobility.mobile_fraction = rng.uniform(0.0, 1.0);
        spec.mobility.speed_mps = rng.uniform(0.5, 3.0);
    }

    spec.interference.kind =
        pick(rng, {interference_kind::none, interference_kind::periodic_tone,
                   interference_kind::bursty_tone, interference_kind::lora_frame});
    spec.interference.snr_db = rng.uniform(5.0, 25.0);
    spec.interference.period_rounds =
        static_cast<std::size_t>(rng.uniform_int(1, 4));
    spec.interference.burst_probability = rng.uniform(0.0, 0.6);

    if (rng.bernoulli(0.4)) {
        spec.sim.grouping.enabled = true;
        spec.sim.grouping.group_capacity =
            static_cast<std::size_t>(rng.uniform_int(4, 16));
        spec.sim.grouping.policy =
            pick(rng, {ns::sim::regroup_policy::none,
                       ns::sim::regroup_policy::periodic,
                       ns::sim::regroup_policy::load_triggered});
        spec.sim.grouping.regroup_period_rounds =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
        spec.sim.grouping.load_trigger_misfits =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
    }

    // Fault processes in every draw domain validate() accepts, including
    // the all-zero (disabled) corner.
    if (rng.bernoulli(0.75)) {
        spec.faults.query_loss = rng.uniform(0.0, 0.5);
        spec.faults.query_loss_rssi_slope = rng.uniform(0.0, 0.01);
        spec.faults.ack_loss = rng.uniform(0.0, 0.5);
        spec.faults.reboot_rate_per_round = rng.uniform(0.0, 1.0);
        spec.faults.blackout_probability = rng.uniform(0.0, 0.3);
        spec.faults.blackout_rounds =
            static_cast<std::size_t>(rng.uniform_int(1, 3));
        spec.faults.lease_rounds =
            static_cast<std::size_t>(rng.uniform_int(0, 6));
        spec.faults.missed_query_limit =
            static_cast<std::size_t>(rng.uniform_int(0, 4));
        spec.faults.ack_retry_limit =
            static_cast<std::size_t>(rng.uniform_int(1, 6));
    }

    spec.sim.zero_padding = 4;
    spec.sim.rounds = static_cast<std::size_t>(rng.uniform_int(2, 3));
    spec.sim.seed = rng();
    spec.replicas = 2;
    return spec;
}

/// Comparable digest of everything determinism guarantees, fault
/// observables included.
std::string digest(const scenario_result& result) {
    std::ostringstream out;
    out.precision(17);
    ns::test::write_outcome_digest(out, result.sim);
    out << '\n' << result.stats.join_requests << ' ' << result.stats.offered
        << ' ' << result.stats.gated;
    return out.str();
}

TEST(spec_fuzzer, random_valid_specs_validate_and_run_deterministically) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const scenario_spec spec = random_spec(seed);
        ASSERT_NO_THROW(spec.sim.validate()) << "seed " << seed;
        ASSERT_NO_THROW(spec.faults.validate()) << "seed " << seed;

        const auto serial = run_scenario(spec, {.num_threads = 1});
        const auto threaded = run_scenario(spec, {.num_threads = 8});
        EXPECT_EQ(digest(serial), digest(threaded)) << "seed " << seed;

        // Conservation invariant on every fuzzed run: each down episode
        // either recovered or is still open at the end.
        EXPECT_EQ(serial.sim.total_down_events,
                  serial.sim.total_recoveries + serial.sim.devices_down_at_end)
            << "seed " << seed;
    }
}

/// A random spec across the ENTIRE declarative surface — every field
/// the codec serializes, optionals randomly present or absent — for the
/// serialize→parse→serialize fixed-point property. These specs never
/// run (some draws would be absurdly slow); they only round-trip.
scenario_spec random_full_spec(std::uint64_t seed) {
    ns::util::rng rng(seed);
    scenario_spec spec = random_spec(seed);  // the runnable core surface
    spec.description = "full surface \"quoted\"\ttab seed " +
                       std::to_string(seed);

    // Geometry optionals, each present ~half the time.
    if (rng.bernoulli(0.5)) spec.geometry.floor_width_m = rng.uniform(10.0, 80.0);
    if (rng.bernoulli(0.5)) spec.geometry.floor_depth_m = rng.uniform(10.0, 80.0);
    if (rng.bernoulli(0.5)) {
        spec.geometry.rooms_x = static_cast<std::size_t>(rng.uniform_int(1, 6));
    }
    if (rng.bernoulli(0.5)) {
        spec.geometry.rooms_y = static_cast<std::size_t>(rng.uniform_int(1, 6));
    }
    if (rng.bernoulli(0.5)) spec.geometry.ap_tx_dbm = rng.uniform(0.0, 30.0);
    if (rng.bernoulli(0.5)) {
        spec.geometry.pathloss_exponent = rng.uniform(1.8, 4.0);
    }
    if (rng.bernoulli(0.5)) spec.geometry.wall_loss_db = rng.uniform(0.0, 12.0);
    if (rng.bernoulli(0.5)) spec.geometry.min_distance_m = rng.uniform(0.5, 3.0);
    if (rng.bernoulli(0.5)) {
        spec.geometry.shadowing_sigma_db = rng.uniform(0.0, 8.0);
    }

    spec.churn.association_grants_per_round =
        static_cast<std::size_t>(rng.uniform_int(1, 3));
    spec.mobility.round_period_s = rng.uniform(0.01, 0.2);
    spec.mobility.carrier_hz = rng.uniform(800e6, 950e6);
    spec.interference.tone_hz = rng.uniform(-200e3, 200e3);

    if (rng.bernoulli(0.5)) {
        spec.cochannel.enabled = true;
        spec.cochannel.network_id =
            static_cast<std::uint32_t>(rng.uniform_int(1, 7));
        spec.cochannel.num_devices =
            static_cast<std::size_t>(rng.uniform_int(8, 64));
        spec.cochannel.duty_cycle = rng.uniform(0.1, 1.0);
        spec.cochannel.group_capacity =
            static_cast<std::size_t>(rng.uniform_int(8, 256));
        spec.cochannel.min_snr_db = rng.uniform(-10.0, 0.0);
        spec.cochannel.max_snr_db =
            spec.cochannel.min_snr_db + rng.uniform(0.0, 15.0);
        spec.cochannel.max_round_offset_s = rng.uniform(0.0, 1e-4);
        spec.cochannel.carrier_offset_hz = rng.uniform(0.0, 400.0);
    }

    spec.sim.phy.bandwidth_hz = rng.uniform(125e3, 500e3);
    spec.sim.phy.spreading_factor =
        static_cast<std::size_t>(rng.uniform_int(7, 12));
    spec.sim.frame.preamble_symbols =
        static_cast<std::size_t>(rng.uniform_int(1, 8));
    spec.sim.frame.payload_bits =
        static_cast<std::size_t>(rng.uniform_int(8, 256));
    spec.sim.frame.crc_bits = static_cast<std::size_t>(rng.uniform_int(0, 16));
    spec.sim.skip = static_cast<std::size_t>(rng.uniform_int(1, 4));
    spec.sim.detection_factor = rng.uniform(1.0, 4.0);
    spec.sim.power_aware_allocation = rng.bernoulli(0.5);
    spec.sim.power_adaptation = rng.bernoulli(0.5);
    spec.sim.model_timing_jitter = rng.bernoulli(0.5);
    spec.sim.model_cfo = rng.bernoulli(0.5);
    spec.sim.fidelity =
        pick(rng, {ns::sim::phy_fidelity::sample, ns::sim::phy_fidelity::symbol});
    spec.sim.symbol_kernel_radius_bins =
        static_cast<std::size_t>(rng.uniform_int(1, 6));
    spec.sim.model_multipath = rng.bernoulli(0.5);
    spec.sim.multipath.delay_spread_s = rng.uniform(1e-7, 5e-6);
    spec.sim.multipath.num_taps =
        static_cast<std::size_t>(rng.uniform_int(0, 8));
    spec.sim.multipath.rician_k_db = rng.uniform(-5.0, 15.0);
    spec.sim.multipath_rho = rng.uniform(0.0, 0.99);
    spec.sim.network_id = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
    spec.sim.fading_sigma_db = rng.uniform(0.0, 6.0);
    spec.sim.fading_rho = rng.uniform(0.0, 0.99);
    spec.sim.intra_round_threads =
        static_cast<std::size_t>(rng.uniform_int(1, 4));
    spec.sim.delay_model.mean_us = rng.uniform(0.0, 10.0);
    spec.sim.delay_model.sigma_us = rng.uniform(0.0, 3.0);
    spec.sim.delay_model.max_us = rng.uniform(0.0, 30.0);
    spec.sim.crystal.tolerance_ppm = rng.uniform(0.0, 40.0);
    spec.sim.crystal.operating_frequency_hz = rng.uniform(800e6, 950e6);
    spec.sim.crystal.drift_sigma_hz = rng.uniform(0.0, 5.0);
    spec.sim.obs.metrics = rng.bernoulli(0.5);
    spec.sim.obs.trace_max_events =
        static_cast<std::size_t>(rng.uniform_int(1, 1 << 16));
    spec.sim.obs.alloc_warmup_rounds =
        static_cast<std::size_t>(rng.uniform_int(0, 4));
    if (rng.bernoulli(0.3)) {
        spec.churn.initial_active = static_cast<std::size_t>(-1);  // "all"
    }
    return spec;
}

TEST(spec_fuzzer, serialize_parse_serialize_is_a_fixed_point_on_random_specs) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const scenario_spec spec = random_full_spec(seed);
        const std::string once = ns::spec::serialize_spec(spec);
        ns::scenario::scenario_spec parsed;
        ASSERT_NO_THROW(parsed = ns::spec::parse_spec_text_as_scenario(
                            once, "fuzz-" + std::to_string(seed)))
            << "seed " << seed << "\n" << once;
        const std::string twice = ns::spec::serialize_spec(parsed);
        EXPECT_EQ(once, twice) << "seed " << seed;
    }
}

TEST(spec_fuzzer, generator_is_a_pure_function_of_its_seed) {
    for (std::uint64_t seed : {3u, 6u}) {
        const scenario_spec a = random_spec(seed);
        const scenario_spec b = random_spec(seed);
        EXPECT_EQ(a.sim.seed, b.sim.seed);
        EXPECT_EQ(a.geometry.num_devices, b.geometry.num_devices);
        EXPECT_EQ(a.faults.query_loss, b.faults.query_loss);
        const auto ra = run_scenario(a);
        const auto rb = run_scenario(b);
        EXPECT_EQ(digest(ra), digest(rb)) << "seed " << seed;
    }
}

}  // namespace
