// Tests for the extension modules: group scheduler,
// grouped network simulation (§3.3.3 scheduled groups) and the IC
// power/energy model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "netscatter/device/power_budget.hpp"
#include "netscatter/mac/scheduler.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/sim/timeline.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"

namespace {

// ----------------------------------------------------- group scheduler --

TEST(group_scheduler, single_group_when_population_fits) {
    ns::mac::group_scheduler scheduler({.group_capacity = 256, .max_dynamic_range_db = 35});
    std::vector<ns::mac::device_power> devices;
    for (std::uint32_t i = 0; i < 100; ++i) devices.push_back({i, -100.0 - 0.1 * i});
    std::vector<ns::mac::group_span> groups;
    scheduler.partition_in_place(devices, groups);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].members, 100u);
    EXPECT_LE(groups[0].max_power_dbm - groups[0].min_power_dbm, 35.0);
}

TEST(group_scheduler, splits_on_capacity) {
    ns::mac::group_scheduler scheduler({.group_capacity = 64, .max_dynamic_range_db = 100});
    std::vector<ns::mac::device_power> devices;
    for (std::uint32_t i = 0; i < 200; ++i) devices.push_back({i, -100.0});
    std::vector<ns::mac::group_span> groups;
    scheduler.partition_in_place(devices, groups);
    ASSERT_EQ(groups.size(), 4u);  // 64+64+64+8
    EXPECT_EQ(groups[0].members, 64u);
    EXPECT_EQ(groups[3].members, 8u);
}

TEST(group_scheduler, splits_on_dynamic_range) {
    ns::mac::group_scheduler scheduler({.group_capacity = 256, .max_dynamic_range_db = 35});
    // 60 dB spread: must split into >= 2 groups each within 35 dB.
    std::vector<ns::mac::device_power> devices;
    for (std::uint32_t i = 0; i < 120; ++i) {
        devices.push_back({i, -80.0 - 0.5 * static_cast<double>(i)});  // -80..-139.5
    }
    std::vector<ns::mac::group_span> groups;
    scheduler.partition_in_place(devices, groups);
    ASSERT_GE(groups.size(), 2u);
    for (const auto& group : groups) {
        EXPECT_LE(group.max_power_dbm - group.min_power_dbm, 35.0 + 1e-9);
    }
    // Groups are power-ordered: strongest group first.
    EXPECT_GT(groups.front().max_power_dbm, groups.back().max_power_dbm);
}

TEST(group_scheduler, groups_partition_population_exactly) {
    ns::mac::group_scheduler scheduler({.group_capacity = 50, .max_dynamic_range_db = 20});
    ns::util::rng gen(4);
    std::vector<ns::mac::device_power> devices;
    for (std::uint32_t i = 0; i < 333; ++i) {
        devices.push_back({i, gen.uniform(-130.0, -70.0)});
    }
    std::vector<ns::mac::group_span> groups;
    scheduler.partition_in_place(devices, groups);
    std::size_t total = 0;
    for (const auto& group : groups) total += group.members;
    std::set<std::uint32_t> seen;
    for (const auto& member : devices) seen.insert(member.device_id);
    EXPECT_EQ(total, 333u);
    EXPECT_EQ(seen.size(), 333u);
}

/// partition_in_place's reference: std::sort(stronger_first), then the
/// greedy walk that opens a group when the current one is full or the
/// next device would stretch it past the dynamic-range limit.
std::vector<ns::mac::group_span> reference_partition(
    std::vector<ns::mac::device_power>& devices, const ns::mac::scheduler_params& params) {
    std::sort(devices.begin(), devices.end(), ns::mac::stronger_first);
    std::vector<ns::mac::group_span> spans;
    for (const ns::mac::device_power& device : devices) {
        if (spans.empty() || spans.back().members >= params.group_capacity ||
            spans.back().max_power_dbm - device.rx_power_dbm > params.max_dynamic_range_db) {
            spans.push_back({.members = 0,
                             .min_power_dbm = device.rx_power_dbm,
                             .max_power_dbm = device.rx_power_dbm});
        }
        ++spans.back().members;
        spans.back().min_power_dbm = device.rx_power_dbm;
    }
    return spans;
}

/// `devices` through partition_in_place equals the reference entry for
/// entry (id and power bits) and span for span.
void expect_reference_partition(std::vector<ns::mac::device_power> devices,
                                const std::string& label) {
    const ns::mac::scheduler_params params{.group_capacity = 64, .max_dynamic_range_db = 10};
    std::vector<ns::mac::device_power> expected = devices;
    const std::vector<ns::mac::group_span> expected_spans =
        reference_partition(expected, params);
    std::vector<ns::mac::group_span> spans;
    ns::mac::group_scheduler(params).partition_in_place(devices, spans);
    ASSERT_EQ(devices.size(), expected.size()) << label;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        ASSERT_EQ(devices[i].device_id, expected[i].device_id) << label << " entry " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(devices[i].rx_power_dbm),
                  std::bit_cast<std::uint64_t>(expected[i].rx_power_dbm))
            << label << " entry " << i;
    }
    ASSERT_EQ(spans.size(), expected_spans.size()) << label;
    for (std::size_t g = 0; g < spans.size(); ++g) {
        EXPECT_EQ(spans[g].members, expected_spans[g].members) << label << " span " << g;
        EXPECT_EQ(spans[g].max_power_dbm, expected_spans[g].max_power_dbm)
            << label << " span " << g;
        EXPECT_EQ(spans[g].min_power_dbm, expected_spans[g].min_power_dbm)
            << label << " span " << g;
    }
}

/// `powers` with ids 0..n-1 in shuffled order.
std::vector<ns::mac::device_power> with_shuffled_ids(const std::vector<double>& powers,
                                                     ns::util::rng& gen) {
    std::vector<std::uint32_t> ids(powers.size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::shuffle(ids.begin(), ids.end(), gen);
    std::vector<ns::mac::device_power> devices;
    for (std::size_t i = 0; i < powers.size(); ++i) devices.push_back({ids[i], powers[i]});
    return devices;
}

TEST(group_scheduler, partition_order_is_stronger_first) {
    ns::util::rng gen(29);
    for (const std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 1000u, 100000u}) {
        std::vector<double> powers;
        for (std::size_t i = 0; i < n; ++i) powers.push_back(gen.uniform(-140.0, -40.0));
        expect_reference_partition(with_shuffled_ids(powers, gen),
                                   "uniform n=" + std::to_string(n));
    }

    expect_reference_partition(with_shuffled_ids(std::vector<double>(1000, -87.25), gen),
                               "all equal");

    const double specials[] = {0.0,
                               -0.0,
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min() / 3.0,
                               -std::numeric_limits<double>::min() / 7.0,
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::lowest(),
                               -61.5};
    std::vector<double> zeros;
    for (std::size_t i = 0; i < 500; ++i) zeros.push_back(i % 3 == 0 ? -0.0 : 0.0);
    for (std::size_t i = 0; i < 200; ++i) zeros.push_back(gen.uniform(-1e-3, 1e-3));
    expect_reference_partition(with_shuffled_ids(zeros, gen), "mixed signed zeros");
    std::vector<double> extremes;
    for (std::size_t i = 0; i < 3000; ++i) {
        extremes.push_back(specials[gen.uniform_int(0, std::size(specials) - 1)]);
    }
    expect_reference_partition(with_shuffled_ids(extremes, gen), "infinities and denormals");

    // Few distinct powers, each shared by hundreds of devices.
    std::vector<double> duplicates;
    for (std::size_t i = 0; i < 5000; ++i) {
        duplicates.push_back(-100.0 + 2.5 * static_cast<double>(gen.uniform_int(0, 6)));
    }
    expect_reference_partition(with_shuffled_ids(duplicates, gen), "duplicates");

    // Already in partition order reversed, and shuffled by id.
    std::vector<ns::mac::device_power> reversed;
    for (std::uint32_t i = 0; i < 20000; ++i) {
        reversed.push_back({i, -140.0 + 0.005 * static_cast<double>(i)});
    }
    std::vector<ns::mac::device_power> shuffled = reversed;
    std::reverse(reversed.begin(), reversed.end());
    expect_reference_partition(reversed, "reverse order");
    std::shuffle(shuffled.begin(), shuffled.end(), gen);
    expect_reference_partition(shuffled, "shuffled order");
}

TEST(group_scheduler, partition_rejects_a_nan_power) {
    const ns::mac::group_scheduler scheduler({.group_capacity = 64, .max_dynamic_range_db = 10});
    std::vector<ns::mac::device_power> devices = {
        {0, -80.0}, {1, std::numeric_limits<double>::quiet_NaN()}, {2, -90.0}};
    std::vector<ns::mac::group_span> spans;
    try {
        scheduler.partition_in_place(devices, spans);
        FAIL() << "a NaN power was partitioned";
    } catch (const ns::util::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("partition"), std::string::npos) << e.what();
    }
    // A negative NaN, alone among many finite powers.
    ns::util::rng gen(3);
    devices.clear();
    for (std::uint32_t i = 0; i < 1000; ++i) devices.push_back({i, gen.uniform(-140.0, -40.0)});
    devices[617].rx_power_dbm = -std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(scheduler.partition_in_place(devices, spans), ns::util::invalid_argument);
}

TEST(group_scheduler, admit_never_fills_a_group_past_capacity) {
    // The simulator reserves its radio pool for rounds × capacity radios,
    // which holds only while no group outgrows the capacity. A full
    // group that needs no stretch at all is still passed over.
    const ns::mac::group_scheduler scheduler({.group_capacity = 8, .max_dynamic_range_db = 20});
    const std::vector<ns::mac::group_span> full_and_open = {
        {.members = 8, .min_power_dbm = -100.0, .max_power_dbm = -90.0},
        {.members = 3, .min_power_dbm = -110.0, .max_power_dbm = -105.0}};
    EXPECT_EQ(scheduler.admit(full_and_open, -95.0), std::optional<std::size_t>{1});
    EXPECT_EQ(scheduler.admit({full_and_open[0]}, -95.0), std::nullopt);

    // Joins and leaves at random, each join placed the way the simulator
    // places it: the admitted group, else a fresh empty one.
    ns::util::rng gen(12);
    std::vector<ns::mac::group_span> groups;
    std::size_t admitted = 0;
    for (int step = 0; step < 4000; ++step) {
        if (!groups.empty() && gen.bernoulli(0.4)) {
            ns::mac::group_span& left = groups[static_cast<std::size_t>(gen.uniform_int(
                0, static_cast<std::int64_t>(groups.size()) - 1))];
            if (left.members > 0) --left.members;
            continue;
        }
        const double power = gen.uniform(-130.0, -70.0);
        const std::optional<std::size_t> best = scheduler.admit(groups, power);
        if (best) {
            ASSERT_LT(groups[*best].members, scheduler.params().group_capacity)
                << "step " << step;
            ++admitted;
        } else {
            groups.push_back({.members = 0, .min_power_dbm = power, .max_power_dbm = power});
        }
        ns::mac::group_span& span = groups[best.value_or(groups.size() - 1)];
        span.min_power_dbm = span.members > 0 ? std::min(span.min_power_dbm, power) : power;
        span.max_power_dbm = span.members > 0 ? std::max(span.max_power_dbm, power) : power;
        ++span.members;
    }
    EXPECT_GT(admitted, 1000u);
    std::size_t full = 0;
    for (const ns::mac::group_span& span : groups) {
        EXPECT_LE(span.members, scheduler.params().group_capacity);
        full += span.members == scheduler.params().group_capacity;
    }
    EXPECT_GT(full, 0u);  // the walk did reach capacity
}

// ------------------------------------------------------- grouped sim --

TEST(grouped_sim, wide_population_grouped_delivers) {
    // A deployment stretched beyond one group's dynamic range: §3.3.3
    // grouping splits it into scheduled groups and each group decodes
    // well on its own round.
    ns::sim::deployment_params dep_params;
    dep_params.min_distance_m = 4.0;           // wider near-far spread
    dep_params.pathloss.exponent = 2.8;
    const ns::sim::deployment dep(dep_params, 96, 31);

    ns::sim::sim_config config;
    config.seed = 9;
    config.zero_padding = 4;
    config.grouping.enabled = true;
    config.grouping.group_capacity = 256;
    config.grouping.max_dynamic_range_db = 30.0;

    // Probe the partition size, then run two full round-robin schedules
    // so every group is addressed twice.
    const std::size_t num_groups =
        ns::sim::network_simulator(dep, config).ap().num_groups();
    ASSERT_GE(num_groups, 2u);
    config.rounds = 2 * num_groups;
    ns::sim::network_simulator sim(dep, config);
    const ns::sim::sim_result result = sim.run();

    // The stretched deployment leaves a few devices near/below the
    // sensitivity edge (dead links grouping cannot revive), so the bar is
    // slightly below the in-range deployments' ~99%.
    EXPECT_GT(result.delivery_rate(), 0.85);
    EXPECT_EQ(result.num_groups, num_groups);

    // Per-group spans respect the configured dynamic-range cap and the
    // per-group counters decompose the totals exactly.
    std::size_t delivered = 0;
    for (const auto& group : result.groups) {
        if (group.members > 0) {
            EXPECT_LE(group.max_power_dbm - group.min_power_dbm, 30.0 + 1e-9);
        }
        delivered += group.delivered;
    }
    EXPECT_EQ(delivered, result.total_delivered);

    // Serving the whole population once takes one round per group.
    const double single = ns::sim::netscatter_round(config.frame, config.phy,
                                                    ns::sim::query_config::config1)
                              .total_time_s;
    EXPECT_GT(single * static_cast<double>(num_groups), single);
}

TEST(grouped_sim, single_group_matches_plain_simulation_structure) {
    // A population that fits one group degenerates to the plain
    // simulator: every round schedules group 0 and addresses everyone.
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 24, 32);
    ns::sim::sim_config config;
    config.rounds = 2;
    config.zero_padding = 4;
    config.grouping.enabled = true;
    config.grouping.group_capacity = 256;
    config.grouping.max_dynamic_range_db = 35.0;
    ns::sim::network_simulator sim(dep, config);
    ASSERT_EQ(sim.ap().num_groups(), 1u);
    const ns::sim::sim_result result = sim.run();
    EXPECT_EQ(result.num_groups, 1u);
    for (const auto& round : result.rounds) {
        EXPECT_EQ(round.scheduled_group, 0);
        EXPECT_EQ(round.scheduled, 24u);
    }
    EXPECT_GT(result.delivery_rate(), 0.9);
}

// ------------------------------------------------------ power budget --

TEST(power_budget, ic_total_matches_paper) {
    const ns::device::ic_power_model power{};
    EXPECT_NEAR(power.transmit_w(), 45.2e-6, 0.1e-6);  // §4.1: 45.2 uW
    EXPECT_NEAR(power.listen_w(), 6.7e-6, 0.1e-6);
}

TEST(power_budget, netscatter_round_energy_components) {
    const ns::device::ic_power_model power{};
    const auto phy = ns::phy::deployed_params();
    const auto frame = ns::phy::linklayer_format();
    const double query_s = 32.0 / 160e3;
    const double period_s = 1.0;  // one report per second
    const auto energy =
        ns::device::netscatter_round_energy(power, phy, frame, query_s, period_s);
    // Transmit: 45.2 uW x 49.15 ms ~ 2.22 uJ dominates.
    EXPECT_NEAR(energy.transmit_j, 45.2e-6 * 48.0 * 1.024e-3, 1e-8);
    EXPECT_GT(energy.transmit_j, energy.listen_j);
    EXPECT_NEAR(energy.total_j,
                energy.listen_j + energy.transmit_j + energy.sleep_j, 1e-15);
    EXPECT_NEAR(energy.per_payload_bit_j, energy.total_j / 32.0, 1e-15);
}

TEST(power_budget, energy_tradeoff_vs_polled_lora) {
    // The honest energy picture: a polled device must listen to all 256
    // queries per epoch (NetScatter listens to one — two orders of
    // magnitude less listening energy), but NetScatter's ON-OFF packet is
    // 48 symbols vs LoRa's 13, so its per-report transmit energy is
    // ~3.7x higher. NetScatter's claim is network throughput/latency,
    // not per-device energy; both stay in the microjoule class.
    const ns::device::ic_power_model power{};
    const auto phy = ns::phy::deployed_params();
    const auto frame = ns::phy::linklayer_format();
    const auto netscatter = ns::device::netscatter_round_energy(
        power, phy, frame, 32.0 / 160e3, 4.0);
    const auto polled = ns::device::lora_polled_epoch_energy(
        power, phy, frame, 28.0 / 160e3, 256);
    EXPECT_LT(netscatter.listen_j, polled.listen_j / 100.0);
    EXPECT_NEAR(netscatter.transmit_j / polled.transmit_j, 48.0 / 13.0, 0.01);
    EXPECT_LT(netscatter.total_j, 5e-6);
    EXPECT_LT(polled.total_j, 5e-6);
}

TEST(power_budget, round_energy_validates_period) {
    const ns::device::ic_power_model power{};
    EXPECT_THROW(ns::device::netscatter_round_energy(
                     power, ns::phy::deployed_params(), ns::phy::linklayer_format(),
                     32.0 / 160e3, 0.01),
                 ns::util::invalid_argument);
}

TEST(power_budget, battery_life_sane) {
    // CR2032-class cell (225 mAh, 3 V) reporting every 10 s at ~2.3 uJ
    // per round: decades — i.e. the battery's shelf life dominates, the
    // paper's "operate on button cells" claim.
    const ns::device::ic_power_model power{};
    const auto energy = ns::device::netscatter_round_energy(
        power, ns::phy::deployed_params(), ns::phy::linklayer_format(), 32.0 / 160e3,
        10.0);
    const double years =
        ns::device::battery_life_years(225.0, 3.0, energy.total_j, 10.0);
    EXPECT_GT(years, 10.0);
    EXPECT_THROW(ns::device::battery_life_years(0.0, 3.0, 1e-6, 1.0),
                 ns::util::invalid_argument);
}


// --------------------------------------------- additional coverage --

TEST(grouped_sim, per_group_metrics_decompose_schedule) {
    // Two capacity-split groups served round-robin: the per-group
    // accumulators carry the scheduled-round bookkeeping the link-layer
    // rate derivation needs (delivered per scheduled round per group over
    // a network latency of one round per group).
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 16, 43);
    ns::sim::sim_config config;
    config.rounds = 4;
    config.zero_padding = 4;
    config.grouping.enabled = true;
    config.grouping.group_capacity = 8;
    config.grouping.max_dynamic_range_db = 100.0;
    ns::sim::network_simulator sim(dep, config);
    ASSERT_EQ(sim.ap().num_groups(), 2u);
    const ns::sim::sim_result result = sim.run();

    ASSERT_EQ(result.groups.size(), 2u);
    std::size_t scheduled_rounds = 0;
    double delivered_per_schedule = 0.0;
    for (const auto& group : result.groups) {
        EXPECT_EQ(group.members, 8u);
        EXPECT_EQ(group.scheduled_rounds, 2u);  // 4 rounds, round-robin
        scheduled_rounds += group.scheduled_rounds;
        delivered_per_schedule += static_cast<double>(group.delivered) /
                                  static_cast<double>(group.scheduled_rounds);
    }
    EXPECT_EQ(scheduled_rounds, result.rounds.size());

    // The link-layer rate over the schedule follows from the totals.
    const double latency =
        ns::sim::netscatter_round(config.frame, config.phy,
                                  ns::sim::query_config::config1)
            .total_time_s *
        static_cast<double>(result.num_groups);
    const double rate_bps = delivered_per_schedule *
                            static_cast<double>(config.frame.payload_bits) / latency;
    EXPECT_GT(rate_bps, 0.0);
}

TEST(power_budget, polled_epoch_listen_scales_with_population) {
    const ns::device::ic_power_model power{};
    const auto phy = ns::phy::deployed_params();
    const auto frame = ns::phy::linklayer_format();
    const auto small = ns::device::lora_polled_epoch_energy(power, phy, frame,
                                                            28.0 / 160e3, 16);
    const auto large = ns::device::lora_polled_epoch_energy(power, phy, frame,
                                                            28.0 / 160e3, 256);
    EXPECT_NEAR(large.listen_j / small.listen_j, 16.0, 1e-9);
    EXPECT_DOUBLE_EQ(large.transmit_j, small.transmit_j);
}


}  // namespace
