// Unit tests for ns::mac — query message, power-aware allocator, access
// point, Aloha backoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "netscatter/mac/allocator.hpp"
#include "netscatter/mac/aloha.hpp"
#include "netscatter/mac/ap.hpp"
#include "netscatter/mac/query_message.hpp"
#include "netscatter/mac/scheduler.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using namespace ns::mac;
using ns::device::snr_region;

// ------------------------------------------------------ query message --

TEST(query_message, config1_is_32_bits) {
    query_message query;
    EXPECT_EQ(query.length_bits(), 32u);
    EXPECT_NEAR(query.airtime_s(), 32.0 / 160e3, 1e-12);
}

TEST(query_message, association_response_adds_16_bits) {
    query_message query;
    query.response = association_response{.network_id = 3, .shift_slot = 9};
    EXPECT_EQ(query.length_bits(), 48u);
}

TEST(query_message, config2_is_1760_bits) {
    // §3.3.3 / §4.4: the full reassignment query is 1760 bits and takes
    // under 11 ms on the 160 kbps downlink.
    query_message query;
    query.full_reassignment = true;
    EXPECT_EQ(query.length_bits(), 1760u);
    EXPECT_NEAR(query.airtime_s(), 11e-3, 1e-6);  // 1760 / 160k = 11 ms exactly
}

TEST(query_message, serialize_parse_roundtrip_minimal) {
    query_message query;
    query.group_id = 5;
    const auto bits = serialize(query);
    EXPECT_EQ(bits.size(), query.length_bits());
    const auto parsed = parse_query(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->group_id, 5);
    EXPECT_FALSE(parsed->response.has_value());
    EXPECT_FALSE(parsed->full_reassignment);
}

TEST(query_message, serialize_parse_roundtrip_with_response) {
    query_message query;
    query.group_id = 0;
    query.response = association_response{.network_id = 42, .shift_slot = 17};
    const auto parsed = parse_query(serialize(query));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->response.has_value());
    EXPECT_EQ(parsed->response->network_id, 42);
    EXPECT_EQ(parsed->response->shift_slot, 17);
}

TEST(query_message, serialize_parse_roundtrip_full_reassignment) {
    query_message query;
    query.full_reassignment = true;
    query.reassignment_index_low64 = 0xABCDEF0123456789ULL;
    const auto bits = serialize(query);
    EXPECT_EQ(bits.size(), 1760u);
    const auto parsed = parse_query(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->full_reassignment);
    EXPECT_EQ(parsed->reassignment_index_low64, 0xABCDEF0123456789ULL);
}

TEST(query_message, parse_rejects_corruption) {
    query_message query;
    auto bits = serialize(query);
    bits[5] = !bits[5];
    EXPECT_FALSE(parse_query(bits).has_value());
}

TEST(query_message, parse_rejects_truncation) {
    EXPECT_FALSE(parse_query(std::vector<bool>(8, false)).has_value());
}

TEST(query_message, permutation_bits_match_paper) {
    // §3.3.3: log2(256!) <= 1700 bits; exactly ceil(log2(256!)) = 1684.
    EXPECT_EQ(permutation_index_bits(256), 1684u);
    EXPECT_LE(permutation_index_bits(256), 1700u);
    EXPECT_EQ(permutation_index_bits(1), 0u);
    // And it fits inside the 1728-bit reassignment field.
    EXPECT_LE(permutation_index_bits(256), reassignment_field_bits);
}

// ---------------------------------------------------------- allocator --

allocation_params default_alloc(std::uint32_t skip = 2,
                                std::uint32_t assoc_slots = 2) {
    return allocation_params{.phy = ns::phy::deployed_params(),
                             .skip = skip,
                             .num_association_slots = assoc_slots};
}

TEST(allocator, slot_count_and_spacing) {
    const shift_allocator alloc(default_alloc());
    // 512 bins / SKIP 2 = 256 slots, minus 2 association slots.
    EXPECT_EQ(alloc.num_data_slots(), 254u);
    for (std::uint32_t shift : alloc.placement_order()) {
        EXPECT_EQ(shift % 2, 0u);
        EXPECT_LT(shift, 512u);
    }
}

TEST(allocator, no_association_reserve_keeps_full_capacity) {
    const shift_allocator alloc(default_alloc(2, 0));
    EXPECT_EQ(alloc.num_data_slots(), 256u);  // the deployed 256 devices
    EXPECT_THROW(alloc.association_shift(snr_region::high),
                 ns::util::invalid_argument);
}

TEST(allocator, association_shifts_in_distinct_regions) {
    const shift_allocator alloc(default_alloc());
    const std::uint32_t high = alloc.association_shift(snr_region::high);
    const std::uint32_t low = alloc.association_shift(snr_region::low);
    EXPECT_NE(high, low);
    // High region near bin 0, low region near mid-band (bin 256).
    EXPECT_LE(alloc.circular_distance(high, 0), 8u);
    EXPECT_GE(alloc.circular_distance(low, 0), 200u);
    // Association shifts are not data slots.
    const auto& order = alloc.placement_order();
    EXPECT_EQ(std::count(order.begin(), order.end(), high), 0);
    EXPECT_EQ(std::count(order.begin(), order.end(), low), 0);
}

TEST(allocator, circular_distance_wraps) {
    const shift_allocator alloc(default_alloc());
    EXPECT_EQ(alloc.circular_distance(0, 510), 2u);
    EXPECT_EQ(alloc.circular_distance(510, 0), 2u);
    EXPECT_EQ(alloc.circular_distance(0, 256), 256u);
    EXPECT_EQ(alloc.circular_distance(5, 5), 0u);
}

TEST(allocator, placement_order_monotone_distance_from_zero) {
    const shift_allocator alloc(default_alloc(2, 0));
    const auto& order = alloc.placement_order();
    std::uint32_t previous = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::uint32_t distance = alloc.circular_distance(order[i], 0);
        EXPECT_GE(distance + 2, previous) << "position " << i;  // non-strict by pairs
        previous = distance;
    }
}

TEST(allocator, strong_devices_near_bin_zero) {
    const shift_allocator alloc(default_alloc(2, 0));
    std::vector<device_power> devices;
    for (std::uint32_t i = 0; i < 256; ++i) {
        devices.push_back({i, -100.0 + static_cast<double>(i) * 0.1});
    }
    const std::vector<std::uint32_t> shifts = alloc.allocate(devices);
    ASSERT_EQ(shifts.size(), 256u);
    // Strongest device (id 255) must sit closer to bin 0 than the weakest
    // (id 0), which must sit near mid-band.
    EXPECT_LE(alloc.circular_distance(shifts[255], 0), 4u);
    EXPECT_GE(alloc.circular_distance(shifts[0], 0), 250u);
}

TEST(allocator, all_assigned_shifts_distinct) {
    const shift_allocator alloc(default_alloc(2, 0));
    std::vector<device_power> devices;
    ns::util::rng gen(1);
    for (std::uint32_t i = 0; i < 256; ++i) {
        devices.push_back({i, gen.uniform(-120.0, -80.0)});
    }
    const std::vector<std::uint32_t> shifts = alloc.allocate(devices);
    EXPECT_EQ(std::set<std::uint32_t>(shifts.begin(), shifts.end()).size(), 256u);
    // Shifts come back in input order: reversed input, reversed result.
    const auto reversed = alloc.allocate({devices.rbegin(), devices.rend()});
    EXPECT_TRUE(std::equal(shifts.begin(), shifts.end(), reversed.rbegin()));
}

TEST(allocator, matches_rank_and_distance_sort_at_every_population) {
    // The allocation spelled out with two comparison sorts: rank the
    // devices strongest first, order the strided slots by distance from
    // bin 0 (ties to the lower shift), hand them out in that order. The
    // workspace form must agree at every population size, on ranked and
    // unranked input, and reuse its workspace across calls.
    const shift_allocator alloc(default_alloc(2, 2));
    const std::vector<std::uint32_t>& order = alloc.placement_order();
    std::vector<std::uint32_t> ascending(order.begin(), order.end());
    std::sort(ascending.begin(), ascending.end());
    const std::uint32_t bins = 512;
    ns::util::rng gen(3);
    allocation_workspace ws;
    std::vector<std::uint32_t> shifts;
    for (std::size_t n = 0; n <= alloc.num_data_slots(); n += (n < 8 ? 1 : 37)) {
        std::vector<device_power> devices;
        for (std::uint32_t i = 0; i < n; ++i) {
            devices.push_back({i, std::round(gen.uniform(-120.0, -80.0))});
        }
        if (n % 2 == 0) std::sort(devices.begin(), devices.end(), stronger_first);
        std::vector<std::size_t> rank(n);
        for (std::size_t i = 0; i < n; ++i) rank[i] = i;
        std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
            return stronger_first(devices[a], devices[b]);
        });
        const std::size_t stride = n == 0 ? 1 : std::max<std::size_t>(1, ascending.size() / n);
        std::vector<std::uint32_t> selected(n);
        for (std::size_t i = 0; i < n; ++i) selected[i] = ascending[i * stride];
        std::sort(selected.begin(), selected.end(), [&](std::uint32_t a, std::uint32_t b) {
            const std::uint32_t da = std::min(a, bins - a);
            const std::uint32_t db = std::min(b, bins - b);
            return da != db ? da < db : a < b;
        });
        std::vector<std::uint32_t> expected(n);
        for (std::size_t i = 0; i < n; ++i) expected[rank[i]] = selected[i];

        alloc.allocate(devices, shifts, ws);
        EXPECT_EQ(shifts, expected) << n << " devices";
        EXPECT_EQ(alloc.allocate(devices), expected) << n << " devices";
    }
}

TEST(allocator, sparse_population_spreads_out) {
    // §4.4: below 128 devices the effective spacing exceeds 2 cyclic
    // shifts, so devices do not interfere.
    const shift_allocator alloc(default_alloc(2, 0));
    std::vector<device_power> devices;
    for (std::uint32_t i = 0; i < 64; ++i) devices.push_back({i, -100.0});
    std::vector<std::uint32_t> shifts = alloc.allocate(devices);
    std::sort(shifts.begin(), shifts.end());
    for (std::size_t i = 1; i < shifts.size(); ++i) {
        EXPECT_GE(shifts[i] - shifts[i - 1], 6u);  // >= 3 slots apart
    }
}

TEST(allocator, rejects_overload) {
    const shift_allocator alloc(default_alloc(2, 0));
    std::vector<device_power> devices;
    for (std::uint32_t i = 0; i < 257; ++i) devices.push_back({i, -100.0});
    EXPECT_THROW(alloc.allocate(devices), ns::util::invalid_argument);
}

TEST(allocator, skip_one_supports_full_bins) {
    const shift_allocator alloc(default_alloc(1, 0));
    EXPECT_EQ(alloc.num_data_slots(), 512u);
}

TEST(allocator, validates_parameters) {
    allocation_params bad = default_alloc();
    bad.skip = 0;
    EXPECT_THROW(shift_allocator{bad}, ns::util::invalid_argument);
}

TEST(allocator, tolerable_power_difference_reference_points) {
    const auto p = ns::phy::deployed_params();
    // §3.2.3: at SKIP = 2 a neighbour survives up to ~13.5 dB difference.
    EXPECT_NEAR(tolerable_power_difference_db(p, 2), 13.5, 0.5);
    // Mid-band reaches the 35 dB practical cap (Fig. 15b).
    EXPECT_DOUBLE_EQ(tolerable_power_difference_db(p, 256), 35.0);
    // Same bin: nothing is tolerable.
    EXPECT_DOUBLE_EQ(tolerable_power_difference_db(p, 0), 0.0);
}

TEST(allocator, tolerable_power_difference_monotone) {
    // The allocator tabulates the tolerance up to the first separation at
    // the cap and reads the cap beyond it: that holds only if the
    // tolerance never falls out to mid-band and stays at the cap once
    // there.
    for (int sf = 7; sf <= 12; ++sf) {
        const ns::phy::css_params p{.bandwidth_hz = 500e3, .spreading_factor = sf};
        const auto half = static_cast<std::uint32_t>(p.num_bins() / 2);
        std::uint32_t first_capped = 0;
        double previous = 0.0;
        for (std::uint32_t s = 1; s <= half; ++s) {
            const double tolerable = tolerable_power_difference_db(p, s);
            EXPECT_GE(tolerable, previous) << "SF" << sf << ", separation " << s;
            if (first_capped != 0) {
                EXPECT_EQ(tolerable, 35.0) << "SF" << sf << ", separation " << s;
            } else if (tolerable == 35.0) {
                first_capped = s;
            }
            previous = tolerable;
        }
        // Narrow enough that the table is a handful of entries.
        EXPECT_EQ(first_capped, sf == 7 ? 20u : 19u) << "SF" << sf;
    }
}

TEST(allocator, incremental_prefers_similar_power_neighbours) {
    const shift_allocator alloc(default_alloc(2, 0));
    // A strong device at shift 0 and a weak one at mid-band.
    const std::vector<std::pair<std::uint32_t, double>> occupied = {
        {0, -80.0}, {256, -112.0}};
    // A weak newcomer should land near the weak device, not next to the
    // strong one.
    const auto shift = alloc.assign_incremental(-110.0, occupied);
    ASSERT_TRUE(shift.has_value());
    EXPECT_LT(alloc.circular_distance(*shift, 256), alloc.circular_distance(*shift, 0));
}

TEST(allocator, incremental_respects_occupancy) {
    const shift_allocator alloc(default_alloc(2, 0));
    const std::vector<std::pair<std::uint32_t, double>> occupied = {{0, -100.0}};
    const auto shift = alloc.assign_incremental(-100.0, occupied);
    ASSERT_TRUE(shift.has_value());
    EXPECT_NE(*shift, 0u);
}

TEST(allocator, incremental_fails_when_infeasible) {
    // One monster device 60 dB above a newcomer: nowhere is safe (the cap
    // is 35 dB), so the allocator must signal a full reassignment.
    const shift_allocator alloc(default_alloc(2, 0));
    const std::vector<std::pair<std::uint32_t, double>> occupied = {{0, -50.0}};
    EXPECT_FALSE(alloc.assign_incremental(-110.0, occupied).has_value());
}

TEST(allocator, incremental_rejects_out_of_range_shifts) {
    const shift_allocator alloc(default_alloc());
    allocation_workspace ws;
    const std::vector<shift_power> last_bin = {{511, -100.0}};
    EXPECT_TRUE(alloc.assign_incremental(-100.0, last_bin, ws).has_value());
    for (const std::uint32_t shift : {512u, 4096u, 0xffffffffu}) {
        const std::vector<shift_power> occupied = {{0, -100.0}, {shift, -100.0}};
        try {
            (void)alloc.assign_incremental(-100.0, occupied, ws);
            ADD_FAILURE() << "shift " << shift << " accepted";
        } catch (const ns::util::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("assign_incremental"), std::string::npos);
        }
    }
    // A rejected call leaves the workspace's occupancy map clear.
    EXPECT_TRUE(std::all_of(ws.taken.begin(), ws.taken.end(),
                            [](std::uint8_t flag) { return flag == 0; }));
}

using occupancy = std::vector<std::pair<std::uint32_t, double>>;

/// The incremental rule spelled out pair by pair: every free data slot in
/// placement order, its margin the minimum over every occupied device of
/// the tolerable difference at their separation less their power gap,
/// its neighbour gap that of the first-listed nearest occupied device;
/// the feasible slot with the smallest neighbour gap wins, ties within
/// 1e-12 to the larger margin.
std::optional<std::uint32_t> pairwise_incremental(const shift_allocator& alloc, double power,
                                                  const occupancy& occupied) {
    double best_gap = std::numeric_limits<double>::infinity();
    double best_margin = -std::numeric_limits<double>::infinity();
    std::optional<std::uint32_t> best;
    for (const std::uint32_t candidate : alloc.placement_order()) {
        bool taken = false;
        for (const auto& entry : occupied) taken = taken || entry.first == candidate;
        if (taken) continue;
        double margin = std::numeric_limits<double>::infinity();
        std::uint32_t nearest = std::numeric_limits<std::uint32_t>::max();
        double gap = 0.0;
        for (const auto& [shift, other] : occupied) {
            const std::uint32_t separation = alloc.circular_distance(candidate, shift);
            const double difference = std::abs(power - other);
            margin = std::min(
                margin,
                tolerable_power_difference_db(alloc.params().phy, separation) - difference);
            if (separation < nearest) {
                nearest = separation;
                gap = difference;
            }
        }
        if (margin < 0.0) continue;
        if (gap < best_gap - 1e-12 ||
            (std::abs(gap - best_gap) <= 1e-12 && margin > best_margin)) {
            best_gap = gap;
            best_margin = margin;
            best = candidate;
        }
    }
    return best;
}

TEST(allocator, incremental_matches_the_pairwise_reference) {
    ns::util::rng gen(32);
    // Powers on a 0.5 dB grid, so neighbour gaps and margins tie exactly.
    const auto grid_power = [&] { return std::round(gen.uniform(-120.0, -80.0) * 2.0) / 2.0; };
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    std::size_t placed = 0;
    std::size_t refused = 0;
    for (int sf = 7; sf <= 12; ++sf) {
        for (const std::uint32_t skip : {1u, 2u, 4u}) {
            const shift_allocator alloc(
                {.phy = {.bandwidth_hz = 500e3, .spreading_factor = sf}, .skip = skip});
            const std::vector<std::uint32_t>& slots = alloc.placement_order();
            const auto bins = static_cast<std::uint32_t>(alloc.params().phy.num_bins());
            const auto check = [&](double power, const occupancy& occupied) {
                const auto expected = pairwise_incremental(alloc, power, occupied);
                EXPECT_EQ(alloc.assign_incremental(power, occupied), expected)
                    << "SF" << sf << " SKIP " << skip << ", " << occupied.size()
                    << " occupied, newcomer at " << power << " dBm";
                (expected ? placed : refused) += 1;
            };
            // `count` distinct data slots, picked at random, at grid powers.
            const auto occupy = [&](std::size_t count) {
                std::vector<std::uint32_t> order(slots);
                for (std::size_t i = order.size(); i > 1; --i) {
                    std::swap(order[i - 1], order[pick(i)]);
                }
                occupancy occupied;
                for (std::size_t i = 0; i < count; ++i) {
                    occupied.emplace_back(order[i], grid_power());
                }
                return occupied;
            };

            check(grid_power(), {});
            for (int trial = 0; trial < 4; ++trial) {
                check(grid_power(), occupy(1));
                // Sparse, with an off-grid shift now and then.
                occupancy sparse = occupy(std::min<std::size_t>(2 + pick(38), slots.size()));
                if (trial % 2 == 1) {
                    sparse.emplace_back(static_cast<std::uint32_t>(pick(bins)),
                                        grid_power());
                }
                check(grid_power(), sparse);
                // Duplicates: some shifts listed twice, at other powers.
                occupancy duplicated = sparse;
                for (std::size_t i = 0; i < sparse.size(); i += 3) {
                    duplicated.emplace_back(sparse[i].first, grid_power());
                }
                check(grid_power(), duplicated);
                // One to three free slots left.
                const occupancy dense = occupy(slots.size() - 1 - pick(3));
                check(grid_power(), dense);
                check(dense.front().second, dense);
                occupancy dense_duplicated = dense;
                dense_duplicated.push_back(dense.back());
                check(grid_power(), dense_duplicated);
            }
            // A full network.
            check(grid_power(), occupy(slots.size()));
            // Two equidistant neighbours of different power, either one
            // listed first: the first listed is the nearest.
            const std::uint32_t centre = slots[slots.size() / 2];
            for (const std::uint32_t d : {skip, 2 * skip, 5 * skip}) {
                const std::uint32_t left = (centre + bins - d) % bins;
                const std::uint32_t right = (centre + d) % bins;
                check(-100.0, {{left, -98.0}, {right, -103.0}});
                check(-100.0, {{right, -103.0}, {left, -98.0}});
                check(-100.0, {{left, -97.5}, {right, -102.5}});
            }
            // An infeasible newcomer: 60 dB under a device the cap of
            // 35 dB cannot shield it from anywhere.
            occupancy loud = occupy(3);
            loud[1].second = -50.0;
            check(-110.0, loud);
        }
    }
    // Both outcomes are exercised.
    EXPECT_GT(placed, 300u);
    EXPECT_GT(refused, 100u);
}

TEST(allocator, incremental_reuses_its_workspace) {
    // The simulator and the AP keep one workspace for every join: reused
    // across occupancies of any size, it gives the reference's answers,
    // never reallocates its map and leaves it clear after each call.
    const shift_allocator alloc(default_alloc());
    allocation_workspace ws;
    alloc.reserve(ws);
    const std::uint8_t* const map = ws.taken.data();
    ns::util::rng gen(7);
    for (int trial = 0; trial < 60; ++trial) {
        const auto count = static_cast<std::size_t>(gen.uniform_int(0, 254));
        occupancy occupied;
        for (std::size_t i = 0; i < count; ++i) {
            const auto slot = static_cast<std::size_t>(gen.uniform_int(0, 253));
            occupied.emplace_back(alloc.placement_order()[slot],
                                  std::round(gen.uniform(-120.0, -80.0)));
        }
        const double power = std::round(gen.uniform(-120.0, -80.0));
        EXPECT_EQ(alloc.assign_incremental(power, occupied, ws),
                  pairwise_incremental(alloc, power, occupied))
            << "trial " << trial;
        EXPECT_EQ(ws.taken.data(), map);
        EXPECT_EQ(std::count(ws.taken.begin(), ws.taken.end(), 0), 512);
    }
}

// ------------------------------------------------------------------ ap --

/// The AP over a PHY-less table of 300 devices.
struct ap_fixture {
    explicit ap_fixture(allocation_params alloc = default_alloc(2, 0),
                        std::optional<scheduler_params> grouping = std::nullopt)
        : table(300), ap(alloc, grouping, table, 300) {}

    /// Device `id` asks to join at `power_dbm`.
    std::optional<association_response> request(std::uint32_t id, double power_dbm) {
        table.powers.at(id) = power_dbm;
        return ap.handle_association_request({.device_id = id});
    }
    /// The same, then the device's ACK.
    void join(std::uint32_t id, double power_dbm) {
        ASSERT_TRUE(request(id, power_dbm).has_value()) << "device " << id;
        ap.handle_association_ack(id);
    }

    vector_device_table table;
    access_point ap;
};

/// Groups of at most `capacity` devices within 35 dB.
std::optional<scheduler_params> grouping(std::size_t capacity) {
    return scheduler_params{.group_capacity = capacity, .max_dynamic_range_db = 35.0};
}

TEST(ap, association_flow_assigns_and_acks) {
    ap_fixture f;
    const std::optional<association_response> response = f.request(7, -100.0);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(f.table.shift(7), response->shift_slot * 2u);
    // The response rides on queries until the ACK arrives (§3.3.4).
    EXPECT_TRUE(f.ap.build_query().response.has_value());
    EXPECT_FALSE(f.ap.acked(7));
    f.ap.handle_association_ack(7);
    EXPECT_FALSE(f.ap.build_query().response.has_value());
    EXPECT_TRUE(f.ap.acked(7));
}

TEST(ap, ack_for_unknown_device_is_counted_noop) {
    // A lossy control channel can replay an ACK after the sender was
    // evicted, or corrupt the id field: the AP must absorb it, not abort.
    ap_fixture f;
    f.ap.handle_association_ack(99);
    f.ap.handle_association_ack(100000);  // outside the universe
    EXPECT_EQ(f.ap.active_count(), 0u);
    f.join(7, -100.0);
    EXPECT_TRUE(f.ap.acked(7));
    EXPECT_EQ(f.ap.unknown_acks(), 2u);
    EXPECT_EQ(f.ap.duplicate_acks(), 0u);
}

TEST(ap, duplicate_ack_is_counted_noop) {
    ap_fixture f;
    f.join(7, -100.0);
    f.ap.handle_association_ack(7);
    f.ap.handle_association_ack(7);
    EXPECT_TRUE(f.ap.acked(7));
    EXPECT_EQ(f.ap.duplicate_acks(), 2u);
    EXPECT_EQ(f.ap.unknown_acks(), 0u);
}

TEST(ap, unknown_ack_matching_pending_replay_clears_it) {
    // Another device's unknown ACK leaves the replay in place; the
    // pending device's own ACK clears it.
    ap_fixture f;
    ASSERT_TRUE(f.request(5, -100.0).has_value());
    f.ap.handle_association_ack(99);
    EXPECT_TRUE(f.ap.pending_response().has_value());
    f.ap.handle_association_ack(5);
    EXPECT_FALSE(f.ap.pending_response().has_value());
}

TEST(ap, network_ids_unique) {
    ap_fixture f;
    std::set<std::uint8_t> ids;
    for (std::uint32_t d = 0; d < 16; ++d) {
        ids.insert(f.request(d, -100.0).value().network_id);
        f.ap.handle_association_ack(d);
    }
    EXPECT_EQ(ids.size(), 16u);
}

TEST(ap, join_past_the_data_slots_is_refused_and_counted) {
    // SF9, SKIP 2 and two association slots leave 254 data slots: the
    // 255th request is refused, nothing throws and the table is as it was.
    ap_fixture f(default_alloc(2, 2));
    for (std::uint32_t d = 0; d < 254; ++d) f.join(d, -100.0);
    const std::vector<std::uint32_t> shifts = f.ap.active_shifts();
    std::optional<association_response> refused;
    EXPECT_NO_THROW(refused = f.request(254, -100.0));
    EXPECT_FALSE(refused.has_value());
    EXPECT_EQ(f.ap.rejected_requests(), 1u);
    EXPECT_FALSE(f.ap.is_member(254));
    EXPECT_EQ(f.ap.active_shifts(), shifts);
    EXPECT_FALSE(f.ap.pending_response().has_value());
}

TEST(ap, member_rerequest_at_the_same_power_gets_its_own_shift_back) {
    // The network-id case's input. A re-requesting member is dropped
    // before it is placed, so its shift is free again.
    ap_fixture f;
    for (std::uint32_t d = 0; d < 16; ++d) f.join(d, -100.0);
    const std::vector<std::uint32_t> shifts = f.ap.active_shifts();
    for (const std::uint32_t d : {0u, 5u, 15u}) {
        ASSERT_TRUE(f.request(d, -100.0).has_value());
        EXPECT_EQ(f.ap.active_shifts(), shifts) << "device " << d;
        EXPECT_FALSE(f.ap.acked(d));  // a fresh handshake
    }
    EXPECT_EQ(f.ap.full_reassignments(), 0u);
}

TEST(ap, infeasible_join_triggers_full_reassignment) {
    ap_fixture f;
    f.join(0, -50.0);
    // A newcomer 60 dB weaker cannot be placed incrementally.
    ASSERT_TRUE(f.request(1, -110.0).has_value());
    EXPECT_EQ(f.ap.full_reassignments(), 1u);
    const query_message query = f.ap.build_query();
    EXPECT_TRUE(query.full_reassignment);
    EXPECT_EQ(query.length_bits(), 1760u + 16u);  // + piggybacked response
    // Exactly one query carries the field; an incremental join does not
    // raise it again.
    EXPECT_FALSE(f.ap.build_query().full_reassignment);
    f.join(2, -80.0);
    EXPECT_EQ(f.ap.full_reassignments(), 1u);
    EXPECT_FALSE(f.ap.build_query().full_reassignment);
}

TEST(ap, regroup_by_signal_strength) {
    ap_fixture f(default_alloc(2, 0), grouping(4));
    for (std::uint32_t d = 0; d < 8; ++d) f.join(d, -90.0 - 5.0 * d);
    EXPECT_EQ(f.ap.regroup(), 8u);
    // The four strongest share group 0; each group has its own shifts.
    for (std::uint32_t d = 0; d < 8; ++d) EXPECT_EQ(f.ap.group_of(d), d / 4);
    EXPECT_EQ(f.table.shift(0), f.table.shift(4));
    // The 35 dB limit cuts where the capacity would not.
    ap_fixture wide(default_alloc(2, 0), grouping(16));
    for (std::uint32_t d = 0; d < 8; ++d) wide.join(d, -90.0 - 6.0 * d);
    wide.ap.regroup();
    EXPECT_EQ(wide.ap.num_groups(), 2u);
}

TEST(ap, regroup_breaks_power_ties_by_id) {
    // Joining in descending id order makes the groups {3, 2} and {1, 0}.
    ap_fixture f(default_alloc(2, 0), grouping(2));
    for (std::uint32_t d = 4; d-- > 0;) f.join(d, -90.0);
    EXPECT_EQ(f.ap.group_of(3), 0u);
    f.ap.regroup();
    for (std::uint32_t d = 0; d < 4; ++d) EXPECT_EQ(f.ap.group_of(d), d / 2);
}

TEST(ap, regroup_validates_capacity) {
    vector_device_table table(4);
    EXPECT_THROW(access_point(default_alloc(2, 0), grouping(0), table, 4),
                 ns::util::invalid_argument);
    access_point ungrouped(default_alloc(2, 0), std::nullopt, table, 4);
    EXPECT_THROW(ungrouped.regroup(), ns::util::invalid_argument);
}

TEST(ap, misfit_that_would_open_group_257_is_refused) {
    ap_fixture f(default_alloc(2, 0), grouping(1));
    for (std::uint32_t d = 0; d < access_point::max_groups; ++d) f.join(d, -100.0);
    EXPECT_FALSE(f.request(256, -100.0).has_value());
    EXPECT_EQ(f.ap.rejected_requests(), 1u);
    EXPECT_EQ(f.ap.num_groups(), 256u);
    EXPECT_FALSE(f.ap.is_member(256));
}

TEST(ap, scheduled_group_is_round_robin) {
    ap_fixture f(default_alloc(2, 0), grouping(1));
    EXPECT_FALSE(f.ap.scheduled_group(1).has_value());  // no group yet
    for (std::uint32_t d = 0; d < 3; ++d) f.join(d, -100.0);
    EXPECT_EQ(f.ap.scheduled_group(0), 0u);
    EXPECT_EQ(f.ap.scheduled_group(4), 1u);
}

// --------------------------------------------------------------- aloha --

TEST(aloha, transmits_within_window) {
    aloha_backoff backoff(4, 64, ns::util::rng(1));
    int rounds = 0;
    while (!backoff.should_transmit()) ++rounds;
    EXPECT_LT(rounds, 4);
}

TEST(aloha, collision_doubles_window_up_to_max) {
    aloha_backoff backoff(4, 16, ns::util::rng(2));
    backoff.on_collision();
    EXPECT_EQ(backoff.current_window(), 8u);
    backoff.on_collision();
    EXPECT_EQ(backoff.current_window(), 16u);
    backoff.on_collision();
    EXPECT_EQ(backoff.current_window(), 16u);  // clamped
}

TEST(aloha, success_resets_window) {
    aloha_backoff backoff(4, 64, ns::util::rng(3));
    backoff.on_collision();
    backoff.on_collision();
    backoff.on_success();
    EXPECT_EQ(backoff.current_window(), 4u);
}

TEST(aloha, validates_parameters) {
    EXPECT_THROW(aloha_backoff(0, 4, ns::util::rng(4)), ns::util::invalid_argument);
    EXPECT_THROW(aloha_backoff(8, 4, ns::util::rng(4)), ns::util::invalid_argument);
}

TEST(aloha, contention_resolves_two_devices) {
    // Two contenders with backoff eventually transmit in different
    // rounds.
    aloha_backoff a(2, 64, ns::util::rng(5));
    aloha_backoff b(2, 64, ns::util::rng(6));
    bool resolved = false;
    for (int round = 0; round < 200 && !resolved; ++round) {
        const bool ta = a.should_transmit();
        const bool tb = b.should_transmit();
        if (ta && tb) {
            a.on_collision();
            b.on_collision();
        } else if (ta || tb) {
            resolved = true;
        }
    }
    EXPECT_TRUE(resolved);
}

TEST(aloha, contention_pool_drains_a_burst_of_joiners) {
    // 24 simultaneous joiners on one shift: the pool must admit them one
    // grant per round, with collisions forcing the backoff to spread.
    ns::util::rng rng(9);
    aloha_contention pool(2, 64);
    for (std::uint32_t id = 0; id < 24; ++id) {
        pool.add(id, ns::device::snr_region::high, rng.fork());
    }
    std::size_t granted = 0, collisions = 0, rounds = 0;
    for (; rounds < 2000 && !pool.empty(); ++rounds) {
        const contention_round round = pool.step(1);
        EXPECT_LE(round.granted.size(), 1u);
        granted += round.granted.size();
        collisions += round.collisions;
    }
    EXPECT_TRUE(pool.empty());
    EXPECT_EQ(granted, 24u);
    EXPECT_GT(collisions, 0u);    // a same-shift burst must collide
    EXPECT_GT(rounds, 24u);       // collisions cost extra rounds
}

TEST(aloha, contention_pool_grants_one_per_region_when_budget_allows) {
    // One contender per region with window 1: both transmit round 1; two
    // grants fit a 2-grant budget, regions never collide with each other.
    ns::util::rng rng(11);
    aloha_contention pool(1, 4);
    pool.add(7, ns::device::snr_region::high, rng.fork());
    pool.add(9, ns::device::snr_region::low, rng.fork());
    const contention_round round = pool.step(2);
    ASSERT_EQ(round.granted.size(), 2u);
    EXPECT_EQ(round.granted[0], 7u);  // high-SNR region granted first
    EXPECT_EQ(round.granted[1], 9u);
    EXPECT_EQ(round.collisions, 0u);
    EXPECT_EQ(round.requests, 2u);
    EXPECT_TRUE(pool.empty());
}

TEST(aloha, contention_pool_defers_beyond_grant_budget_without_penalty) {
    ns::util::rng rng(13);
    aloha_contention pool(1, 4);
    pool.add(1, ns::device::snr_region::high, rng.fork());
    pool.add(2, ns::device::snr_region::low, rng.fork());
    // Budget 0 (e.g. the network is full): both transmit, neither is
    // granted nor penalized; with window 1 they transmit again next
    // round and a budget of 2 admits both.
    const contention_round starved = pool.step(0);
    EXPECT_EQ(starved.requests, 2u);
    EXPECT_EQ(starved.collisions, 0u);
    EXPECT_TRUE(starved.granted.empty());
    EXPECT_EQ(pool.size(), 2u);
    const contention_round served = pool.step(2);
    EXPECT_EQ(served.granted.size(), 2u);
}

TEST(aloha, contention_pool_remove_abandons_contender) {
    ns::util::rng rng(15);
    aloha_contention pool(2, 8);
    pool.add(5, ns::device::snr_region::high, rng.fork());
    EXPECT_TRUE(pool.contains(5));
    pool.remove(5);
    EXPECT_FALSE(pool.contains(5));
    EXPECT_TRUE(pool.empty());
}

TEST(aloha, sustained_collisions_bound_the_retry_gap) {
    // Under 100% collision (every transmission reported collided) the
    // window saturates at max_window and stays there — so the gap between
    // consecutive retries is bounded by max_window rounds: the device
    // never starves, it keeps retrying within a bounded window forever.
    constexpr std::uint32_t kMaxWindow = 16;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        aloha_backoff backoff(2, kMaxWindow, ns::util::rng(seed));
        int since_last_tx = 0;
        int transmissions = 0;
        for (int round = 0; round < 2000; ++round) {
            if (backoff.should_transmit()) {
                ++transmissions;
                since_last_tx = 0;
                backoff.on_collision();
                EXPECT_LE(backoff.current_window(), kMaxWindow);
            } else {
                ++since_last_tx;
                // A counter is always drawn in [0, window): the silence
                // between retries can never exceed the window bound.
                EXPECT_LT(since_last_tx, static_cast<int>(kMaxWindow));
            }
        }
        // No starvation: with gaps bounded by 16 rounds, 2000 rounds must
        // yield at least 2000/16 retries.
        EXPECT_GE(transmissions, 2000 / static_cast<int>(kMaxWindow));
    }
}

TEST(aloha, sustained_collision_schedule_is_seed_deterministic) {
    // Identical seeds must replay the identical retry schedule; distinct
    // seeds are allowed to (and here do) desynchronize.
    auto schedule = [](std::uint64_t seed) {
        aloha_backoff backoff(2, 32, ns::util::rng(seed));
        std::vector<int> tx_rounds;
        for (int round = 0; round < 500; ++round) {
            if (backoff.should_transmit()) {
                tx_rounds.push_back(round);
                backoff.on_collision();
            }
        }
        return tx_rounds;
    };
    EXPECT_EQ(schedule(42), schedule(42));
    EXPECT_EQ(schedule(7), schedule(7));
    EXPECT_NE(schedule(42), schedule(7));
}

TEST(aloha, contention_pool_survives_sustained_full_collision) {
    // Two same-region contenders collide whenever their counters expire
    // together; even when the pool sees long collision streaks neither
    // device's window exceeds the max and both keep transmitting.
    ns::util::rng rng(99);
    aloha_contention pool(2, 8);
    pool.add(1, ns::device::snr_region::high, rng.fork());
    pool.add(2, ns::device::snr_region::high, rng.fork());
    std::size_t total_requests = 0;
    std::size_t rounds = 0;
    // Grant budget 0: even lone (uncollided) requests are deferred, so
    // nobody ever leaves the pool — sustained contention by construction.
    for (; rounds < 512; ++rounds) {
        const contention_round outcome = pool.step(0);
        total_requests += outcome.requests;
        EXPECT_TRUE(pool.contains(1));
        EXPECT_TRUE(pool.contains(2));
    }
    // Bounded windows imply a minimum request rate: each contender
    // transmits at least once per max_window=8 rounds.
    EXPECT_GE(total_requests, 2 * rounds / 8);
}

TEST(scheduler, admit_prefers_least_stretch_and_respects_range) {
    const group_scheduler scheduler({.group_capacity = 4, .max_dynamic_range_db = 10.0});
    const std::vector<group_span> groups = {
        {.members = 2, .min_power_dbm = -60.0, .max_power_dbm = -55.0},
        {.members = 2, .min_power_dbm = -75.0, .max_power_dbm = -70.0},
    };
    // -64 dBm fits group 0 with a 4 dB stretch; group 1 would need 11 dB.
    EXPECT_EQ(scheduler.admit(groups, -64.0), std::optional<std::size_t>(0));
    // -68 dBm fits only group 1 (group 0 would stretch to 13 dB).
    EXPECT_EQ(scheduler.admit(groups, -68.0), std::optional<std::size_t>(1));
    // -90 dBm fits neither: misfit.
    EXPECT_FALSE(scheduler.admit(groups, -90.0).has_value());
    // A full group never admits.
    const std::vector<group_span> full = {
        {.members = 4, .min_power_dbm = -60.0, .max_power_dbm = -55.0}};
    EXPECT_FALSE(scheduler.admit(full, -57.0).has_value());
    // An emptied group admits anything with zero stretch.
    const std::vector<group_span> emptied = {
        {.members = 0, .min_power_dbm = -60.0, .max_power_dbm = -55.0}};
    EXPECT_EQ(scheduler.admit(emptied, -90.0), std::optional<std::size_t>(0));
}

}  // namespace
