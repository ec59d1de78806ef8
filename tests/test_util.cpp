// Unit tests for ns::util — RNG, CRC, bit packing, statistics, tables,
// unit conversions.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <utility>

#include "netscatter/util/bits.hpp"
#include "netscatter/util/crc.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"
#include "netscatter/util/stats.hpp"
#include "netscatter/util/table.hpp"
#include "netscatter/util/units.hpp"

namespace {

using namespace ns::util;

// ---------------------------------------------------------------- rng --

TEST(rng, same_seed_same_stream) {
    rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(rng, different_seeds_different_streams) {
    rng a(1), b(2);
    int differences = 0;
    for (int i = 0; i < 32; ++i) {
        if (a() != b()) ++differences;
    }
    EXPECT_GT(differences, 24);
}

TEST(rng, uniform_in_unit_interval) {
    rng gen(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = gen.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(rng, uniform_range_respects_bounds) {
    rng gen(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = gen.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(rng, uniform_mean_near_half) {
    rng gen(11);
    running_stats stats;
    for (int i = 0; i < 100000; ++i) stats.add(gen.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(rng, uniform_int_covers_range_inclusive) {
    rng gen(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(gen.uniform_int(0, 7));
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(rng, uniform_int_single_value) {
    rng gen(3);
    EXPECT_EQ(gen.uniform_int(5, 5), 5);
}

TEST(rng, uniform_int_rejects_inverted_bounds) {
    rng gen(3);
    EXPECT_THROW(gen.uniform_int(2, 1), invalid_argument);
}

TEST(rng, gaussian_moments) {
    rng gen(13);
    running_stats stats;
    for (int i = 0; i < 200000; ++i) stats.add(gen.gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.variance(), 1.0, 0.03);
}

TEST(rng, gaussian_tail_mass) {
    // The ziggurat's base layer hands |x| > r = 3.4426 to a dedicated
    // exponential-rejection tail sampler; make sure that branch runs and
    // produces the right mass. P(|X| > r) ~ 5.8e-4, so 400k draws
    // expect ~233 tail samples (Poisson sd ~15).
    rng gen(23);
    const double r = 3.442619855899;
    int beyond_r = 0;
    double extreme = 0.0;
    for (int i = 0; i < 400000; ++i) {
        const double x = gen.gaussian();
        if (std::abs(x) > r) ++beyond_r;
        extreme = std::max(extreme, std::abs(x));
    }
    EXPECT_GT(beyond_r, 130);
    EXPECT_LT(beyond_r, 350);
    EXPECT_GT(extreme, r);  // the tail sampler reaches past the layers
    EXPECT_LT(extreme, 6.5);
}

TEST(rng, gaussian_symmetric_and_kurtosis) {
    // Third and fourth standardized moments: skewness 0, kurtosis 3 —
    // the moments a wrong layer table or a biased sign bit would bend.
    rng gen(29);
    double m3 = 0.0, m4 = 0.0, m2 = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = gen.gaussian();
        m2 += x * x;
        m3 += x * x * x;
        m4 += x * x * x * x;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 0.05);
    EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.15);
}

TEST(rng, gaussian_mean_stddev_parameters) {
    rng gen(17);
    running_stats stats;
    for (int i = 0; i < 100000; ++i) stats.add(gen.gaussian(3.0, 2.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

// --- stream pins: the exact output every seeded result depends on ------

/// FNV-1a over the 64-bit patterns of a sequence of draws.
struct fnv_digest {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    void add(std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }
    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
};

/// Whether two generators are in the same state: equal next outputs
/// (compared on copies, so neither argument advances).
bool same_state(rng a, rng b) {
    for (int i = 0; i < 2; ++i) {
        if (a() != b()) return false;
    }
    return true;
}

TEST(rng, raw_and_uniform_streams_are_pinned) {
    fnv_digest raw;
    fnv_digest unit;
    for (const std::uint64_t seed : {1ULL, 0x5eedULL}) {
        rng gen(seed);
        for (int i = 0; i < 1 << 20; ++i) raw.add(gen());
        for (int i = 0; i < 1 << 20; ++i) unit.add(gen.uniform());
    }
    EXPECT_EQ(raw.hash, 0x0c1bd5464b3ca48eULL);
    EXPECT_EQ(unit.hash, 0xff882fc165d2a1f9ULL);
}

TEST(rng, gaussian_stream_and_rejection_paths_are_pinned) {
    // A draw that leaves the ziggurat fast path consumes more than one
    // raw word; the first word's layer (low 7 bits) says which branch
    // took it: layer 0 is the tail beyond r, any other layer a wedge.
    // Counting both pins the out-of-line rejection path along with the
    // values.
    fnv_digest values;
    std::uint64_t wedge = 0;
    std::uint64_t tail = 0;
    for (const std::uint64_t seed : {3ULL, 0xfeedULL}) {
        rng gen(seed);
        for (int i = 0; i < 1 << 20; ++i) {
            rng probe = gen;
            values.add(gen.gaussian());
            const std::uint64_t first = probe();
            if (same_state(probe, gen)) continue;
            ++((first & 127) == 0 ? tail : wedge);
        }
    }
    EXPECT_EQ(values.hash, 0xabd68e2f10ae200bULL);
    EXPECT_EQ(wedge, 56423u);
    EXPECT_EQ(tail, 1198u);
}

TEST(rng, gaussian_with_parameters_is_mean_plus_scaled_standard_draw) {
    // Bitwise, signed zeros included: with mean -0.0 and stddev 0.0 a
    // negative standard draw yields -0.0 and a positive one +0.0.
    const std::pair<double, double> params[] = {
        {0.0, 1.0}, {3.0, 2.0}, {-1.5, 0.25}, {-0.0, 0.0}, {0.0, -0.0}};
    int negative_zeros = 0;
    for (const auto& [mean, stddev] : params) {
        rng a(77), b(77);
        for (int i = 0; i < 4096; ++i) {
            const double expected = mean + stddev * a.gaussian();
            const double actual = b.gaussian(mean, stddev);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(expected),
                      std::bit_cast<std::uint64_t>(actual))
                << "mean " << mean << " stddev " << stddev << " draw " << i;
            if (actual == 0.0 && std::signbit(actual)) ++negative_zeros;
        }
    }
    EXPECT_GT(negative_zeros, 0);
}

TEST(rng, exponential_mean) {
    rng gen(19);
    running_stats stats;
    for (int i = 0; i < 100000; ++i) stats.add(gen.exponential(2.5));
    EXPECT_NEAR(stats.mean(), 2.5, 0.1);
}

TEST(rng, exponential_rejects_nonpositive_mean) {
    rng gen(19);
    EXPECT_THROW(gen.exponential(0.0), invalid_argument);
}

TEST(rng, bernoulli_probability) {
    rng gen(23);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) hits += gen.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

TEST(rng, bits_length_and_balance) {
    rng gen(29);
    const std::vector<bool> bits = gen.bits(10000);
    ASSERT_EQ(bits.size(), 10000u);
    int ones = 0;
    for (bool b : bits) ones += b ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.5, 0.03);
}

TEST(rng, fork_produces_decorrelated_stream) {
    rng parent(31);
    rng child = parent.fork();
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (parent() == child()) ++equal;
    }
    EXPECT_LT(equal, 4);
}

// ---------------------------------------------------------------- crc --

TEST(crc, crc8_empty_is_zero) {
    EXPECT_EQ(crc8({}), 0x00);
}

TEST(crc, crc8_detects_single_bit_flip) {
    rng gen(5);
    std::vector<bool> bits = gen.bits(64);
    const std::uint8_t original = crc8(bits);
    for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = !bits[i];
        EXPECT_NE(crc8(bits), original) << "undetected flip at " << i;
        bits[i] = !bits[i];
    }
}

TEST(crc, append_check_roundtrip) {
    rng gen(6);
    const std::vector<bool> payload = gen.bits(32);
    const std::vector<bool> protected_bits = append_crc8(payload);
    ASSERT_EQ(protected_bits.size(), 40u);
    EXPECT_TRUE(check_crc8(protected_bits));
    EXPECT_EQ(strip_crc8(protected_bits), payload);
}

TEST(crc, check_fails_on_corruption) {
    rng gen(7);
    std::vector<bool> protected_bits = append_crc8(gen.bits(32));
    protected_bits[10] = !protected_bits[10];
    EXPECT_FALSE(check_crc8(protected_bits));
}

TEST(crc, check_fails_on_too_short_input) {
    EXPECT_FALSE(check_crc8(std::vector<bool>(4, true)));
}

TEST(crc, strip_requires_at_least_crc_size) {
    EXPECT_THROW(strip_crc8(std::vector<bool>(4, true)), invalid_argument);
}

TEST(crc, crc16_ccitt_known_value) {
    // CRC-16-CCITT-FALSE of "123456789" is 0x29B1 (standard check value).
    const std::vector<bool> bits =
        bytes_to_bits({'1', '2', '3', '4', '5', '6', '7', '8', '9'});
    EXPECT_EQ(crc16_ccitt(bits), 0x29B1);
}

TEST(crc, crc16_detects_swaps) {
    const std::vector<bool> a = bytes_to_bits({0x01, 0x02});
    const std::vector<bool> b = bytes_to_bits({0x02, 0x01});
    EXPECT_NE(crc16_ccitt(a), crc16_ccitt(b));
}

// --------------------------------------------------------------- bits --

TEST(bits, bytes_to_bits_msb_first) {
    const std::vector<bool> bits = bytes_to_bits({0x80, 0x01});
    ASSERT_EQ(bits.size(), 16u);
    EXPECT_TRUE(bits[0]);
    for (int i = 1; i < 15; ++i) EXPECT_FALSE(bits[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(bits[15]);
}

TEST(bits, roundtrip_bytes) {
    rng gen(9);
    std::vector<std::uint8_t> bytes(64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(gen.uniform_int(0, 255));
    EXPECT_EQ(bits_to_bytes(bytes_to_bits(bytes)), bytes);
}

TEST(bits, bits_to_bytes_requires_multiple_of_8) {
    EXPECT_THROW(bits_to_bytes(std::vector<bool>(7, true)), invalid_argument);
}

TEST(bits, append_and_read_uint_roundtrip) {
    std::vector<bool> bits;
    append_uint(bits, 0xDEADBEEF, 32);
    append_uint(bits, 5, 3);
    std::size_t offset = 0;
    EXPECT_EQ(read_uint(bits, offset, 32), 0xDEADBEEFu);
    EXPECT_EQ(read_uint(bits, offset, 3), 5u);
    EXPECT_EQ(offset, 35u);
}

TEST(bits, read_uint_throws_past_end) {
    std::vector<bool> bits(8, true);
    std::size_t offset = 4;
    EXPECT_THROW(read_uint(bits, offset, 8), invalid_argument);
}

TEST(bits, append_uint_width_bounds) {
    std::vector<bool> bits;
    EXPECT_THROW(append_uint(bits, 1, 0), invalid_argument);
    EXPECT_THROW(append_uint(bits, 1, 65), invalid_argument);
}

TEST(bits, hamming_distance_counts) {
    const std::vector<bool> a = {true, false, true, false};
    const std::vector<bool> b = {true, true, false, false};
    EXPECT_EQ(hamming_distance(a, b), 2u);
    EXPECT_EQ(hamming_distance(a, a), 0u);
}

TEST(bits, hamming_distance_length_mismatch_throws) {
    EXPECT_THROW(hamming_distance({true}, {true, false}), invalid_argument);
}

// -------------------------------------------------------------- stats --

TEST(stats, running_stats_basic) {
    running_stats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(stats, running_stats_empty_and_single) {
    running_stats stats;
    EXPECT_EQ(stats.variance(), 0.0);
    stats.add(3.0);
    EXPECT_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(stats, percentile_median_and_extremes) {
    const std::vector<double> samples = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(samples, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(samples, 1.0), 5.0);
}

TEST(stats, percentile_interpolates) {
    const std::vector<double> samples = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(samples, 0.25), 2.5);
}

TEST(stats, percentile_rejects_bad_input) {
    EXPECT_THROW(percentile({}, 0.5), invalid_argument);
    EXPECT_THROW(percentile({1.0}, 1.5), invalid_argument);
}

TEST(stats, empirical_cdf_monotone_ends_at_one) {
    rng gen(33);
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i) samples.push_back(gen.gaussian());
    const auto cdf = empirical_cdf(samples);
    ASSERT_FALSE(cdf.empty());
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GT(cdf[i].x, cdf[i - 1].x);
        EXPECT_GE(cdf[i].probability, cdf[i - 1].probability);
    }
    EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
}

TEST(stats, cdf_and_ccdf_are_complementary) {
    const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(cdf_at(samples, 2.5), 0.5);
    EXPECT_DOUBLE_EQ(ccdf_at(samples, 2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf_at(samples, 2.5) + ccdf_at(samples, 2.5), 1.0);
}

TEST(stats, mean_and_variance_of_vector) {
    const std::vector<double> samples = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(mean_of(samples), 2.0);
    EXPECT_DOUBLE_EQ(variance_of(samples), 1.0);
}

// -------------------------------------------------------------- table --

TEST(table, aligned_output_contains_cells) {
    text_table table("demo", {"a", "bb"});
    table.add_row({"1", "2"});
    table.add_numeric_row({3.5, 4.25}, 2);
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("3.5"), std::string::npos);
    EXPECT_NE(text.find("4.25"), std::string::npos);
    EXPECT_EQ(table.row_count(), 2u);
}

TEST(table, csv_output) {
    text_table table("demo", {"x", "y"});
    table.add_row({"1", "2"});
    std::ostringstream out;
    table.print_csv(out);
    EXPECT_EQ(out.str(), "x,y\n1,2\n");
}

TEST(table, rejects_mismatched_row) {
    text_table table("demo", {"x", "y"});
    EXPECT_THROW(table.add_row({"only one"}), invalid_argument);
}

TEST(table, format_double_trims_zeros) {
    EXPECT_EQ(format_double(1.5, 3), "1.5");
    EXPECT_EQ(format_double(2.0, 3), "2");
    EXPECT_EQ(format_double(0.125, 3), "0.125");
}

// -------------------------------------------------------------- units --

TEST(units, db_linear_roundtrip) {
    for (double db : {-30.0, -3.0, 0.0, 10.0, 27.5}) {
        EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-12);
    }
}

TEST(units, db_reference_points) {
    EXPECT_NEAR(db_to_linear(3.0103), 2.0, 1e-3);
    EXPECT_DOUBLE_EQ(db_to_linear(0.0), 1.0);
}

TEST(units, dbm_watt_roundtrip) {
    EXPECT_NEAR(dbm_to_watt(30.0), 1.0, 1e-12);
    EXPECT_NEAR(watt_to_dbm(0.001), 0.0, 1e-12);
    EXPECT_NEAR(watt_to_dbm(dbm_to_watt(-123.0)), -123.0, 1e-9);
}

TEST(units, noise_floor_matches_paper_band) {
    // -174 + 10log10(500 kHz) + 6 = -111 dBm: the floor the -123 dBm
    // SF 9 sensitivity sits 12.5 dB below.
    EXPECT_NEAR(noise_floor_dbm(500e3, 6.0), -111.0, 0.05);
}

}  // namespace
