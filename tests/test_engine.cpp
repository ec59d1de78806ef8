// Unit tests for ns::engine — block_runner and run_indexed, seed
// splitting, shared FFT plans.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "netscatter/dsp/fft.hpp"
#include "netscatter/engine/block_runner.hpp"
#include "netscatter/engine/fft_plan.hpp"
#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using namespace ns::engine;

// --------------------------------------------------------- block_runner --

TEST(block_runner, every_block_runs_exactly_once) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
        block_runner runner(threads);
        EXPECT_EQ(runner.size(), threads);
        constexpr std::size_t n = 1000;
        std::vector<std::atomic<int>> visits(n);
        runner.run(
            n,
            [](void* ctx, std::size_t block) {
                ++(*static_cast<std::vector<std::atomic<int>>*>(ctx))[block];
            },
            &visits);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(visits[i].load(), 1) << threads << " threads, block " << i;
        }
    }
}

TEST(block_runner, lowest_index_error_wins_after_every_block_runs) {
    for (const std::size_t threads : {1u, 8u}) {
        block_runner runner(threads);
        std::atomic<int> completed{0};
        try {
            runner.run(
                64,
                [](void* ctx, std::size_t block) {
                    if (block == 13) {
                        // Give block 40 every chance to fail first.
                        std::this_thread::sleep_for(std::chrono::milliseconds(5));
                        throw std::runtime_error("block 13");
                    }
                    if (block == 40) throw std::runtime_error("block 40");
                    ++*static_cast<std::atomic<int>*>(ctx);
                },
                &completed);
            ADD_FAILURE() << "run() did not rethrow";
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "block 13") << threads << " threads";
        }
        // No early abandonment: every other block still ran.
        EXPECT_EQ(completed.load(), 62) << threads << " threads";
    }
}

TEST(run_indexed, zero_threads_keeps_index_order) {
    EXPECT_GE(block_runner::hardware_threads(), 1u);
    const std::vector<std::size_t> squares = run_indexed(
        100, {.num_threads = 0}, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(run_indexed, one_thread_runs_inline_in_index_order) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    const auto on_caller = run_indexed(10, {.num_threads = 1}, [&](std::size_t i) {
        order.push_back(i);
        return std::this_thread::get_id() == caller ? 1 : 0;
    });
    EXPECT_EQ(on_caller, std::vector<int>(10, 1));
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// ----------------------------------------------------------- split_seed --

TEST(split_seed, deterministic_and_distinct) {
    EXPECT_EQ(split_seed(1, 2, 3), split_seed(1, 2, 3));
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
        for (std::uint64_t stream = 0; stream < 4; ++stream) {
            for (std::uint64_t block = 0; block < 8; ++block) {
                seen.insert(split_seed(base, stream, block));
            }
        }
    }
    EXPECT_EQ(seen.size(), 3u * 4u * 8u);  // no collisions across the grid
}

// ------------------------------------------------------------- fft_plan --

ns::dsp::cvec random_vector(std::size_t n, std::uint64_t seed) {
    ns::util::rng gen(seed);
    ns::dsp::cvec v(n);
    for (auto& x : v) x = ns::dsp::cplx{gen.gaussian(), gen.gaussian()};
    return v;
}

TEST(fft_plan, rejects_non_power_of_two) {
    EXPECT_THROW(fft_plan(12), ns::util::invalid_argument);
    EXPECT_THROW(fft_plan(0), ns::util::invalid_argument);
}

TEST(fft_plan, inverse_roundtrip) {
    const std::size_t n = 256;
    const ns::dsp::cvec input = random_vector(n, 5);
    ns::dsp::cvec data = input;
    const fft_plan plan(n);
    plan.forward(data);
    plan.inverse(data);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(data[i].real(), input[i].real(), 1e-9);
        EXPECT_NEAR(data[i].imag(), input[i].imag(), 1e-9);
    }
}

TEST(fft_plan, plan_rejects_mismatched_size) {
    const fft_plan plan(64);
    ns::dsp::cvec data(32);
    EXPECT_THROW(plan.forward(data), ns::util::invalid_argument);
}

TEST(fft_plan, cache_shares_one_plan_per_size) {
    const auto a = get_fft_plan(1024);
    const auto other = get_fft_plan(2048);  // evicts the per-thread memo
    const auto b = get_fft_plan(1024);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), other.get());
    EXPECT_EQ(a->size(), 1024u);
}

TEST(fft_plan, fft_scratch_resizes) {
    auto& small = fft_scratch(16);
    EXPECT_EQ(small.size(), 16u);
    auto& big = fft_scratch(64);
    EXPECT_EQ(big.size(), 64u);
}

TEST(fft_plan, concurrent_transforms_are_correct) {
    // Many threads hammering the same cached plan must all get the right
    // answer (shared plans are immutable; scratch is per-thread).
    const std::size_t n = 512;
    const ns::dsp::cvec input = random_vector(n, 77);
    const ns::dsp::cvec expected = ns::dsp::fft(input);

    const std::vector<std::size_t> mismatches =
        run_indexed(64, {.num_threads = 8}, [&](std::size_t) {
            const ns::dsp::cvec out = ns::dsp::fft(input);
            std::size_t wrong = 0;
            for (std::size_t i = 0; i < n; ++i) wrong += out[i] != expected[i];
            return wrong;
        });
    EXPECT_EQ(mismatches, std::vector<std::size_t>(64, 0));
}

}  // namespace
