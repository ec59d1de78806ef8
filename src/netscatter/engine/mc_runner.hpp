// Deterministic parallel Monte-Carlo fan-out.
//
// Every Monte-Carlo run in the repo — a scenario's replicas, a sweep's
// (cell, replica) pairs — is a list of independent tasks, each a pure
// function of its index that derives its RNG streams by seed-splitting
// (split_seed). run_indexed executes such a list on a block_runner and
// returns the results in index order — never completion order — so a
// run on any thread count is bit-identical to the one-thread run, which
// executes every task on the calling thread in index order. That
// determinism is the contract tests/test_scenario.cpp and
// tests/test_spec.cpp enforce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "netscatter/engine/block_runner.hpp"

namespace ns::engine {

/// Derives an independent child seed for (stream, block) from a base
/// seed. Built on splitmix64 so nearby inputs give uncorrelated streams;
/// pure function, identical on every platform.
std::uint64_t split_seed(std::uint64_t base, std::uint64_t stream, std::uint64_t block);

/// Execution policy for a Monte-Carlo run.
struct mc_options {
    /// Threads running tasks, the caller included; 0 means
    /// block_runner::hardware_threads(). 1 runs every task on the calling
    /// thread, in task order — the serial reference.
    std::size_t num_threads = 0;
};

/// Runs `count` independent tasks — each a pure function of its index —
/// on min(threads, count) threads per `options`, and returns the results
/// in index order. If tasks throw, the lowest-index failure is rethrown
/// after every task has run. The result type must be default-constructible
/// (slots are pre-allocated) and must not be bool: std::vector<bool> packs
/// bits, so concurrent writes to distinct indices would race — wrap a
/// bool in a struct instead.
template <typename Task>
auto run_indexed(std::size_t count, const mc_options& options, Task&& task)
    -> std::vector<std::invoke_result_t<Task&, std::size_t>> {
    using result_t = std::invoke_result_t<Task&, std::size_t>;
    static_assert(!std::is_same_v<result_t, bool>,
                  "run_indexed: bool results race in vector<bool>; "
                  "wrap the flag in a struct");
    std::vector<result_t> results(count);
    struct context {
        Task& task;
        std::vector<result_t>& results;
    } ctx{task, results};
    const std::size_t threads = options.num_threads == 0
                                    ? block_runner::hardware_threads()
                                    : options.num_threads;
    block_runner runner(std::min(threads, count));
    runner.run(
        count,
        [](void* raw, std::size_t i) {
            auto& c = *static_cast<context*>(raw);
            c.results[i] = c.task(i);
        },
        &ctx);
    return results;
}

}  // namespace ns::engine
