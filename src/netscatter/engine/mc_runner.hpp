// Deterministic parallel Monte-Carlo fan-out.
//
// Every Monte-Carlo run in the repo — a scenario's replicas, a sweep's
// (cell, replica) pairs — is a list of independent tasks, each a pure
// function of its index that derives its RNG streams by seed-splitting
// (split_seed). run_indexed executes such a list serially or across a
// thread pool and returns the results in index order — never completion
// order — so the parallel run is bit-identical to the serial run on any
// thread count. That determinism is the contract tests/test_scenario.cpp
// and tests/test_spec.cpp enforce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "netscatter/engine/thread_pool.hpp"

namespace ns::engine {

/// Derives an independent child seed for (stream, block) from a base
/// seed. Built on splitmix64 so nearby inputs give uncorrelated streams;
/// pure function, identical on every platform.
std::uint64_t split_seed(std::uint64_t base, std::uint64_t stream, std::uint64_t block);

/// Execution policy for a Monte-Carlo run.
struct mc_options {
    /// Worker threads; 0 means hardware_concurrency().
    std::size_t num_threads = 0;
    /// When false every task runs on the calling thread, in task order —
    /// the serial reference the parallel path must match bit-for-bit.
    bool parallel = true;
};

/// Runs `count` independent tasks — each a pure function of its index —
/// serially or across a pool per `options`, and returns the results in
/// index order. The pool never has more workers than tasks. The result
/// type must be default-constructible (slots are pre-allocated) and
/// must not be bool: std::vector<bool> packs bits, so concurrent writes
/// to distinct indices would race — wrap a bool in a struct instead.
template <typename Task>
auto run_indexed(std::size_t count, const mc_options& options, Task&& task)
    -> std::vector<std::invoke_result_t<Task&, std::size_t>> {
    using result_t = std::invoke_result_t<Task&, std::size_t>;
    static_assert(!std::is_same_v<result_t, bool>,
                  "run_indexed: bool results race in vector<bool>; "
                  "wrap the flag in a struct");
    std::vector<result_t> results(count);
    const auto run_one = [&](std::size_t i) { results[i] = task(i); };
    if (options.parallel && count > 1) {
        const std::size_t configured = options.num_threads == 0
                                           ? thread_pool::default_thread_count()
                                           : options.num_threads;
        thread_pool pool(std::min(configured, count));
        pool.parallel_for(0, count, run_one);
    } else {
        for (std::size_t i = 0; i < count; ++i) run_one(i);
    }
    return results;
}

}  // namespace ns::engine
