// The execution engine's one worker pool: a persistent fork-join runner.
//
// Both levels of parallelism in the simulator are a list of independent
// blocks whose results land in disjoint, index-addressed slots: the
// Monte-Carlo replicas of a scenario or sweep (run_indexed), and the
// symbol blocks of one round's fast-path sweep (superposition). Neither
// needs futures or a task queue. block_runner parks `num_threads - 1`
// workers on a condition variable; each run() hands them a plain function
// pointer plus context and a shared atomic block cursor, and the calling
// thread claims blocks alongside them. Steady-state run() calls allocate
// nothing, so the alloc.* determinism counters stay bit-identical with
// intra-round parallelism on or off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ns::engine {

class block_runner {
public:
    /// Hardware concurrency clamped to at least 1.
    static std::size_t hardware_threads();

    /// Spawns `num_threads - 1` parked workers (the caller is the last
    /// participant); num_threads <= 1 means run() executes inline.
    explicit block_runner(std::size_t num_threads);

    /// Joins the workers. Must not race an in-flight run().
    ~block_runner();

    block_runner(const block_runner&) = delete;
    block_runner& operator=(const block_runner&) = delete;

    /// Threads participating in run(): parked workers + the caller.
    std::size_t size() const { return workers_.size() + 1; }

    /// Runs body(context, block) for every block in [0, num_blocks),
    /// blocking until all complete. Blocks are claimed dynamically, so
    /// callers must make each block's result independent of claim order;
    /// inline runs go in block order. A throwing block does not stop the
    /// others: after every block has run, the exception of the
    /// lowest-index failing block is rethrown on the caller. Not
    /// reentrant.
    void run(std::size_t num_blocks, void (*body)(void*, std::size_t),
             void* context);

private:
    void worker_loop();
    void claim_blocks();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    std::uint64_t generation_ = 0;
    std::size_t finished_workers_ = 0;
    std::size_t num_blocks_ = 0;
    void (*body_)(void*, std::size_t) = nullptr;
    void* context_ = nullptr;
    std::atomic<std::size_t> next_block_{0};
    std::exception_ptr first_error_;
    std::size_t first_error_block_ = 0;
    bool stop_ = false;
};

}  // namespace ns::engine
