// Fixed-size thread pool for the parallel execution engine.
//
// The network-scale sweeps (Figs. 17-19) decompose into hundreds of
// independent (sweep cell, replica) simulations, and a production
// AP would decode rounds from many antennas/channels concurrently. This
// pool is deliberately simple — one shared FIFO queue, no work stealing —
// because engine tasks are coarse (milliseconds to seconds each), so
// queue contention is negligible and simplicity wins: exceptions
// propagate through std::future, shutdown is deterministic, and task
// order is whatever the caller submits (run_indexed relies on merging
// by task index, never on completion order).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ns::engine {

class thread_pool {
public:
    /// Process-wide queue counters across all pools (relaxed atomics —
    /// host-execution data for the metrics report's "process" section,
    /// never part of determinism comparisons). `queue_peak` is the
    /// largest queue depth observed at enqueue time. All zero under
    /// NS_OBS=OFF.
    struct pool_stats {
        std::uint64_t tasks_submitted = 0;
        std::uint64_t tasks_executed = 0;
        std::uint64_t queue_peak = 0;
    };
    static pool_stats stats();
    static void reset_stats();

    /// Spawns `num_threads` workers; 0 means hardware_concurrency()
    /// (at least 1).
    explicit thread_pool(std::size_t num_threads = 0);

    /// Joins all workers. Tasks already queued are completed first.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Number of worker threads.
    std::size_t size() const { return workers_.size(); }

    /// Hardware concurrency clamped to at least 1.
    static std::size_t default_thread_count();

    /// Schedules `fn` and returns a future for its result. An exception
    /// thrown by `fn` is captured and rethrown by future::get().
    /// Throws ns::util::invalid_state after shutdown().
    template <typename F>
    auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
        using result_t = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<result_t()>>(
            std::forward<F>(fn));
        std::future<result_t> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /// Runs body(i) for every i in [begin, end) across the pool, blocking
    /// until all iterations finish. Iterations are dispatched in
    /// contiguous chunks of at most `grain` indices. The first exception
    /// thrown by any iteration (in index order of the chunks) is
    /// rethrown; remaining chunks still run to completion.
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& body,
                      std::size_t grain = 1);

    /// Stops accepting tasks and joins the workers after the queue
    /// drains. Idempotent; the destructor calls it.
    void shutdown();

private:
    void enqueue(std::function<void()> task);
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/// Persistent fork-join helper for fine-grained intra-round fan-out.
///
/// thread_pool::parallel_for allocates per call (type-erased tasks,
/// futures), which is fine for coarse Monte-Carlo tasks but would break
/// the fast path's zero-steady-state-allocation contract if invoked
/// every round. block_runner instead parks `num_threads - 1` workers on
/// a condition variable; each run() hands them a plain function pointer
/// plus context and a shared atomic block cursor, and the calling thread
/// claims blocks alongside them. Steady-state run() calls allocate
/// nothing, so the alloc.* determinism counters stay bit-identical with
/// intra-round parallelism on or off.
class block_runner {
public:
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
    /// callers must make each block's result independent of claim order
    /// (the fast path writes disjoint per-symbol spectra). One exception
    /// thrown by a block is rethrown on the caller after the join; which
    /// one survives is unspecified when several blocks throw. Not
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
    bool stop_ = false;
};

}  // namespace ns::engine
