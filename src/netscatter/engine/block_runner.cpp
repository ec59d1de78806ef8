#include "netscatter/engine/block_runner.hpp"

#include <utility>

namespace ns::engine {

std::size_t block_runner::hardware_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

block_runner::block_runner(std::size_t num_threads) {
    const std::size_t helpers = num_threads <= 1 ? 0 : num_threads - 1;
    workers_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

block_runner::~block_runner() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& worker : workers_) {
        if (worker.joinable()) worker.join();
    }
}

void block_runner::claim_blocks() {
    for (;;) {
        const std::size_t block =
            next_block_.fetch_add(1, std::memory_order_relaxed);
        if (block >= num_blocks_) return;
        try {
            body_(context_, block);
        } catch (...) {
            // Keep the lowest-index failure, so the error surfaced does
            // not depend on which thread claimed which block.
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_ || block < first_error_block_) {
                first_error_ = std::current_exception();
                first_error_block_ = block;
            }
        }
    }
}

void block_runner::worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock,
                           [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
        }
        claim_blocks();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++finished_workers_;
        }
        done_cv_.notify_one();
    }
}

void block_runner::run(std::size_t num_blocks, void (*body)(void*, std::size_t),
                       void* context) {
    if (num_blocks == 0) return;
    // One block, or no workers: the caller claims every block itself, in
    // block order, without waking anyone.
    const bool fan_out = !workers_.empty() && num_blocks > 1;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        body_ = body;
        context_ = context;
        num_blocks_ = num_blocks;
        next_block_.store(0, std::memory_order_relaxed);
        finished_workers_ = 0;
        first_error_ = nullptr;
        if (fan_out) ++generation_;
    }
    if (fan_out) start_cv_.notify_all();
    claim_blocks();
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (fan_out) {
            done_cv_.wait(lock,
                          [&] { return finished_workers_ == workers_.size(); });
        }
        error = std::exchange(first_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
}

}  // namespace ns::engine
