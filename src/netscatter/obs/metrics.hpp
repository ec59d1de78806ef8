// Deterministic observability: named counters, gauges and log-scale
// latency histograms in a per-context metrics registry.
//
// Design constraints, in order:
//   1. run_indexed's serial-vs-parallel bit-identity contract must
//      survive instrumentation. Every registry is therefore confined to
//      one execution context (one simulator replica, which runs entirely
//      on one thread) — increments are plain integer adds, no atomics,
//      no locks — and replica snapshots are merged at replica boundaries
//      in task order, never completion order. Merging sums counters and
//      histogram buckets name-wise, so the merged snapshot of N replicas
//      is a pure function of the N inputs, independent of thread count.
//   2. Zero overhead when off. With options::metrics false the
//      simulator registers nothing and its instrument handles stay
//      null, so every record/add/timer site is one skipped branch: no
//      clock reads, no stores, no storage.
//   3. Deterministic bucketing. Histogram buckets are powers of two of a
//      nanosecond (bucket i spans [2^i, 2^(i+1)) ns), indexed through
//      integer bit_width — no std::log2, so the same value lands in the
//      same bucket on every platform. Counter merges are integer sums;
//      histogram `sum` is a double accumulated in merge order, which the
//      task-order merge rule keeps reproducible.
//
// The registry hands out stable pointers: instrument sites fetch their
// counter/histogram handle once (construction time) and the hot path
// touches only that handle.
//
// Every instrument also carries its origin, declared where it is
// registered: deterministic (a pure function of spec and seed) unless
// the producer says it measured the host (clock reads, hardware
// counters). Writers filter on that flag, never on the name.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ns::obs {

/// Where an instrument's values come from. `deterministic` values are
/// pure functions of (spec, seed) and must match at any thread count;
/// `host` values are measured on the machine (wall-clock timers,
/// hardware counters) and are left out of scenario reports and of
/// --strip-wallclock output.
enum class origin : std::uint8_t { deterministic, host };

/// Monotonic clock in nanoseconds (steady_clock). Implemented out of
/// line so this header stays <chrono>-free for hot-path includers.
std::uint64_t now_ns();

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

/// Monotonic event count.
class counter {
public:
    void add(std::uint64_t delta = 1) { value_ += delta; }

    std::uint64_t value() const { return value_; }

private:
    std::uint64_t value_ = 0;
};

/// Last-written value plus the running maximum (queue depths, active
/// device counts). Merge keeps the max and the merge-order-last value.
class gauge {
public:
    void set(double value) {
        last_ = value;
        max_ = written_ ? std::max(max_, value) : value;
        written_ = true;
    }

    double last() const { return last_; }
    double max() const { return max_; }

private:
    double last_ = 0.0;
    double max_ = 0.0;
    bool written_ = false;
};

/// Fixed-bucket log2 histogram. Bucket i counts values in
/// [2^i, 2^(i+1)) nanoseconds (values recorded in seconds are scaled by
/// 1e9 first); 64 buckets cover 1 ns .. ~292 years, so no input is ever
/// out of range. Values are usually durations, but any non-negative
/// quantity works — per-round allocation counts use the same buckets
/// with "1 ns" read as "1 unit".
class histogram {
public:
    static constexpr std::size_t num_buckets = 64;

    /// Deterministic bucket index: floor(log2(value in ns)) via integer
    /// bit_width. Non-positive and sub-nanosecond values land in bucket
    /// 0; values beyond the last bucket clamp into it.
    static std::size_t bucket_index(double value) {
        if (!(value > 0.0)) return 0;
        const double scaled = value * 1e9;
        // 2^63 ns: everything at or above clamps to the last bucket
        // (also guards the double->uint64 conversion).
        if (scaled >= 9223372036854775808.0) return num_buckets - 1;
        const std::uint64_t n = static_cast<std::uint64_t>(scaled);
        if (n == 0) return 0;
        return static_cast<std::size_t>(std::bit_width(n)) - 1;
    }

    /// Inclusive lower bound of bucket i, in seconds.
    static double bucket_lower_bound_s(std::size_t i) {
        return static_cast<double>(std::uint64_t{1} << i) * 1e-9;
    }

    void record(double value) {
        min_ = count_ == 0 ? value : std::min(min_, value);
        max_ = count_ == 0 ? value : std::max(max_, value);
        ++count_;
        sum_ += value;
        ++buckets_[bucket_index(value)];
    }

    void record_ns(std::uint64_t ns) { record(static_cast<double>(ns) * 1e-9); }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ == 0 ? 0.0 : min_; }
    double max() const { return count_ == 0 ? 0.0 : max_; }
    const std::array<std::uint64_t, num_buckets>& buckets() const { return buckets_; }

private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::array<std::uint64_t, num_buckets> buckets_{};
};

// ---------------------------------------------------------------------
// Snapshot: the plain-data form carried in results and merged at
// replica boundaries. Entries are kept sorted by name so merge order
// and emission order are canonical.
// ---------------------------------------------------------------------

struct counter_sample {
    std::string name;
    obs::origin origin = obs::origin::deterministic;
    std::uint64_t value = 0;
};

struct gauge_sample {
    std::string name;
    obs::origin origin = obs::origin::deterministic;
    double last = 0.0;
    double max = 0.0;
};

struct histogram_sample {
    std::string name;
    obs::origin origin = obs::origin::deterministic;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, histogram::num_buckets> buckets{};

    double mean() const {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Percentile estimate (0..100) from the log2 buckets: the geometric
    /// midpoint of the bucket holding the p-th sample. Good to a factor
    /// of sqrt(2) — flamegraph-grade attribution, not a calibrated
    /// quantile.
    double percentile(double p) const;
};

/// Mergeable plain-data view of a registry. merge() is deterministic:
/// name-wise union with integer/bucket sums, performed in caller order
/// (the Monte-Carlo runner merges replica snapshots in task order). A
/// name present on both sides must have one origin; merge throws
/// ns::util::invalid_argument otherwise.
struct metrics_snapshot {
    std::vector<counter_sample> counters;      ///< sorted by name
    std::vector<gauge_sample> gauges;          ///< sorted by name
    std::vector<histogram_sample> histograms;  ///< sorted by name

    void merge(const metrics_snapshot& other);

    const counter_sample* find_counter(std::string_view name) const;
    const gauge_sample* find_gauge(std::string_view name) const;
    const histogram_sample* find_histogram(std::string_view name) const;

    /// Counter value by name, 0 when absent.
    std::uint64_t counter_value(std::string_view name) const {
        const counter_sample* c = find_counter(name);
        return c == nullptr ? 0 : c->value;
    }
    /// Histogram sum by name, 0.0 when absent — the registry-backed
    /// replacement for hand-rolled wall-clock accumulators.
    double histogram_sum(std::string_view name) const {
        const histogram_sample* h = find_histogram(name);
        return h == nullptr ? 0.0 : h->sum;
    }

    /// Records one observation into the named histogram (creating it if
    /// needed) — for call sites that only have a snapshot, e.g. the
    /// scenario runner stamping replica.wall_s after the replica ran.
    void record_value(std::string_view name, double value,
                      origin o = origin::deterministic);

    bool empty() const {
        return counters.empty() && gauges.empty() && histograms.empty();
    }
};

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Owner of one execution context's instruments. NOT thread-safe by
/// design: confine one registry to one thread (a simulator replica) and
/// merge snapshots at the boundaries. Handles returned by the get_*
/// calls are stable for the registry's lifetime.
class metrics_registry {
public:
    metrics_registry() = default;
    metrics_registry(const metrics_registry&) = delete;
    metrics_registry& operator=(const metrics_registry&) = delete;
    metrics_registry(metrics_registry&&) = default;
    metrics_registry& operator=(metrics_registry&&) = default;

    /// Finds or creates the named instrument; `o` is recorded on
    /// creation and must match on every later lookup of the same name
    /// (ns::util::invalid_argument otherwise).
    counter* get_counter(std::string_view name, origin o = origin::deterministic);
    gauge* get_gauge(std::string_view name, origin o = origin::deterministic);
    histogram* get_histogram(std::string_view name,
                             origin o = origin::deterministic);

    /// Plain-data copy, entries sorted by name.
    metrics_snapshot snapshot() const;

private:
    template <typename T>
    struct named {
        std::string name;
        obs::origin origin;
        std::unique_ptr<T> value;
    };
    std::vector<named<counter>> counters_;
    std::vector<named<gauge>> gauges_;
    std::vector<named<histogram>> histograms_;
};

// ---------------------------------------------------------------------
// Allocation metering
// ---------------------------------------------------------------------

/// Thread-local allocation tally. The counters only advance in binaries
/// that install a global operator new forwarding to record_allocation()
/// (the zero-alloc tests, netscatter_sim, bench_scenario_matrix); in
/// every other binary they read as zero. Thread-local — not a process
/// atomic — so a simulator replica, which runs entirely on one thread,
/// measures exactly its own allocations regardless of what other pool
/// threads do: per-round deltas stay bit-identical across thread
/// counts.
struct alloc_counters {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

void record_allocation(std::size_t bytes) noexcept;
alloc_counters thread_allocations() noexcept;

/// Per-simulator observability options (carried in sim_config).
struct options {
    /// Populate the metrics registry (counters, per-phase histograms).
    bool metrics = true;
    /// Record per-round trace spans into the bounded event ring.
    bool trace = false;
    /// Open a hardware perf-counter group per replica and attribute
    /// cycles/instructions/cache traffic to round-loop phases
    /// (perf.<phase>.* counters). Requires metrics; degrades to an
    /// unavailable no-op where perf_event_open is denied.
    bool perf = false;
    /// Event capacity of the per-replica trace ring; further spans are
    /// dropped (and counted) rather than grown without bound.
    std::size_t trace_max_events = 1 << 20;
    /// Perfetto track id of this context's spans (the scenario runner
    /// assigns the replica index, so replicas render as parallel
    /// tracks).
    std::uint32_t trace_track = 0;
    /// Rounds excluded from the alloc.steady_* counters while the
    /// workspaces warm up (capacity growth is expected there).
    std::size_t alloc_warmup_rounds = 4;
};

}  // namespace ns::obs
