// Hardware performance counters via perf_event_open, wired into the
// deterministic observability layer.
//
// A perf_counter_group opens one per-thread counter group (CPU cycles
// as the leader; instructions, LLC loads/misses and branch misses as
// siblings) on the calling thread, and perf_scope attributes the
// deltas of a scope to registry counters (perf.<phase>.cycles, ...).
//
// Design constraints, in the same order as metrics.hpp:
//   1. Determinism. Counter values are host facts, never simulation
//      inputs: nothing in the simulator reads them back, and every
//      perf-derived counter is registered with origin::host, which
//      keeps it out of scenario reports and determinism diffs. Groups
//      are confined to one thread (the replica's), like the registry
//      they feed.
//   2. Graceful degradation. perf_event_open is frequently unavailable
//      (CI containers, seccomp filters, kernel.perf_event_paranoid,
//      non-Linux hosts). open() then returns false, available() stays
//      false, read() returns all-zero readings and nothing ever
//      throws; NS_PERF_DISABLE=1 in the environment forces this path
//      so the fallback is testable everywhere. Sibling events that
//      fail individually (e.g. LLC events on a VM without an LLC PMU)
//      simply read zero while the rest of the group keeps counting.
//   3. Zero overhead when off. A group that is never opened holds no
//      fds, and a perf_scope over it or over unwired counters makes no
//      syscall and no store; the simulator opens its group only when
//      options::metrics and options::perf are both set.
#pragma once

#include <cstdint>
#include <string_view>

#include "netscatter/obs/metrics.hpp"

namespace ns::obs {

/// One sample of the group's counters. All zero when the group is
/// unavailable; individual fields are zero when their event could not
/// be opened. Values are multiplex-scaled (time_enabled/time_running)
/// so long scopes stay comparable when the PMU is oversubscribed.
struct perf_readings {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llc_loads = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t branch_misses = 0;
};

/// Instructions retired per cycle; 0 when cycles is 0 (unavailable).
inline double perf_ipc(std::uint64_t instructions, std::uint64_t cycles) {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
}

/// Miss fraction in [0, 1]; 0 when the reference count is 0.
inline double perf_miss_rate(std::uint64_t misses, std::uint64_t references) {
    return references == 0 ? 0.0
                           : static_cast<double>(misses) /
                                 static_cast<double>(references);
}

/// A per-thread hardware counter group. NOT thread-safe and pinned to
/// the opening thread by construction (perf_event_open with pid=0):
/// open() and every read() must happen on the same thread — the same
/// confinement rule as the metrics registry the readings feed.
class perf_counter_group {
public:
    perf_counter_group() = default;
    ~perf_counter_group() { close(); }
    perf_counter_group(const perf_counter_group&) = delete;
    perf_counter_group& operator=(const perf_counter_group&) = delete;

    /// Opens the group on the calling thread. Returns available():
    /// false — with no side effects beyond closed fds — when the
    /// syscall is missing/denied, the leader event cannot be opened,
    /// or NS_PERF_DISABLE is set in the environment.
    bool open();

    /// Closes every event fd; the group reads as unavailable again.
    void close();

    bool available() const { return available_; }

    /// Current counter values (one read syscall for the whole group).
    /// All-zero when unavailable — never throws, never blocks.
    perf_readings read() const;

private:
    static constexpr std::size_t num_events = 5;
    int fds_[num_events] = {-1, -1, -1, -1, -1};
    std::uint64_t ids_[num_events] = {0, 0, 0, 0, 0};
    bool available_ = false;
};

/// Registry counter handles of one attribution target (a round-loop
/// phase, the kernel-sum batch). Fetch once at construction time —
/// get_counter allocates on first use, and pre-fetching keeps the
/// instrumented hot loops allocation-free so the alloc.* determinism
/// counters stay bit-identical with profiling on or off.
struct perf_phase_counters {
    counter* cycles = nullptr;
    counter* instructions = nullptr;
    counter* llc_loads = nullptr;
    counter* llc_misses = nullptr;
    counter* branch_misses = nullptr;

    /// Handles named "perf.<phase>.cycles" etc., registered as
    /// origin::host.
    static perf_phase_counters from_registry(metrics_registry& registry,
                                             std::string_view phase);

    bool wired() const { return cycles != nullptr; }
};

/// RAII counter probe: attributes the scope's counter deltas to the
/// phase's registry counters on destruction. A null/unavailable group
/// or unwired destination makes it free — no syscalls, no stores.
class perf_scope {
public:
    perf_scope(perf_counter_group* group, const perf_phase_counters* dest) {
        if (group != nullptr && group->available() && dest != nullptr &&
            dest->wired()) {
            group_ = group;
            dest_ = dest;
            start_ = group->read();
        }
    }
    ~perf_scope();
    perf_scope(const perf_scope&) = delete;
    perf_scope& operator=(const perf_scope&) = delete;

private:
    perf_counter_group* group_ = nullptr;
    const perf_phase_counters* dest_ = nullptr;
    perf_readings start_{};
};

/// Process-wide resource usage (getrusage). Zeros on hosts without it.
/// Host-execution data: emitted only in the --metrics "process"
/// section, which determinism comparisons already exclude.
struct process_usage {
    std::uint64_t peak_rss_bytes = 0;
    std::uint64_t minor_page_faults = 0;
    std::uint64_t major_page_faults = 0;
    std::uint64_t voluntary_ctx_switches = 0;
    std::uint64_t involuntary_ctx_switches = 0;
};

process_usage current_process_usage();

}  // namespace ns::obs
