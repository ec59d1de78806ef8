// Round-event tracing: a bounded per-context event ring plus a
// Chrome/Perfetto trace_event JSON exporter.
//
// Each traced scope (a round, a synthesis phase, a decode) records one
// complete ("ph":"X") event: static name, start timestamp relative to a
// process-wide origin, duration, a track id (the scenario runner
// assigns the replica index, so replicas render as parallel tracks in
// the Perfetto UI) and an optional integer argument (the round index).
// The ring is bounded: past capacity, events are dropped and counted —
// a trace can cost memory, never correctness.
//
// Like the metrics registry, a trace_buffer is confined to one
// execution context (one replica, one thread) and the per-replica
// buffers are concatenated at replica boundaries in task order; the
// events carry host timestamps, so traces are inherently excluded from
// determinism comparisons (they are only emitted via --trace, never
// into scenario reports).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "netscatter/obs/metrics.hpp"

namespace ns::obs {

/// One complete span. `name` must be a string literal (or otherwise
/// outlive every buffer holding the event).
struct trace_event {
    const char* name = "";
    std::uint64_t ts_ns = 0;   ///< start, relative to trace_origin_ns()
    std::uint64_t dur_ns = 0;  ///< duration
    std::uint32_t track = 0;   ///< Perfetto tid (replica index)
    std::int64_t arg = -1;     ///< e.g. round index; -1 = absent
};

/// Process-wide trace time origin (first call latches the steady
/// clock); all trace timestamps are relative to it so every track in an
/// exported file shares one timeline.
std::uint64_t trace_origin_ns();

/// Timestamp for trace events: now relative to the origin. The origin
/// is latched before the clock is sampled — with unspecified evaluation
/// order, `now_ns() - trace_origin_ns()` would underflow on the very
/// first call (the origin would latch a later instant than the sample).
inline std::uint64_t trace_now_ns() {
    const std::uint64_t origin = trace_origin_ns();
    return now_ns() - origin;
}

/// Bounded append-only event ring. NOT thread-safe: one buffer per
/// execution context.
class trace_buffer {
public:
    trace_buffer() = default;

    /// Enables recording with the given capacity and track id.
    void arm(std::size_t max_events, std::uint32_t track) {
        armed_ = max_events > 0;
        max_events_ = max_events;
        track_ = track;
        events_.clear();
        dropped_ = 0;
    }

    bool armed() const { return armed_; }
    std::uint32_t track() const { return track_; }
    std::uint64_t dropped() const { return dropped_; }
    std::span<const trace_event> events() const { return events_; }

    void append(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns,
                std::int64_t arg = -1) {
        if (!armed_) return;
        if (events_.size() >= max_events_) {
            ++dropped_;
            return;
        }
        events_.push_back({name, ts_ns, dur_ns, track_, arg});
    }

    /// Moves the recorded events out (the buffer stays armed but empty).
    std::vector<trace_event> take() {
        std::vector<trace_event> out = std::move(events_);
        events_ = {};
        return out;
    }

private:
    std::vector<trace_event> events_;
    std::size_t max_events_ = 0;
    std::uint32_t track_ = 0;
    std::uint64_t dropped_ = 0;
    bool armed_ = false;
};

/// RAII span probe: one scope, one trace event (and optionally one
/// histogram observation — the usual pairing for a simulator phase:
/// the histogram aggregates, the trace shows the timeline). A null
/// histogram and a null or unarmed buffer make the probe free: it never
/// reads the clock.
class trace_span {
public:
    trace_span(const char* name, trace_buffer* buffer, histogram* hist = nullptr,
               std::int64_t arg = -1) {
        const bool tracing = buffer != nullptr && buffer->armed();
        if (tracing || hist != nullptr) {
            name_ = name;
            buffer_ = tracing ? buffer : nullptr;
            hist_ = hist;
            arg_ = arg;
            start_ns_ = trace_now_ns();
        }
    }

    ~trace_span() {
        if (name_ == nullptr) return;
        const std::uint64_t dur = trace_now_ns() - start_ns_;
        if (hist_ != nullptr) hist_->record_ns(dur);
        if (buffer_ != nullptr) buffer_->append(name_, start_ns_, dur, arg_);
    }

    trace_span(const trace_span&) = delete;
    trace_span& operator=(const trace_span&) = delete;

private:
    const char* name_ = nullptr;
    trace_buffer* buffer_ = nullptr;
    histogram* hist_ = nullptr;
    std::int64_t arg_ = -1;
    std::uint64_t start_ns_ = 0;
};

/// Writes events as Chrome trace-event JSON ("JSON Array Format" with a
/// traceEvents wrapper) loadable by Perfetto (ui.perfetto.dev) and
/// chrome://tracing. Timestamps/durations are microseconds with
/// nanosecond fractions; events need not be sorted (viewers sort).
void write_chrome_trace(std::span<const trace_event> events, std::ostream& out);

/// File overload; returns false when the file cannot be opened.
bool write_chrome_trace(std::span<const trace_event> events,
                        const std::string& path);

}  // namespace ns::obs
