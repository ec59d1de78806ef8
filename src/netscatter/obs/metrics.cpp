#include "netscatter/obs/metrics.hpp"

#include <chrono>

#include "netscatter/util/error.hpp"

namespace ns::obs {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double histogram_sample::percentile(double p) const {
    if (count == 0) return 0.0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const std::uint64_t rank = static_cast<std::uint64_t>(
        clamped / 100.0 * static_cast<double>(count - 1));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cumulative += buckets[i];
        if (cumulative > rank) {
            // Geometric midpoint of [2^i, 2^(i+1)) ns, clamped into the
            // observed range so single-sample histograms report exactly.
            const double mid = histogram::bucket_lower_bound_s(i) * 1.5;
            return std::clamp(mid, min, max);
        }
    }
    return max;
}

namespace {

/// Sorted-by-name union merge shared by the three sample kinds.
/// `combine(mine, theirs)` folds a matching entry, which must share its
/// origin; unmatched entries copy over. Inputs sorted -> output sorted,
/// so repeated merges stay canonical.
template <typename Sample, typename Combine>
void merge_sorted(std::vector<Sample>& mine, const std::vector<Sample>& theirs,
                  Combine&& combine) {
    std::vector<Sample> merged;
    merged.reserve(mine.size() + theirs.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < mine.size() || j < theirs.size()) {
        if (j >= theirs.size() ||
            (i < mine.size() && mine[i].name < theirs[j].name)) {
            merged.push_back(std::move(mine[i++]));
        } else if (i >= mine.size() || theirs[j].name < mine[i].name) {
            merged.push_back(theirs[j++]);
        } else {
            ns::util::require(mine[i].origin == theirs[j].origin,
                              "metrics merge: one name with two origins");
            Sample s = std::move(mine[i++]);
            combine(s, theirs[j++]);
            merged.push_back(std::move(s));
        }
    }
    mine = std::move(merged);
}

template <typename Sample>
typename std::vector<Sample>::const_iterator find_sorted(
    const std::vector<Sample>& samples, std::string_view name) {
    const auto it = std::lower_bound(
        samples.begin(), samples.end(), name,
        [](const Sample& s, std::string_view key) { return s.name < key; });
    if (it == samples.end() || it->name != name) return samples.end();
    return it;
}

}  // namespace

void metrics_snapshot::merge(const metrics_snapshot& other) {
    merge_sorted(counters, other.counters,
                 [](counter_sample& mine, const counter_sample& theirs) {
                     mine.value += theirs.value;
                 });
    merge_sorted(gauges, other.gauges,
                 [](gauge_sample& mine, const gauge_sample& theirs) {
                     // Merge-order-last write wins for `last` (replica
                     // order is canonical), max is the running max.
                     mine.last = theirs.last;
                     mine.max = std::max(mine.max, theirs.max);
                 });
    merge_sorted(histograms, other.histograms,
                 [](histogram_sample& mine, const histogram_sample& theirs) {
                     if (theirs.count > 0) {
                         mine.min = mine.count > 0 ? std::min(mine.min, theirs.min)
                                                   : theirs.min;
                         mine.max = mine.count > 0 ? std::max(mine.max, theirs.max)
                                                   : theirs.max;
                     }
                     mine.count += theirs.count;
                     mine.sum += theirs.sum;
                     for (std::size_t b = 0; b < mine.buckets.size(); ++b) {
                         mine.buckets[b] += theirs.buckets[b];
                     }
                 });
}

const counter_sample* metrics_snapshot::find_counter(std::string_view name) const {
    const auto it = find_sorted(counters, name);
    return it == counters.end() ? nullptr : &*it;
}

const gauge_sample* metrics_snapshot::find_gauge(std::string_view name) const {
    const auto it = find_sorted(gauges, name);
    return it == gauges.end() ? nullptr : &*it;
}

const histogram_sample* metrics_snapshot::find_histogram(
    std::string_view name) const {
    const auto it = find_sorted(histograms, name);
    return it == histograms.end() ? nullptr : &*it;
}

void metrics_snapshot::record_value(std::string_view name, double value,
                                    origin o) {
    metrics_snapshot one;
    histogram_sample sample;
    sample.name = std::string(name);
    sample.origin = o;
    sample.count = 1;
    sample.sum = value;
    sample.min = value;
    sample.max = value;
    ++sample.buckets[histogram::bucket_index(value)];
    one.histograms.push_back(std::move(sample));
    merge(one);
}

namespace {

/// Find-or-create shared by the three get_* calls.
template <typename T, typename Entries>
T* find_or_add(Entries& entries, std::string_view name, origin o) {
    for (auto& entry : entries) {
        if (entry.name == name) {
            ns::util::require(entry.origin == o,
                              "metrics registry: one name with two origins");
            return entry.value.get();
        }
    }
    entries.push_back({std::string(name), o, std::make_unique<T>()});
    return entries.back().value.get();
}

}  // namespace

counter* metrics_registry::get_counter(std::string_view name, origin o) {
    return find_or_add<counter>(counters_, name, o);
}

gauge* metrics_registry::get_gauge(std::string_view name, origin o) {
    return find_or_add<gauge>(gauges_, name, o);
}

histogram* metrics_registry::get_histogram(std::string_view name, origin o) {
    return find_or_add<histogram>(histograms_, name, o);
}

metrics_snapshot metrics_registry::snapshot() const {
    metrics_snapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& entry : counters_) {
        snap.counters.push_back({entry.name, entry.origin, entry.value->value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& entry : gauges_) {
        snap.gauges.push_back({entry.name, entry.origin, entry.value->last(),
                               entry.value->max()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& entry : histograms_) {
        histogram_sample sample;
        sample.name = entry.name;
        sample.origin = entry.origin;
        sample.count = entry.value->count();
        sample.sum = entry.value->sum();
        sample.min = entry.value->min();
        sample.max = entry.value->max();
        sample.buckets = entry.value->buckets();
        snap.histograms.push_back(std::move(sample));
    }
    const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
    std::sort(snap.counters.begin(), snap.counters.end(), by_name);
    std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
    std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
    return snap;
}

namespace {
// Zero-initialized PODs: safe to touch from operator new before any
// dynamic TLS initialization has run.
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;
}  // namespace

void record_allocation(std::size_t bytes) noexcept {
    ++t_alloc_count;
    t_alloc_bytes += bytes;
}

alloc_counters thread_allocations() noexcept {
    return {t_alloc_count, t_alloc_bytes};
}

}  // namespace ns::obs
