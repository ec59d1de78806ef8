#include "netscatter/mac/scheduler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "netscatter/util/error.hpp"

namespace ns::mac {

namespace {

/// Sort key of a power, ascending as the power descends: the IEEE-754
/// bits mapped to an order-preserving unsigned integer, then inverted.
/// -0.0 and +0.0 share one key, as stronger_first has them equal.
std::uint64_t weaker_key(double power_dbm) {
    const auto bits = std::bit_cast<std::uint64_t>(power_dbm == 0.0 ? 0.0 : power_dbm);
    // A negative power keeps its bits (a larger magnitude is weaker); a
    // positive one flips all but the sign (a larger one is stronger).
    return bits ^ (((bits >> 63) - 1) >> 1);
}

/// The smallest and largest key of a run of devices.
struct key_range {
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
};

key_range range_of(std::span<const device_power> devices) {
    key_range keys;
    for (const device_power& device : devices) {
        const std::uint64_t key = weaker_key(device.rx_power_dbm);
        keys.lo = std::min(keys.lo, key);
        keys.hi = std::max(keys.hi, key);
    }
    return keys;
}

constexpr unsigned digit_bits = 8;
constexpr std::size_t radix = std::size_t{1} << digit_bits;
/// Buckets this small, and runs of one key, are finished by std::sort.
constexpr std::size_t small_bucket = 32;

/// Sorts `devices`, whose keys span `keys`, into stronger_first order in
/// place: an MSD radix sort over key − lo, from the highest bit in which
/// the keys differ. The bucket bounds live on the stack, 4 KiB a level,
/// and each level takes at least 8 bits off the span: at most 9 levels.
void sort_stronger_first(std::span<device_power> devices, key_range keys) {
    if (devices.size() <= small_bucket || keys.lo == keys.hi) {
        std::sort(devices.begin(), devices.end(), stronger_first);
        return;
    }
    const int shift = std::max(0, static_cast<int>(std::bit_width(keys.hi - keys.lo)) -
                                      static_cast<int>(digit_bits));
    const auto digit = [&](const device_power& device) {
        return static_cast<std::size_t>((weaker_key(device.rx_power_dbm) - keys.lo) >> shift);
    };

    // Bucket b is [head[b], end[b]) once the counts are summed.
    std::array<std::size_t, radix> end{};
    for (const device_power& device : devices) ++end[digit(device)];
    std::array<std::size_t, radix> head{};
    std::size_t first = 0;
    for (std::size_t b = 0; b < radix; ++b) {
        head[b] = first;
        first += end[b];
        end[b] = first;
    }
    // One sweep swaps each device it meets into the next free place of
    // its bucket. Its swaps do not wait on each other, so the sweep
    // places most devices fast; the devices it displaced into places it
    // had passed are then walked home, each displaced one following in
    // turn until one belongs where the walk started.
    for (std::size_t b = 0; b < radix; ++b) {
        const std::size_t stop = end[b];
        for (std::size_t i = head[b]; i < stop; ++i) {
            std::swap(devices[i], devices[head[digit(devices[i])]++]);
        }
    }
    for (std::size_t b = 0; b < radix; ++b) {
        while (head[b] < end[b]) {
            device_power moving = devices[head[b]];
            for (std::size_t to = digit(moving); to != b; to = digit(moving)) {
                std::swap(moving, devices[head[to]++]);
            }
            devices[head[b]++] = moving;
        }
    }
    first = 0;
    for (std::size_t b = 0; b < radix; ++b) {
        const std::span<device_power> bucket = devices.subspan(first, end[b] - first);
        if (bucket.size() > small_bucket) {
            sort_stronger_first(bucket, range_of(bucket));
        } else {
            std::sort(bucket.begin(), bucket.end(), stronger_first);
        }
        first = end[b];
    }
}

}  // namespace

group_scheduler::group_scheduler(scheduler_params params) : params_(params) {
    ns::util::require(params_.group_capacity >= 1, "group_scheduler: capacity >= 1");
    ns::util::require(params_.max_dynamic_range_db > 0.0,
                      "group_scheduler: dynamic range must be positive");
}

void group_scheduler::partition_in_place(std::span<device_power> devices,
                                         std::vector<group_span>& spans) const {
    // A NaN's key lies outside the infinities'.
    const key_range keys = range_of(devices);
    ns::util::require(
        keys.lo >= weaker_key(std::numeric_limits<double>::infinity()) &&
            keys.hi <= weaker_key(-std::numeric_limits<double>::infinity()),
        "group_scheduler::partition_in_place: a device's power is NaN");
    sort_stronger_first(devices, keys);
    spans.clear();
    for (const device_power& device : devices) {
        const bool need_new_group =
            spans.empty() || spans.back().members >= params_.group_capacity ||
            (spans.back().max_power_dbm - device.rx_power_dbm) >
                params_.max_dynamic_range_db;
        if (need_new_group) {
            spans.push_back({.members = 0,
                             .min_power_dbm = device.rx_power_dbm,
                             .max_power_dbm = device.rx_power_dbm});
        }
        group_span& span = spans.back();
        ++span.members;
        span.min_power_dbm = device.rx_power_dbm;  // sorted descending
    }
}

std::optional<std::size_t> group_scheduler::admit(
    const std::vector<group_span>& groups, double power_dbm) const {
    std::optional<std::size_t> best;
    double best_stretch = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const group_span& span = groups[g];
        if (span.members >= params_.group_capacity) continue;
        double stretch = 0.0;
        if (span.members > 0) {
            const double new_min = std::min(span.min_power_dbm, power_dbm);
            const double new_max = std::max(span.max_power_dbm, power_dbm);
            if (new_max - new_min > params_.max_dynamic_range_db) continue;
            stretch = (new_max - new_min) -
                      (span.max_power_dbm - span.min_power_dbm);
        }
        if (!best || stretch < best_stretch) {
            best = g;
            best_stretch = stretch;
        }
    }
    return best;
}

}  // namespace ns::mac
