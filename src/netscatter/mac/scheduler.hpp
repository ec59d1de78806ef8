// Group scheduling (§3.3.3).
//
// Networks can exceed what one concurrent round supports — either more
// devices than 2^SF/SKIP slots, or a signal-strength spread beyond the
// ~35 dB dynamic range (Fig. 15b). The AP therefore partitions devices
// into groups of similar signal strength ("devices that have a similar
// signal strength are grouped into the same group to enable concurrent
// transmissions while further minimizing the near-far problem") and
// addresses one group per query via the group ID field (Fig. 11).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netscatter/mac/allocator.hpp"

namespace ns::mac {

/// Partitioning policy.
struct scheduler_params {
    std::size_t group_capacity = 256;     ///< slots per concurrent round
    double max_dynamic_range_db = 35.0;   ///< Fig. 15b limit per group
};

/// Live occupancy of one group as it evolves under churn: the member
/// count plus the power span, which only stretches on admissions (a
/// departure does not shrink it — the AP re-tightens spans at the next
/// full regroup).
struct group_span {
    std::size_t members = 0;
    double min_power_dbm = 0.0;
    double max_power_dbm = 0.0;
};

/// Signal-strength-aware group scheduler.
class group_scheduler {
public:
    explicit group_scheduler(scheduler_params params);

    /// Partitions the population: sorts `devices` in place into exactly
    /// the stronger_first order (power descending, ties by ascending
    /// device id; -0.0 and +0.0 are one power) and opens a new group
    /// whenever the current one is full or admitting the next device
    /// would stretch the group's dynamic range past the limit, which
    /// gives the minimum number of groups for this greedy order. Group g
    /// is the run of spans[g].members devices following groups 0..g-1;
    /// one span per group goes to `spans`. The sort is an
    /// in-place radix sort with its counts on the stack: the call
    /// allocates nothing once `spans` is large enough. Throws
    /// ns::util::invalid_argument when a power is NaN.
    void partition_in_place(std::span<device_power> devices,
                            std::vector<group_span>& spans) const;

    /// Incremental admission for one joining device: among the groups
    /// with free capacity whose power span, stretched to cover
    /// `power_dbm`, stays within the dynamic-range limit, returns the
    /// one needing the least stretch (ties break toward the lowest group
    /// index; an emptied group admits with zero stretch). Returns
    /// std::nullopt when no existing group can take the device — the AP
    /// then opens a new group or triggers a full regroup.
    std::optional<std::size_t> admit(const std::vector<group_span>& groups,
                                     double power_dbm) const;

    const scheduler_params& params() const { return params_; }

private:
    scheduler_params params_;
};

}  // namespace ns::mac
