#include "netscatter/mac/scheduler.hpp"

#include <algorithm>

#include "netscatter/util/error.hpp"

namespace ns::mac {

group_scheduler::group_scheduler(scheduler_params params) : params_(params) {
    ns::util::require(params_.group_capacity >= 1, "group_scheduler: capacity >= 1");
    ns::util::require(params_.max_dynamic_range_db > 0.0,
                      "group_scheduler: dynamic range must be positive");
}

std::vector<device_group> group_scheduler::partition(
    std::vector<device_power> devices) const {
    std::vector<group_span> spans;
    partition_in_place(devices, spans);
    std::vector<device_group> groups;
    groups.reserve(spans.size());
    auto next = devices.begin();
    for (const group_span& span : spans) {
        const auto end = next + static_cast<std::ptrdiff_t>(span.members);
        groups.push_back({.members = {next, end},
                          .max_power_dbm = span.max_power_dbm,
                          .min_power_dbm = span.min_power_dbm});
        next = end;
    }
    return groups;
}

void group_scheduler::partition_in_place(std::span<device_power> devices,
                                         std::vector<group_span>& spans) const {
    std::sort(devices.begin(), devices.end(), stronger_first);
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

std::uint8_t group_scheduler::group_for_round(std::size_t round_index,
                                              std::size_t num_groups) {
    ns::util::require(num_groups >= 1, "group_for_round: need >= 1 group");
    return static_cast<std::uint8_t>(round_index % num_groups);
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
