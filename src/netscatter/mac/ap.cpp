#include "netscatter/mac/ap.hpp"

#include <algorithm>

#include "netscatter/util/error.hpp"

namespace ns::mac {

access_point::access_point(allocation_params allocation,
                           std::optional<scheduler_params> grouping,
                           device_table& devices, std::size_t universe)
    : devices_(&devices), allocator_(allocation) {
    const std::size_t data_slots = allocator_.num_data_slots();
    if (grouping) {
        grouping->group_capacity = std::min(grouping->group_capacity, data_slots);
        scheduler_.emplace(*grouping);
        group_.assign(universe, no_group);
    }
    // No occupied set or batch allocation exceeds the data slots, so no
    // round allocates (a regroup grows power_ws_ to the membership once).
    active_.reserve(universe);
    new_shift_.resize(universe);
    power_ws_.reserve(data_slots + 1);
    occupied_ws_.reserve(data_slots);
    shifts_ws_.reserve(data_slots);
    allocator_.reserve(alloc_ws_);
}

void access_point::assign(std::span<device_power> powers, bool power_aware) {
    active_.clear();
    for (const device_power& device : powers) active_.push_back(device.device_id);
    if (grouped()) {
        partition(powers);
        return;
    }
    if (!power_aware) {
        // Ablation: identical keys hand the slots out in id order, so
        // strong and weak devices land next to each other.
        for (device_power& device : powers) device.rx_power_dbm = 0.0;
    }
    allocator_.allocate(powers, shifts_ws_, alloc_ws_);
    for (std::size_t k = 0; k < powers.size(); ++k) {
        new_shift_[powers[k].device_id] = shifts_ws_[k];
    }
}

void access_point::associate_members() {
    for (const std::uint32_t id : active_) devices_->associate(id, new_shift_[id]);
}

void access_point::partition(std::span<device_power> powers) {
    scheduler_->partition_in_place(powers, spans_);
    ns::util::require(spans_.size() <= max_groups,
                      "grouping: population needs more groups than the 8-bit "
                      "group-id field can address; raise group_capacity or "
                      "max_dynamic_range_db");
    // `powers` holds every member in partition order, group g one
    // contiguous run, so every member's group_ entry is rewritten.
    std::size_t first = 0;
    for (std::size_t g = 0; g < spans_.size(); ++g) {
        const std::span<const device_power> group(powers.data() + first,
                                                  spans_[g].members);
        first += group.size();
        allocator_.allocate(group, shifts_ws_, alloc_ws_);
        for (std::size_t k = 0; k < group.size(); ++k) {
            group_[group[k].device_id] = static_cast<std::uint32_t>(g);
            new_shift_[group[k].device_id] = shifts_ws_[k];
        }
    }
    // Lists past a shrunk group count stay, empty.
    grow_member_index();
    for (std::vector<std::uint32_t>& members : group_members_) members.clear();
    for (const std::uint32_t id : active_) group_members_[group_[id]].push_back(id);
}

std::size_t access_point::regroup() {
    ns::util::require(grouped(), "access_point: regroup needs grouping");
    const std::size_t regrouped = member_powers(std::nullopt).size();
    partition(power_ws_);
    associate_members();
    misfits_since_regroup_ = 0;
    return regrouped;
}

void access_point::grow_member_index() {
    while (group_members_.size() < spans_.size()) {
        group_members_.emplace_back().reserve(scheduler_->params().group_capacity);
    }
}

admission access_point::admit(std::uint32_t id, double power_dbm) {
    std::optional<std::size_t> target;
    if (grouped()) {
        target = scheduler_->admit(spans_, power_dbm);
        if (!target) {
            // No group has room within the dynamic-range limit: open one,
            // a misfit, which the load_triggered policy regroups on.
            if (spans_.size() >= max_groups) return {};
            target = spans_.size();
            spans_.push_back(
                {.members = 0, .min_power_dbm = power_dbm, .max_power_dbm = power_dbm});
            grow_member_index();
            ++misfits_since_regroup_;
        }
    } else if (active_.size() >= allocator_.num_data_slots()) {
        return {};
    }
    // Grouped, even a full reassignment stays within the target group.
    const admission result = place_joiner(id, power_dbm, target);
    if (target) {
        group_span& span = spans_[*target];
        span.min_power_dbm =
            span.members > 0 ? std::min(span.min_power_dbm, power_dbm) : power_dbm;
        span.max_power_dbm =
            span.members > 0 ? std::max(span.max_power_dbm, power_dbm) : power_dbm;
        ++span.members;
        std::vector<std::uint32_t>& members = group_members_[*target];
        members.insert(std::lower_bound(members.begin(), members.end(), id), id);
        group_[id] = static_cast<std::uint32_t>(*target);
    }
    active_.insert(std::lower_bound(active_.begin(), active_.end(), id), id);
    return result;
}

admission access_point::place_joiner(std::uint32_t id, double power_dbm,
                                     std::optional<std::size_t> group) {
    if (const auto shift = allocator_.assign_incremental(
            power_dbm, occupied(std::nullopt, group), alloc_ws_)) {
        devices_->associate(id, *shift);
        return {.placed = 1};
    }
    // No free shift fits the newcomer next to power-compatible
    // neighbours: full reassignment (§3.3.3).
    member_powers(group).push_back({id, power_dbm});
    allocator_.allocate(power_ws_, shifts_ws_, alloc_ws_);
    for (std::size_t k = 0; k < power_ws_.size(); ++k) {
        devices_->associate(power_ws_[k].device_id, shifts_ws_[k]);
    }
    return {.placed = power_ws_.size(), .full_reassignment = true};
}

void access_point::leave(std::uint32_t id) {
    const auto it = std::lower_bound(active_.begin(), active_.end(), id);
    if (it == active_.end() || *it != id) return;
    active_.erase(it);
    if (!grouped()) return;
    --spans_[group_[id]].members;
    std::vector<std::uint32_t>& members = group_members_[group_[id]];
    members.erase(std::lower_bound(members.begin(), members.end(), id));
    group_[id] = no_group;
}

std::optional<std::uint32_t> access_point::reposition(std::uint32_t id, double power_dbm) {
    return allocator_.assign_incremental(power_dbm, occupied(id, group_of(id)), alloc_ws_);
}

std::vector<std::uint32_t> access_point::active_shifts() const {
    std::vector<std::uint32_t> shifts;
    shifts.reserve(active_.size());
    for (const std::uint32_t id : active_) shifts.push_back(devices_->shift(id));
    return shifts;
}

std::vector<device_power>& access_point::member_powers(std::optional<std::size_t> group) {
    const std::span<const std::uint32_t> ids = members(group);
    power_ws_.clear();
    power_ws_.reserve(ids.size() + 1);  // room for a joiner
    for (const std::uint32_t id : ids) power_ws_.push_back({id, devices_->power_dbm(id)});
    return power_ws_;
}

const std::vector<shift_power>& access_point::occupied(std::optional<std::uint32_t> excluded,
                                                       std::optional<std::size_t> group) {
    occupied_ws_.clear();
    for (const std::uint32_t id : members(group)) {
        if (id != excluded) occupied_ws_.emplace_back(devices_->shift(id), devices_->power_dbm(id));
    }
    return occupied_ws_;
}

std::optional<association_response> access_point::handle_association_request(
    const association_request& request) {
    const std::uint32_t id = request.device_id;
    ns::util::require(id < new_shift_.size(),
                      "access_point: association request from outside the universe");
    std::erase(unacked_, id);
    leave(id);
    const admission result = admit(id, devices_->power_dbm(id));
    if (result.placed == 0) {
        ++rejected_requests_;
        return std::nullopt;
    }
    if (result.full_reassignment) {
        reassignment_pending_ = true;
        ++full_reassignments_;
    }
    unacked_.push_back(id);
    pending_device_ = id;
    pending_response_ = association_response{
        .network_id = next_network_id_++,
        .shift_slot = static_cast<std::uint8_t>(devices_->shift(id) / allocator_.params().skip)};
    return pending_response_;
}

void access_point::handle_association_ack(std::uint32_t device_id) {
    // The pending replay's own ACK ends it even from a non-member: the
    // handshake is over from the device's side, and repeating the response
    // forever would burn every future query's piggyback slot.
    if (pending_device_ == device_id) {
        pending_response_.reset();
        pending_device_.reset();
    }
    if (!is_member(device_id)) {
        ++unknown_acks_;
    } else if (std::erase(unacked_, device_id) == 0) {
        ++duplicate_acks_;
    }
}

query_message access_point::build_query(std::uint8_t group_id) {
    query_message query{.group_id = group_id, .response = pending_response_};
    if (reassignment_pending_) {
        query.full_reassignment = true;
        query.reassignment_index_low64 = full_reassignments_;
        reassignment_pending_ = false;
    }
    return query;
}

bool access_point::acked(std::uint32_t id) const {
    return is_member(id) && std::find(unacked_.begin(), unacked_.end(), id) == unacked_.end();
}

}  // namespace ns::mac
