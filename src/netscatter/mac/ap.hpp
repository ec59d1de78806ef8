// Access-point control plane (§3.3): the one AP of this repository.
//
// The AP decides membership and allocation for devices with dense ids
// below a fixed universe. It admits a joiner on the power-aware
// incremental allocator's best free shift, falling back to a full
// reassignment of the joiner's group (§3.2.3, §3.3.3); it groups the
// population by signal strength when grouping is on (§3.3.3); and it runs
// the association handshake of Fig. 10 on top of the same admission.
//
// Its rules:
//   * Refusal. Ungrouped, a join past the data slots is refused; grouped,
//     a join that would open group 257 is refused (the query's group-id
//     field is 8 bits, Fig. 11). A refused join changes nothing and
//     throws nothing.
//   * Re-request. A member that asks to join again is dropped before it
//     is placed, so its old shift is free: at an unchanged power it gets
//     that shift back whenever it is still the best fit.
//   * Regroup. group_scheduler::partition_in_place over the members'
//     current powers, cut at the group capacity and the dynamic-range
//     limit, then one power-aware allocation per group (devices of
//     different groups may share a shift).
//   * The seam. The AP reads each device's current uplink power and shift
//     and writes each association through one device_table. The network
//     simulator implements it over its device slots; vector_device_table
//     serves callers that build no PHY.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netscatter/mac/allocator.hpp"
#include "netscatter/mac/query_message.hpp"
#include "netscatter/mac/scheduler.hpp"

namespace ns::mac {

/// What the AP reads and writes of the devices it serves, by dense id.
class device_table {
public:
    /// Current uplink power of device `id` at the AP (dBm).
    virtual double power_dbm(std::uint32_t id) const = 0;
    /// Shift of device `id`'s last association.
    virtual std::uint32_t shift(std::uint32_t id) const = 0;
    virtual void associate(std::uint32_t id, std::uint32_t shift) = 0;

protected:
    ~device_table() = default;
};

/// A device_table over two columns: powers the caller sets, shifts the
/// AP writes.
struct vector_device_table final : device_table {
    explicit vector_device_table(std::size_t devices) : powers(devices), shifts(devices) {}
    double power_dbm(std::uint32_t id) const override { return powers[id]; }
    std::uint32_t shift(std::uint32_t id) const override { return shifts[id]; }
    void associate(std::uint32_t id, std::uint32_t shift) override { shifts[id] = shift; }

    std::vector<double> powers;
    std::vector<std::uint32_t> shifts;
};

/// Decoded association request; its strength is the requester's power
/// in the AP's device table.
struct association_request {
    std::uint32_t device_id = 0;   ///< resolved after the ACK in reality;
                                   ///< carried explicitly in simulation
    ns::device::snr_region region = ns::device::snr_region::high;
};

/// What one admission did.
struct admission {
    /// Devices given a shift: 0 when the join is refused, else the joiner
    /// or, after a full reassignment, its whole group.
    std::size_t placed = 0;
    bool full_reassignment = false;
};

/// The access point.
class access_point {
public:
    /// Groups the 8-bit group-id field can address (Fig. 11).
    static constexpr std::size_t max_groups = 256;

    /// Serves devices 0..universe-1 of `devices`, which must outlive the
    /// AP; groups by signal strength when `grouping` is set, its capacity
    /// clamped to the data slots (invalid_argument when it is 0).
    access_point(allocation_params allocation, std::optional<scheduler_params> grouping,
                 device_table& devices, std::size_t universe);

    /// Set-up: makes `powers` (ascending ids) the members and gives each
    /// a shift, associating none. Grouped, it partitions `powers` in
    /// place and throws past max_groups; ungrouped, it allocates them in
    /// one batch, in id order when `power_aware` is false (the
    /// power-agnostic ablation), and throws past the data slots.
    void assign(std::span<device_power> powers, bool power_aware);
    /// Associates every member on the shift assign() or regroup() gave it.
    void associate_members();

    /// Admits non-member `id` at `power_dbm`: into the best-fit group,
    /// or a new one on a misfit, when grouped; then among that group's
    /// members (all members when ungrouped) on the incremental
    /// allocator's best free shift, else by a full reassignment.
    admission admit(std::uint32_t id, double power_dbm);
    /// Drops member `id`; its group's power span stays stretched until
    /// the next regroup.
    void leave(std::uint32_t id);
    /// Repartitions the members by current power, reallocates every group
    /// and associates every member; returns their count. Grouped only.
    std::size_t regroup();
    /// Best free shift for member `id` re-requesting at `power_dbm` among
    /// the rest of its group, if one fits; associates nothing.
    std::optional<std::uint32_t> reposition(std::uint32_t id, double power_dbm);

    bool grouped() const { return scheduler_.has_value(); }
    bool is_member(std::uint32_t id) const {
        return std::binary_search(active_.begin(), active_.end(), id);
    }
    std::size_t active_count() const { return active_.size(); }
    /// Members of `group`, or every member; ascending ids.
    std::span<const std::uint32_t> members(
        std::optional<std::size_t> group = std::nullopt) const {
        return group ? std::span<const std::uint32_t>(group_members_[*group]) : active_;
    }
    /// Each member's shift, in id order.
    std::vector<std::uint32_t> active_shifts() const;
    std::optional<std::size_t> group_of(std::uint32_t id) const {
        if (id >= group_.size() || group_[id] == no_group) return std::nullopt;
        return group_[id];
    }
    std::size_t num_groups() const { return spans_.size(); }
    std::span<const group_span> groups() const { return spans_; }
    /// Devices a group holds at most (0 ungrouped).
    std::size_t group_capacity() const {
        return scheduler_ ? scheduler_->params().group_capacity : 0;
    }
    /// Group addressed in round `round`, round-robin; nullopt when there
    /// is no group.
    std::optional<std::size_t> scheduled_group(std::size_t round) const {
        if (spans_.empty()) return std::nullopt;
        return round % spans_.size();
    }
    /// Admissions that opened a group since the last regroup.
    std::size_t misfits_since_regroup() const { return misfits_since_regroup_; }
    const shift_allocator& allocator() const { return allocator_; }

    // --- Association handshake (Fig. 10) --------------------------------
    /// Admits the requester, dropping it first if it is a member, and
    /// returns the response the next queries carry until its ACK; nullopt
    /// when refused. Throws invalid_argument for an id outside the
    /// universe.
    std::optional<association_response> handle_association_request(
        const association_request& request);
    /// Completes a member's handshake. An ACK from a non-member (replayed
    /// after eviction, or a corrupted id) or a repeated one is a counted
    /// no-op, since a lossy channel can always replay or orphan an ACK.
    void handle_association_ack(std::uint32_t device_id);
    /// The next query; after a full reassignment exactly one query
    /// carries the 1728-bit ordering field.
    query_message build_query(std::uint8_t group_id = 0);
    /// Response the next query repeats until the ACK arrives (§3.3.4).
    std::optional<association_response> pending_response() const {
        return pending_response_;
    }
    /// Whether `id` is a member whose ACK has arrived.
    bool acked(std::uint32_t id) const;
    std::size_t rejected_requests() const { return rejected_requests_; }
    std::size_t full_reassignments() const { return full_reassignments_; }
    std::size_t unknown_acks() const { return unknown_acks_; }
    std::size_t duplicate_acks() const { return duplicate_acks_; }

private:
    static constexpr std::uint32_t no_group = static_cast<std::uint32_t>(-1);

    void partition(std::span<device_power> powers);
    /// Places admitted `id` among members(group).
    admission place_joiner(std::uint32_t id, double power_dbm,
                           std::optional<std::size_t> group);
    /// Gives every group a member list with room for a full group.
    void grow_member_index();
    /// members(group)'s current powers, in power_ws_.
    std::vector<device_power>& member_powers(std::optional<std::size_t> group);
    /// members(group)'s shifts and powers but `excluded`'s, in occupied_ws_.
    const std::vector<shift_power>& occupied(std::optional<std::uint32_t> excluded,
                                             std::optional<std::size_t> group);

    device_table* devices_;
    shift_allocator allocator_;
    std::optional<group_scheduler> scheduler_;
    std::vector<std::uint32_t> active_;  ///< member ids, ascending
    /// Id-indexed shifts from the last assign() or regroup().
    std::vector<std::uint32_t> new_shift_;
    // Grouping (empty ungrouped): spans, the id-indexed group and each
    // group's member ids, ascending.
    std::vector<group_span> spans_;
    std::vector<std::uint32_t> group_;
    std::vector<std::vector<std::uint32_t>> group_members_;
    std::size_t misfits_since_regroup_ = 0;
    // Workspaces, reserved for the data slots.
    std::vector<device_power> power_ws_;
    std::vector<shift_power> occupied_ws_;
    std::vector<std::uint32_t> shifts_ws_;
    allocation_workspace alloc_ws_;
    // Handshake state.
    std::vector<std::uint32_t> unacked_;  ///< members awaiting their ACK
    std::optional<association_response> pending_response_;
    std::optional<std::uint32_t> pending_device_;
    bool reassignment_pending_ = false;
    std::uint8_t next_network_id_ = 0;
    std::size_t rejected_requests_ = 0;
    std::size_t full_reassignments_ = 0;
    std::size_t unknown_acks_ = 0;
    std::size_t duplicate_acks_ = 0;
};

}  // namespace ns::mac
