#include "netscatter/mac/ap.hpp"

#include <algorithm>

#include "netscatter/util/error.hpp"

namespace ns::mac {

access_point::access_point(allocation_params params)
    : params_(params), allocator_(params) {
    allocator_.reserve(alloc_ws_);
}

association_response access_point::handle_association_request(
    const association_request& request) {
    // Collect the occupied shifts with their powers for the incremental
    // allocator.
    occupied_ws_.clear();
    for (const auto& [id, record] : table_) {
        occupied_ws_.emplace_back(record.cyclic_shift, record.rx_power_dbm);
    }

    const std::optional<std::uint32_t> shift =
        allocator_.assign_incremental(request.rx_power_dbm, occupied_ws_, alloc_ws_);

    // A re-request replaces the device's record. Without a compatible
    // free slot the device is admitted on a placeholder shift and the
    // whole map is rebuilt power-aware (§3.3.3); the next query carries
    // the full-reassignment field.
    device_record& record = table_[request.device_id];
    record = {.device_id = request.device_id,
              .network_id = next_network_id_++,
              .cyclic_shift = shift.value_or(0),
              .rx_power_dbm = request.rx_power_dbm};
    if (!shift) run_full_reassignment();

    const association_response response{
        .network_id = record.network_id,
        .shift_slot = static_cast<std::uint8_t>(record.cyclic_shift / params_.skip)};
    pending_response_ = response;
    pending_device_ = request.device_id;
    return response;
}

void access_point::handle_association_ack(std::uint32_t device_id) {
    auto it = table_.find(device_id);
    if (it == table_.end()) {
        // A stale or corrupted ACK (e.g. replayed after the device was
        // evicted): count and ignore. If it matches the pending replay's
        // device the response is still cleared — that handshake is over
        // from the device's side, so repeating the response forever
        // would burn every future query's piggyback slot.
        ++unknown_acks_;
        if (pending_device_ == device_id) {
            pending_response_.reset();
            pending_device_.reset();
        }
        return;
    }
    if (it->second.acked) ++duplicate_acks_;
    it->second.acked = true;
    if (pending_device_ == device_id) {
        pending_response_.reset();
        pending_device_.reset();
    }
}

query_message access_point::build_query(std::uint8_t group_id) {
    query_message query;
    query.group_id = group_id;
    query.response = pending_response_;
    if (reassignment_pending_) {
        query.full_reassignment = true;
        query.reassignment_index_low64 = full_reassignments_;
        reassignment_pending_ = false;
    }
    return query;
}

std::optional<std::uint32_t> access_point::shift_of(std::uint32_t device_id) const {
    const auto it = table_.find(device_id);
    if (it == table_.end()) return std::nullopt;
    return it->second.cyclic_shift;
}

std::size_t access_point::regroup(std::size_t group_capacity) {
    ns::util::require(group_capacity >= 1, "regroup: capacity must be >= 1");
    // Sort by power so each group spans the smallest possible dynamic
    // range, which is exactly why the paper groups by signal strength.
    std::vector<device_record*> records;
    records.reserve(table_.size());
    for (auto& [id, record] : table_) records.push_back(&record);
    std::sort(records.begin(), records.end(), [](const auto* a, const auto* b) {
        if (a->rx_power_dbm != b->rx_power_dbm) return a->rx_power_dbm > b->rx_power_dbm;
        return a->device_id < b->device_id;
    });
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i]->group_id = static_cast<std::uint8_t>(i / group_capacity);
    }
    return records.empty() ? 0 : (records.size() - 1) / group_capacity + 1;
}

void access_point::run_full_reassignment() {
    std::vector<device_power> devices;
    devices.reserve(table_.size());
    for (const auto& [id, record] : table_) {
        devices.push_back({id, record.rx_power_dbm});
    }
    const std::vector<std::uint32_t> shifts = allocator_.allocate(devices);
    std::size_t k = 0;
    for (auto& [id, record] : table_) record.cyclic_shift = shifts[k++];
    reassignment_pending_ = true;
    ++full_reassignments_;
}

}  // namespace ns::mac
