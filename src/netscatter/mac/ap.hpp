// Access-point control plane (§3.3).
//
// The AP owns the device table, runs the association handshake
// (Fig. 10), performs power-aware cyclic-shift assignment — incremental
// when possible, full reassignment via the 256!-ordering message when the
// incremental allocator fails (§3.3.3) — and groups devices by signal
// strength when the population exceeds one group's concurrency (§3.3.3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "netscatter/mac/allocator.hpp"
#include "netscatter/mac/query_message.hpp"

namespace ns::mac {

/// Per-device record in the AP's table.
struct device_record {
    std::uint32_t device_id = 0;
    std::uint8_t network_id = 0;
    std::uint32_t cyclic_shift = 0;
    double rx_power_dbm = 0.0;   ///< backscatter strength measured at association
    bool acked = false;          ///< association ACK received
    std::uint8_t group_id = 0;   ///< concurrency group (by signal strength)
};

/// Decoded association request as seen by the AP.
struct association_request {
    std::uint32_t device_id = 0;   ///< resolved after the ACK in reality;
                                   ///< carried explicitly in simulation
    ns::device::snr_region region = ns::device::snr_region::high;
    double rx_power_dbm = 0.0;     ///< measured strength of the request
};

/// Access point.
class access_point {
public:
    explicit access_point(allocation_params params);

    /// Handles one decoded association request: assigns a cyclic shift
    /// (incremental placement; falls back to a full reassignment when the
    /// allocator cannot fit the newcomer) and returns the piggybacked
    /// response for the next query. The device is not considered a member
    /// until its ACK arrives.
    association_response handle_association_request(const association_request& request);

    /// Marks a pending device as fully associated after its ACK.
    ///
    /// Robust to control-plane noise: an ACK for a device the table does
    /// not hold (a stale retransmission after eviction, or corruption of
    /// the id field) and a duplicate ACK for an already-acked member are
    /// counted no-ops — see unknown_acks() / duplicate_acks() — never
    /// errors, since a lossy channel can always replay or orphan an ACK.
    void handle_association_ack(std::uint32_t device_id);

    /// ACKs received for devices absent from the table.
    std::size_t unknown_acks() const { return unknown_acks_; }
    /// ACKs received for devices that had already completed association.
    std::size_t duplicate_acks() const { return duplicate_acks_; }

    /// Builds the next query. When a full reassignment is pending the
    /// query carries the 1728-bit ordering field (Config 2-style).
    query_message build_query(std::uint8_t group_id = 0);

    /// Pending association response that the next query will carry (the
    /// AP repeats it until the ACK arrives, §3.3.4).
    std::optional<association_response> pending_response() const { return pending_response_; }

    /// The device table; id order makes every walk over it deterministic.
    const std::map<std::uint32_t, device_record>& devices() const {
        return table_;
    }

    /// Current shift of a device, if associated.
    std::optional<std::uint32_t> shift_of(std::uint32_t device_id) const;

    /// Splits the population into groups of at most `group_capacity`
    /// devices with similar signal strengths (§3.3.3, equal powers in id
    /// order), reassigning group_id on every record. Returns the number
    /// of groups.
    std::size_t regroup(std::size_t group_capacity);

    /// Number of full reassignments performed so far.
    std::size_t full_reassignments() const { return full_reassignments_; }

    const shift_allocator& allocator() const { return allocator_; }

private:
    void run_full_reassignment();

    allocation_params params_;
    shift_allocator allocator_;
    std::map<std::uint32_t, device_record> table_;
    // Incremental placement's scratch, reused across requests.
    std::vector<shift_power> occupied_ws_;
    allocation_workspace alloc_ws_;
    std::optional<association_response> pending_response_;
    std::optional<std::uint32_t> pending_device_;
    bool reassignment_pending_ = false;
    std::size_t full_reassignments_ = 0;
    std::size_t unknown_acks_ = 0;
    std::size_t duplicate_acks_ = 0;
    std::uint8_t next_network_id_ = 0;
};

}  // namespace ns::mac
