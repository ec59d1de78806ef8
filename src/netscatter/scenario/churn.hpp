// Poisson join/leave churn over a device universe.
//
// Devices request to join per a Poisson process and depart likewise.
// Two admission paths gate how long a joiner waits for its slot — the
// re-association latency the churn scenarios report:
//   * bounded_queue — the AP serves at most `max_joins_per_round`
//     association slots per round (and never past capacity), so joiners
//     queue FIFO;
//   * slotted_aloha — joiners contend on their SNR region's reserved
//     association shift through the Aloha pool (mac/aloha):
//     simultaneous requests collide and back off, and at most
//     `association_grants_per_round` responses ride each query, so
//     collisions and backoff shape the latency distribution.
// Admitted joins and departures flow to the simulator through
// round_plan, which drives the AP's incremental slot allocation and
// full-reassignment fallback end-to-end.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "netscatter/mac/aloha.hpp"
#include "netscatter/scenario/scenario_spec.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::scenario {

/// One round's membership changes plus the latency of completed joins.
struct churn_events {
    std::vector<std::uint32_t> joins;
    std::vector<std::uint32_t> leaves;
    /// Mean rounds-from-request-to-slot of this round's admitted joins
    /// (0 when none joined).
    double mean_join_latency_rounds = 0.0;
};

/// Deterministic churn process.
class churn_process {
public:
    /// `universe` is the number of placed devices (ids 0..universe-1);
    /// `capacity` the admission limit on concurrently-active devices.
    /// `low_region` (may be empty = everyone high) flags the devices
    /// whose association requests use the low-SNR shift — only consulted
    /// in slotted_aloha mode.
    churn_process(churn_spec spec, std::size_t universe, std::size_t capacity,
                  std::uint64_t seed, std::vector<bool> low_region = {});

    /// Devices associated before round 0.
    const std::vector<std::uint32_t>& initial_active() const { return initial_active_; }

    /// Advances one round.
    churn_events step(std::size_t round);

    /// Protocol-recovery entry point: `id` lost its association (reboot,
    /// lease eviction, missed-query trip, abandoned handshake) and must
    /// rejoin through the normal admission path. Marks the device
    /// inactive in the churn view and re-enters it as a join request at
    /// `round` — through the Aloha contention pool or the FIFO queue like
    /// any other joiner. Idempotent while the device is already waiting.
    void force_rejoin(std::uint32_t id, std::size_t round);

    std::size_t total_join_requests() const { return total_requests_; }
    std::size_t total_joins() const { return total_joins_; }
    std::size_t total_leaves() const { return total_leaves_; }
    double total_join_wait_rounds() const { return total_wait_rounds_; }
    std::size_t pending_joins() const;

    /// slotted_aloha: association requests transmitted / collided so far.
    std::size_t total_association_tx() const { return total_association_tx_; }
    std::size_t total_collisions() const { return total_collisions_; }
    /// Per-join wait (rounds), in admission order — the re-association
    /// latency distribution.
    const std::vector<double>& join_waits() const { return join_waits_; }

private:
    /// Picks `count` distinct ids satisfying `eligible`, uniformly.
    std::vector<std::uint32_t> pick(std::size_t count,
                                    const std::vector<bool>& eligible);
    /// Enters `id` into the admission path (Aloha pool or FIFO queue).
    void request_join(std::uint32_t id, std::size_t round);
    void admit(std::uint32_t id, std::size_t request_round, std::size_t round,
               churn_events& events, double& wait_sum);

    churn_spec spec_;
    std::size_t universe_;
    std::size_t capacity_;
    ns::util::rng rng_;
    std::vector<bool> active_;
    std::vector<bool> pending_;
    std::vector<bool> low_region_;
    std::deque<std::pair<std::uint32_t, std::size_t>> queue_;  ///< (id, request round)
    ns::mac::aloha_contention contention_;
    /// Per id: round of its Aloha request (slotted_aloha only; empty
    /// otherwise, where the FIFO queue carries the round).
    std::vector<std::size_t> request_round_;
    std::vector<std::uint32_t> initial_active_;
    std::vector<double> join_waits_;
    std::size_t active_count_ = 0;
    std::size_t total_requests_ = 0;
    std::size_t total_joins_ = 0;
    std::size_t total_leaves_ = 0;
    std::size_t total_association_tx_ = 0;
    std::size_t total_collisions_ = 0;
    double total_wait_rounds_ = 0.0;
};

}  // namespace ns::scenario
