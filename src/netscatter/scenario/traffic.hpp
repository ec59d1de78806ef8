// Per-device traffic models (which devices have data each round).
//
// The paper's evaluation keeps every device saturated; real sensor
// fleets report on duty cycles, with Poisson-ish independent readings,
// or in event-driven bursts. The model answers one question per active
// device per round — "does this device have a packet?" — and the
// simulator sits a device out when the answer is no, so offered load
// (not just channel capacity) shapes the network metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "netscatter/scenario/scenario_spec.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::scenario {

/// Stateful traffic model over a fixed device universe. Calls must be
/// made in a deterministic order (the simulator queries active devices
/// in slot order) for run-to-run reproducibility.
class traffic_model {
public:
    traffic_model(traffic_spec spec, std::size_t num_devices, std::uint64_t seed);

    /// Whether `device_id` has a packet to send in `round`. For queueing
    /// kinds (poisson, bursty) a `true` consumes one packet of backlog.
    bool offers(std::size_t round, std::uint32_t device_id);

    /// Long-run expected fraction of device-rounds with data; the
    /// statistics tests check realized load against this.
    double expected_offered_load() const;

    const traffic_spec& spec() const { return spec_; }

private:
    traffic_spec spec_;
    ns::util::rng rng_;
    std::size_t num_devices_;  ///< device ids wrap modulo this
    std::vector<std::size_t> phase_;  ///< periodic only: per-device offset
    std::vector<std::uint64_t> backlog_;   ///< poisson/bursty only: queued packets
};

}  // namespace ns::scenario
