#include "netscatter/scenario/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "netscatter/util/error.hpp"

namespace ns::scenario {

traffic_model::traffic_model(traffic_spec spec, std::size_t num_devices,
                             std::uint64_t seed)
    : spec_(spec),
      rng_(seed),
      num_devices_(num_devices),
      phase_(spec.kind == traffic_kind::periodic ? num_devices : 0),
      backlog_(spec.kind == traffic_kind::poisson || spec.kind == traffic_kind::bursty
                   ? num_devices
                   : 0) {
    ns::util::require(spec_.period_rounds >= 1,
                      "traffic: period_rounds must be >= 1");
    ns::util::require(spec_.duty_cycle >= 0.0 && spec_.duty_cycle <= 1.0,
                      "traffic: duty_cycle must be in [0, 1]");
    ns::util::require(spec_.arrivals_per_round >= 0.0,
                      "traffic: arrivals_per_round must be >= 0");
    ns::util::require(spec_.burst_probability >= 0.0 && spec_.burst_probability <= 1.0,
                      "traffic: burst_probability must be in [0, 1]");
    // Random per-device phases desynchronize periodic reporters the way
    // independently power-cycled sensors are. Every kind draws them, so
    // each leaves rng_ in the same state; only periodic traffic keeps them.
    for (std::size_t i = 0; i < num_devices; ++i) {
        const auto phase = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(spec_.period_rounds) - 1));
        if (!phase_.empty()) phase_[i] = phase;
    }
}

bool traffic_model::offers(std::size_t round, std::uint32_t device_id) {
    const std::size_t i = device_id % num_devices_;
    switch (spec_.kind) {
        case traffic_kind::saturated:
            return true;
        case traffic_kind::periodic: {
            const std::size_t on_rounds = static_cast<std::size_t>(
                std::llround(spec_.duty_cycle *
                             static_cast<double>(spec_.period_rounds)));
            return (round + phase_[i]) % spec_.period_rounds < on_rounds;
        }
        case traffic_kind::poisson: {
            backlog_[i] += rng_.poisson(spec_.arrivals_per_round);
            if (backlog_[i] == 0) return false;
            --backlog_[i];
            return true;
        }
        case traffic_kind::bursty: {
            if (backlog_[i] == 0 && rng_.bernoulli(spec_.burst_probability)) {
                backlog_[i] = spec_.burst_length;
            }
            if (backlog_[i] == 0) return false;
            --backlog_[i];
            return true;
        }
    }
    return true;
}

double traffic_model::expected_offered_load() const {
    switch (spec_.kind) {
        case traffic_kind::saturated:
            return 1.0;
        case traffic_kind::periodic:
            return std::llround(spec_.duty_cycle *
                                static_cast<double>(spec_.period_rounds)) /
                   static_cast<double>(spec_.period_rounds);
        case traffic_kind::poisson:
            // The per-device queue serves one packet per round, so its
            // utilization is min(arrival rate, 1).
            return std::min(spec_.arrivals_per_round, 1.0);
        case traffic_kind::bursty: {
            // Renewal cycle: a burst of L busy rounds, then a geometric
            // idle gap with mean 1/p rounds.
            const double busy = static_cast<double>(spec_.burst_length);
            if (spec_.burst_probability <= 0.0) return 0.0;
            return busy / (busy + 1.0 / spec_.burst_probability);
        }
    }
    return 1.0;
}

}  // namespace ns::scenario
