// Spec-path helpers shared by the network-evaluation benches (Figs.
// 17-19 and the ablations): every bench starts from the committed
// office-256 scenario, overrides a few keys, and runs its cells through
// ns::spec::run_sweep — the same deterministic engine netscatter_sweep
// uses, so a bench point is reproducible from the CLI.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/spec/spec_codec.hpp"
#include "netscatter/spec/sweep.hpp"

namespace bench {

/// The x-axis of Figs. 17-19: the office population from 1 to 256.
inline const ns::spec::sweep_axis paper_device_axis{
    "geometry.num_devices",
    {"1", "16", "32", "64", "96", "128", "160", "192", "224", "256"}};

/// The registered office-256 scenario with one replica and `overrides`
/// (spec key, value token) applied through the strict codec.
inline ns::scenario::scenario_spec office_spec(
    const std::vector<std::pair<std::string, std::string>>& overrides) {
    std::optional<ns::scenario::scenario_spec> spec =
        ns::scenario::find_scenario("office-256");
    if (!spec) throw std::runtime_error("office-256 is not a registered scenario");
    ns::spec::apply_spec_override(*spec, "replicas", "1", "bench");
    for (const auto& [key, value] : overrides) {
        ns::spec::apply_spec_override(*spec, key, value, "bench");
    }
    return *spec;
}

/// Per-device backscatter RSSI at the AP for the deployment every
/// replica of `spec` builds (the rate-adapted LoRa baseline's input).
inline std::vector<double> uplink_rssi_dbm(const ns::scenario::scenario_spec& spec) {
    const ns::sim::deployment dep(ns::scenario::resolve_geometry(spec.geometry),
                                  spec.geometry.num_devices, spec.sim.seed);
    std::vector<double> rssi;
    rssi.reserve(dep.devices().size());
    for (const auto& device : dep.devices()) rssi.push_back(device.uplink_rx_dbm);
    return rssi;
}

}  // namespace bench
