// Fig. 17 — network PHY bit-rate vs number of concurrent backscatter
// devices, for four schemes: LoRa backscatter without and with (ideal)
// rate adaptation, NetScatter (ideal), and NetScatter as measured by the
// round simulator on the office-256 scenario (its rounds take the
// symbol-domain fast path).
//
// Paper shape: NetScatter scales linearly to ~250 kbps at 256 devices
// (976 bps per device); LoRa backscatter stays flat (~8.7 kbps without
// rate adaptation, tens of kbps with). Gains at 256 devices: 26.2x /
// 6.8x. Variance grows past 128 devices as SKIP drops to 2.
#include <cstdlib>
#include <iostream>

#include "netscatter/baseline/lora_link.hpp"
#include "netscatter/engine/block_runner.hpp"
#include "netscatter/sim/timeline.hpp"
#include "netscatter/util/table.hpp"
#include "bench_report.hpp"
#include "paper_sweep.hpp"

namespace {

bool same_sweep(const std::vector<ns::scenario::scenario_result>& a,
                const std::vector<ns::scenario::scenario_result>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].sim.mean_delivered_per_round() != b[i].sim.mean_delivered_per_round() ||
            a[i].sim.delivery_rate() != b[i].sim.delivery_rate()) {
            return false;
        }
    }
    return true;
}

}  // namespace

int main() {
    const auto cells = ns::spec::expand_sweep(
        bench::office_spec({{"sim.rounds", "3"}, {"sim.seed", "17"}}),
        {bench::paper_device_axis});
    const auto frame = cells.front().spec.sim.frame;  // 5-byte payload (§4.4)
    const auto phy = ns::phy::deployed_params();

    // Parallel sweep through the engine, then the serial reference (same
    // tasks on one thread). The two must be bit-identical; the ratio of
    // their wall clocks is the engine's speedup. Set
    // NS_BENCH_SKIP_SERIAL=1 to skip the (slow) reference on big runs.
    const bench::stopwatch parallel_clock;
    const auto sweep = ns::spec::run_sweep(cells);
    const double parallel_s = parallel_clock.seconds();

    double serial_s = 0.0;
    bool identical = true;
    const bool skip_serial = std::getenv("NS_BENCH_SKIP_SERIAL") != nullptr;
    if (!skip_serial) {
        const bench::stopwatch serial_clock;
        const auto serial_sweep = ns::spec::run_sweep(cells, {.num_threads = 1});
        serial_s = serial_clock.seconds();
        identical = same_sweep(sweep, serial_sweep);
    }

    ns::util::text_table table(
        "Fig 17: network PHY rate [kbps] vs # devices",
        {"# devices", "LoRa-BS fixed", "LoRa-BS rate-adapt", "NetScatter (ideal)",
         "NetScatter (simulated)", "delivered/round"});

    bench::bench_report report("fig17_phy_rate");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t devices = cells[i].spec.geometry.num_devices;
        const double mean_delivered = sweep[i].sim.mean_delivered_per_round();
        const auto lora = ns::baseline::fixed_rate_network(frame, devices);
        const auto adapted = ns::baseline::rate_adapted_network(
            frame, bench::uplink_rssi_dbm(cells[i].spec));
        const auto ideal = ns::sim::netscatter_ideal_metrics(
            frame, phy, ns::sim::query_config::config1, devices);
        const auto measured = ns::sim::netscatter_metrics(
            frame, phy, ns::sim::query_config::config1,
            static_cast<std::size_t>(mean_delivered + 0.5), devices);

        table.add_row({std::to_string(devices),
                       ns::util::format_double(lora.phy_rate_bps / 1e3, 1),
                       ns::util::format_double(adapted.phy_rate_bps / 1e3, 1),
                       ns::util::format_double(ideal.phy_rate_bps / 1e3, 1),
                       ns::util::format_double(measured.phy_rate_bps / 1e3, 1),
                       ns::util::format_double(mean_delivered, 1)});
        report.add_point({{"num_devices", static_cast<double>(devices)},
                          {"mean_delivered", mean_delivered},
                          {"delivery_rate", sweep[i].sim.delivery_rate()},
                          {"phy_rate_kbps", measured.phy_rate_bps / 1e3}});
    }
    table.print(std::cout);

    const auto lora = ns::baseline::fixed_rate_network(frame, 256);
    const auto adapted = ns::baseline::rate_adapted_network(
        frame, bench::uplink_rssi_dbm(cells.back().spec));
    const auto measured = ns::sim::netscatter_metrics(
        frame, phy, ns::sim::query_config::config1,
        static_cast<std::size_t>(sweep.back().sim.mean_delivered_per_round() + 0.5),
        256);
    std::cout << "\nat 256 devices: gain over fixed LoRa-BS = "
              << ns::util::format_double(measured.phy_rate_bps / lora.phy_rate_bps, 1)
              << "x (paper: 26.2x), over rate-adapted = "
              << ns::util::format_double(measured.phy_rate_bps / adapted.phy_rate_bps, 1)
              << "x (paper: 6.8x)\n";

    std::cout << "\nengine: " << ns::engine::block_runner::hardware_threads()
              << " hardware threads, parallel sweep "
              << ns::util::format_double(parallel_s, 2) << " s";
    if (!skip_serial) {
        std::cout << ", serial reference " << ns::util::format_double(serial_s, 2)
                  << " s, speedup "
                  << ns::util::format_double(serial_s / parallel_s, 2)
                  << "x, bit-identical: " << (identical ? "yes" : "NO");
    }
    std::cout << "\n";

    report.set_scalar("wall_clock_s", parallel_s);
    report.set_scalar("hardware_threads",
                      static_cast<double>(ns::engine::block_runner::hardware_threads()));
    if (!skip_serial) {
        report.set_scalar("serial_wall_clock_s", serial_s);
        report.set_scalar("speedup", serial_s / parallel_s);
        report.set_scalar("bit_identical", identical ? 1.0 : 0.0);
    }
    report.write();
    return identical ? 0 : 1;
}
