// Roofline microbench of the symbol-domain kernel-accumulation loop.
//
// Two measurements, written to BENCH_roofline.json:
//  1. The machine's memory-bandwidth ceiling: a STREAM-style triad
//     (a[i] = b[i] + s*c[i], 24 bytes/element) over arrays far larger
//     than the last-level cache, best pass of several.
//  2. The symbol-domain hot loop — combine_symbol_domain's Dirichlet
//     kernel accumulation (accumulate_symbol in
//     channel/kernel_batch.cpp) — at several device counts and kernel
//     radii.
//     Traffic and work come from the analytic model (obs/roofline.hpp:
//     48 bytes and 8 flops per accumulated window element, counted
//     deterministically by phy.kernel_window_elems); time comes from
//     the phy.kernel_sum_s probe, so the reported GB/s covers exactly
//     the accumulation loop, not noise synthesis. Each point reports
//     achieved GB/s, GFLOP/s and % of the triad ceiling — the numbers
//     a SIMD/SoA PR must move. Where perf_event_open is permitted,
//     per-point IPC and LLC miss rate ride along; where it is not, the
//     bench degrades to the analytic + wall-clock view.
//
// % of peak can exceed 100 at small device counts: the per-symbol
// accumulators fit in cache, and the triad ceiling is DRAM bandwidth.
// The interesting regime is large populations, where the spectra walk
// out of cache and the loop pins to the memory roof.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/obs/perf_counters.hpp"
#include "netscatter/obs/roofline.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/util/rng.hpp"
#include "netscatter/util/table.hpp"

namespace {

// STREAM triad bandwidth in GB/s: 2 reads + 1 write of a double per
// element, best pass wins (the standard STREAM convention).
double measure_triad_gbps(std::size_t elems, std::size_t passes) {
    std::vector<double> a(elems, 0.0);
    std::vector<double> b(elems, 1.5);
    std::vector<double> c(elems, 2.5);
    const double scalar = 3.0;
    double best_gbps = 0.0;
    for (std::size_t pass = 0; pass < passes + 1; ++pass) {
        const bench::stopwatch clock;
        for (std::size_t i = 0; i < elems; ++i) {
            a[i] = b[i] + scalar * c[i];
        }
        const double seconds = clock.seconds();
        // Feed the result back so no pass can be dead-code eliminated.
        b[pass % elems] += a[(pass + elems / 2) % elems] * 1e-9;
        if (pass == 0) continue;  // warm-up pass (page faults)
        if (seconds > 0.0) {
            const double gbps =
                24.0 * static_cast<double>(elems) / seconds * 1e-9;
            best_gbps = std::max(best_gbps, gbps);
        }
    }
    if (a[0] > 1e30) std::cout << a[0];  // defeat dead-code elimination
    return best_gbps;
}

struct kernel_point {
    std::size_t devices = 0;
    std::size_t radius_bins = 0;
    std::size_t iters = 0;
    std::uint64_t window_elems = 0;
    double seconds = 0.0;
    double gbps = 0.0;
    double gflops = 0.0;
    double ipc = 0.0;
    double llc_miss_rate = 0.0;
};

// One sweep point: repeated combine_symbol_domain calls on a synthetic
// population, measured through the same phy.kernel_window_elems /
// phy.kernel_sum_s probes every scenario run carries — the bench and
// the simulator report the identical quantity.
kernel_point run_kernel_point(std::size_t devices, std::size_t radius_bins,
                              double min_seconds,
                              ns::obs::perf_counter_group* perf) {
    const auto phy = ns::phy::deployed_params();
    ns::channel::channel_config chan;
    chan.noise_power = 1.0;
    ns::channel::symbol_domain_params sd;
    sd.zero_padding = 4;
    sd.kernel_radius_bins = radius_bins;

    ns::util::rng rng(42);
    std::vector<std::vector<std::uint8_t>> bits(devices);
    std::vector<ns::channel::packet_contribution> packets(devices);
    const std::size_t stride =
        std::max<std::size_t>(1, phy.num_bins() / std::max<std::size_t>(devices, 1));
    for (std::size_t d = 0; d < devices; ++d) {
        bits[d].resize(sd.payload_symbols);
        for (auto& bit : bits[d]) {
            bit = static_cast<std::uint8_t>(rng() & 1);
        }
        auto& packet = packets[d];
        packet.cyclic_shift =
            static_cast<std::uint32_t>(d * stride % phy.num_bins());
        packet.frame_bits = bits[d];
        packet.snr_db = 12.0;
        packet.frequency_offset_hz = rng.uniform(-50.0, 50.0);
    }

    ns::obs::metrics_registry registry;
    ns::channel::channel_workspace workspace;
    if (perf != nullptr && perf->available()) {
        workspace.obs = ns::obs::obs_sink::wire(&registry, perf);
    } else {
        workspace.obs.metrics = &registry;
    }

    // Warm the workspace (spectra/kernel capacity growth) off the clock.
    ns::channel::combine_symbol_domain(packets, phy, chan, sd, rng, workspace);
    const ns::obs::metrics_snapshot base = registry.snapshot();

    kernel_point point;
    point.devices = devices;
    point.radius_bins = radius_bins;
    const bench::stopwatch clock;
    do {
        ns::channel::combine_symbol_domain(packets, phy, chan, sd, rng,
                                           workspace);
        ++point.iters;
    } while (clock.seconds() < min_seconds);

    const ns::obs::metrics_snapshot snap = registry.snapshot();
    point.window_elems = snap.counter_value("phy.kernel_window_elems") -
                         base.counter_value("phy.kernel_window_elems");
    point.seconds = snap.histogram_sum("phy.kernel_sum_s") -
                    base.histogram_sum("phy.kernel_sum_s");
    ns::obs::kernel_loop_model model;
    model.window_elems = point.window_elems;
    point.gbps = model.achieved_gbps(point.seconds);
    point.gflops = model.achieved_gflops(point.seconds);
    const std::uint64_t cycles =
        snap.counter_value("perf.kernel_sum.cycles") -
        base.counter_value("perf.kernel_sum.cycles");
    const std::uint64_t instructions =
        snap.counter_value("perf.kernel_sum.instructions") -
        base.counter_value("perf.kernel_sum.instructions");
    point.ipc = ns::obs::perf_ipc(instructions, cycles);
    point.llc_miss_rate = ns::obs::perf_miss_rate(
        snap.counter_value("perf.kernel_sum.llc_misses") -
            base.counter_value("perf.kernel_sum.llc_misses"),
        snap.counter_value("perf.kernel_sum.llc_loads") -
            base.counter_value("perf.kernel_sum.llc_loads"));
    return point;
}

}  // namespace

int main() {
    const bool quick = std::getenv("NS_BENCH_QUICK") != nullptr;
    bench::bench_report report("roofline");
    const bench::stopwatch clock;

    // --- 1. Memory-bandwidth ceiling (STREAM triad) ---------------------
    const std::size_t triad_elems = quick ? (1u << 20) : (1u << 22);
    const std::size_t triad_passes = quick ? 3 : 7;
    const double triad_gbps = measure_triad_gbps(triad_elems, triad_passes);
    std::cout << "STREAM triad ceiling: "
              << ns::util::format_double(triad_gbps, 2) << " GB/s ("
              << triad_elems << " doubles/array, best of " << triad_passes
              << ")\n";
    report.set_scalar("triad_gbps", triad_gbps);
    report.set_scalar("triad_elems", static_cast<double>(triad_elems));
    report.set_scalar("triad_bytes_per_elem", 24.0);

    // --- 2. Kernel-accumulation loop vs the ceiling ---------------------
    ns::obs::perf_counter_group perf;
    const bool perf_open = perf.open();
    report.set_scalar("perf_available", perf_open ? 1.0 : 0.0);
    if (!perf_open) {
        std::cout << "perf counters unavailable (perf_event_open denied or "
                     "NS_PERF_DISABLE); IPC columns report 0\n";
    }

    const ns::obs::kernel_loop_model traffic_model;
    report.set_scalar("kernel_bytes_per_elem",
                      ns::obs::kernel_loop_model::bytes_per_elem);
    report.set_scalar("kernel_flops_per_elem",
                      ns::obs::kernel_loop_model::flops_per_elem);
    report.set_scalar("arithmetic_intensity",
                      traffic_model.arithmetic_intensity());

    ns::util::text_table table(
        "Dirichlet kernel accumulation vs memory roof",
        {"devices", "radius", "GB/s", "GFLOP/s", "% of peak", "IPC",
         "LLC miss"});
    const double min_seconds = quick ? 0.05 : 0.25;
    const std::vector<std::size_t> device_sweep =
        quick ? std::vector<std::size_t>{64, 256}
              : std::vector<std::size_t>{64, 256, 1024};
    const std::vector<std::size_t> radius_sweep =
        quick ? std::vector<std::size_t>{16}
              : std::vector<std::size_t>{4, 16, 64};
    for (const std::size_t devices : device_sweep) {
        for (const std::size_t radius : radius_sweep) {
            const kernel_point point =
                run_kernel_point(devices, radius, min_seconds, &perf);
            const ns::obs::kernel_loop_model model{point.window_elems};
            const double pct =
                100.0 * model.fraction_of_peak(point.seconds, triad_gbps);
            table.add_row(
                {std::to_string(devices), std::to_string(radius),
                 ns::util::format_double(point.gbps, 2),
                 ns::util::format_double(point.gflops, 2),
                 ns::util::format_double(pct, 1) + " %",
                 ns::util::format_double(point.ipc, 2),
                 ns::util::format_double(100.0 * point.llc_miss_rate, 1) +
                     " %"});
            report.add_point(
                {{"devices", static_cast<double>(devices)},
                 {"kernel_radius_bins", static_cast<double>(radius)},
                 {"iters", static_cast<double>(point.iters)},
                 {"window_elems", static_cast<double>(point.window_elems)},
                 {"kernel_sum_wall_s", point.seconds},
                 {"gbps", point.gbps},
                 {"gflops", point.gflops},
                 {"pct_of_peak", pct},
                 {"ipc", point.ipc},
                 {"llc_miss_rate", point.llc_miss_rate}});
        }
    }
    table.print(std::cout);
    std::cout << "\n(traffic model: 48 B + 8 flops per accumulated window "
                 "element — see src/netscatter/obs/roofline.hpp; ceiling = "
                 "STREAM triad)\n";

    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
