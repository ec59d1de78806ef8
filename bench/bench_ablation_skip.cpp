// Ablation — the SKIP guard bins (§3.2.1), evaluated at FULL capacity.
//
// SKIP trades concurrency for jitter margin: SKIP=1 packs 512 devices at
// 1-bin spacing but hardware delay jitter (up to 3.5 us ~ 1.75 bins at
// 500 kHz) makes neighbours bleed into each other; SKIP=2 — the deployed
// point — carries 256 devices with a full guard bin; SKIP=4 is safer
// still but halves capacity again. The interesting quantity is the
// aggregate GOODPUT = capacity x delivery x 976 bps, which SKIP=2
// maximizes under realistic jitter.
//
// The five settings are not a Cartesian product, so each is its own
// single-cell expansion of the office-256 scenario; the concatenated
// cells run as one batch on the deterministic sweep engine.
#include <iostream>

#include "netscatter/util/table.hpp"
#include "bench_report.hpp"
#include "paper_sweep.hpp"

int main() {
    const bench::stopwatch clock;
    ns::util::text_table table(
        "Ablation: SKIP at full capacity (jitter up to 3.5 us, 2 rounds)",
        {"SKIP", "jitter", "devices", "delivery rate", "BER", "goodput [kbps]"});

    // Full capacity is 512 / SKIP devices.
    struct setting {
        std::string skip, jitter, devices;
    };
    const std::vector<setting> settings = {{"1", "true", "512"},
                                           {"2", "true", "256"},
                                           {"4", "true", "128"},
                                           {"1", "false", "512"},
                                           {"2", "false", "256"}};
    const auto base = bench::office_spec({{"sim.rounds", "2"}, {"sim.seed", "21"}});
    std::vector<ns::spec::sweep_cell> cells;
    for (const setting& s : settings) {
        auto single = ns::spec::expand_sweep(base, {{"sim.skip", {s.skip}},
                                                    {"sim.model_timing_jitter", {s.jitter}},
                                                    {"geometry.num_devices", {s.devices}}});
        cells.push_back(std::move(single.front()));
    }
    const auto results = ns::spec::run_sweep(cells);

    bench::bench_report report("ablation_skip");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& spec = cells[i].spec;
        const std::size_t devices = spec.geometry.num_devices;
        const bool jitter = spec.sim.model_timing_jitter;
        const auto& result = results[i].sim;
        const double goodput_kbps =
            result.delivery_rate() * static_cast<double>(devices) * 976.5625 / 1e3;
        table.add_row({std::to_string(spec.sim.skip), jitter ? "on" : "off",
                       std::to_string(devices),
                       ns::util::format_double(result.delivery_rate(), 3),
                       ns::util::format_double(result.ber(), 4),
                       ns::util::format_double(goodput_kbps, 1)});
        report.add_point({{"skip", static_cast<double>(spec.sim.skip)},
                          {"jitter", jitter ? 1.0 : 0.0},
                          {"num_devices", static_cast<double>(devices)},
                          {"delivery_rate", result.delivery_rate()},
                          {"ber", result.ber()},
                          {"goodput_kbps", goodput_kbps}});
    }
    table.print(std::cout);
    std::cout << "\nexpected: with jitter on, SKIP=1 collapses (no guard bin for "
                 "~1-bin residuals, Fig. 14b) while SKIP=2 holds most of its 2x "
                 "capacity advantage over SKIP=4 — the paper's design point\n";
    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
