// Receiver micro-bench (§3.1 complexity claim + §3.2 fast path).
//
// Two measurements:
//  1. The paper's receiver-complexity claim: dechirp + one FFT serve
//     every concurrent device, so per-symbol demodulation cost is nearly
//     constant with the device count.
//  2. The symbol-domain fast path: end-to-end round cost (transmit-side
//     synthesis + channel superposition vs receiver decode) under
//     phy_fidelity::sample and ::symbol at increasing concurrency, with
//     the per-round synth/decode wall-clock split and the resulting
//     round-throughput speedup recorded in BENCH_micro_receiver.json —
//     the perf claims are measured, not asserted.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_report.hpp"
#include "netscatter/channel/awgn.hpp"
#include "netscatter/dsp/fft.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/demodulator.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/util/rng.hpp"
#include "netscatter/util/table.hpp"

namespace {

// Builds one superposed payload symbol from `n` concurrent devices.
ns::dsp::cvec make_superposed_symbol(std::size_t n_devices, ns::util::rng& rng) {
    const auto phy = ns::phy::deployed_params();
    ns::dsp::cvec rx(phy.samples_per_symbol(), ns::dsp::cplx{0.0, 0.0});
    const std::size_t stride = phy.num_bins() / std::max<std::size_t>(n_devices, 1);
    for (std::size_t d = 0; d < n_devices; ++d) {
        ns::dsp::cvec chirp = ns::phy::make_upchirp(
            phy, static_cast<double>(d * stride % phy.num_bins()));
        ns::dsp::accumulate(rx, chirp);
    }
    ns::channel::add_noise(rx, 1.0, rng);
    return rx;
}

// Per-symbol demodulation of all N devices: dechirp + FFT + N bin reads.
double symbol_demod_us(std::size_t n_devices, std::size_t repeats) {
    const auto phy = ns::phy::deployed_params();
    ns::util::rng rng(1);
    const ns::dsp::cvec symbol = make_superposed_symbol(n_devices, rng);
    const ns::phy::demodulator demod(phy, 8);
    const std::size_t stride = phy.num_bins() / std::max<std::size_t>(n_devices, 1);

    const bench::stopwatch clock;
    double sink = 0.0;
    for (std::size_t r = 0; r < repeats; ++r) {
        const auto power = demod.symbol_power_spectrum(symbol);
        for (std::size_t d = 0; d < n_devices; ++d) {
            sink += demod.power_at_bin(
                power, static_cast<std::uint32_t>(d * stride % phy.num_bins()));
        }
    }
    if (sink < 0.0) std::cout << sink;  // defeat dead-code elimination
    return clock.seconds() * 1e6 / static_cast<double>(repeats);
}

struct fidelity_point {
    std::size_t devices = 0;
    double synth_ms_per_round = 0.0;
    double decode_ms_per_round = 0.0;
    double rounds_per_s = 0.0;
    double delivery_rate = 0.0;
};

// Runs the full simulator (association + rounds) at the given fidelity
// and reports the per-round synth/decode wall-clock split. Populations
// above one concurrency group run as §3.3.3 scheduled groups.
fidelity_point run_fidelity(std::size_t devices, std::size_t rounds,
                            ns::sim::phy_fidelity fidelity) {
    ns::sim::deployment_params dep_params;
    dep_params.floor_width_m = 60.0;
    dep_params.floor_depth_m = 60.0;
    dep_params.rooms_x = 1;
    dep_params.rooms_y = 1;
    dep_params.min_distance_m = 2.0;
    dep_params.pathloss.wall_loss_db = 0.0;
    const ns::sim::deployment dep(dep_params, devices, 7);

    ns::sim::sim_config config;
    config.zero_padding = 4;
    config.rounds = rounds;
    config.seed = 11;
    config.fidelity = fidelity;
    if (devices > 250) {
        config.grouping.enabled = true;
        config.grouping.group_capacity = 250;
    }
    ns::sim::network_simulator sim(dep, config);
    const ns::sim::sim_result result = sim.run();

    fidelity_point point;
    point.devices = devices;
    const double n_rounds = static_cast<double>(result.rounds.size());
    const ns::sim::round_wall_split wall = ns::sim::wall_split(result.metrics);
    point.synth_ms_per_round = wall.synth_s * 1e3 / n_rounds;
    point.decode_ms_per_round = wall.decode_s * 1e3 / n_rounds;
    const double loop_s = wall.synth_s + wall.decode_s;
    point.rounds_per_s = loop_s > 0.0 ? n_rounds / loop_s : 0.0;
    point.delivery_rate = result.delivery_rate();
    return point;
}

}  // namespace

int main() {
    const bool quick = std::getenv("NS_BENCH_QUICK") != nullptr;
    bench::bench_report report("micro_receiver");
    const bench::stopwatch clock;

    // --- 1. Receiver complexity vs concurrency (one FFT serves all) ----
    ns::util::text_table demod_table(
        "Per-symbol demodulation (dechirp + one FFT + N bin reads)",
        {"# devices", "us/symbol"});
    const std::size_t repeats = quick ? 50 : 400;
    for (const std::size_t n : {1ul, 16ul, 64ul, 128ul, 256ul}) {
        const double us = symbol_demod_us(n, repeats);
        demod_table.add_row({std::to_string(n), ns::util::format_double(us, 1)});
        report.add_section_point("symbol_demod",
                                 {{"num_devices", static_cast<double>(n)},
                                  {"us_per_symbol", us}});
    }
    demod_table.print(std::cout);

    // --- 2. Sample vs symbol fidelity: per-round synth/decode split ----
    ns::util::text_table split_table(
        "Round loop wall-clock split: sample vs symbol fidelity",
        {"# devices", "synth smp [ms]", "decode smp [ms]", "synth sym [ms]",
         "decode sym [ms]", "rounds/s smp", "rounds/s sym", "speedup"});
    const std::size_t rounds = quick ? 4 : 8;
    for (const std::size_t devices : {256ul, 1000ul, 10000ul}) {
        if (quick && devices > 1000) continue;
        const fidelity_point sample =
            run_fidelity(devices, rounds, ns::sim::phy_fidelity::sample);
        const fidelity_point symbol =
            run_fidelity(devices, rounds, ns::sim::phy_fidelity::symbol);
        const double speedup = sample.rounds_per_s > 0.0
                                   ? symbol.rounds_per_s / sample.rounds_per_s
                                   : 0.0;
        split_table.add_row(
            {std::to_string(devices),
             ns::util::format_double(sample.synth_ms_per_round, 2),
             ns::util::format_double(sample.decode_ms_per_round, 2),
             ns::util::format_double(symbol.synth_ms_per_round, 2),
             ns::util::format_double(symbol.decode_ms_per_round, 2),
             ns::util::format_double(sample.rounds_per_s, 1),
             ns::util::format_double(symbol.rounds_per_s, 1),
             ns::util::format_double(speedup, 1) + "x"});
        report.add_point(
            {{"num_devices", static_cast<double>(devices)},
             {"sample_synth_ms_per_round", sample.synth_ms_per_round},
             {"sample_decode_ms_per_round", sample.decode_ms_per_round},
             {"symbol_synth_ms_per_round", symbol.synth_ms_per_round},
             {"symbol_decode_ms_per_round", symbol.decode_ms_per_round},
             {"sample_rounds_per_s", sample.rounds_per_s},
             {"symbol_rounds_per_s", symbol.rounds_per_s},
             {"sample_delivery_rate", sample.delivery_rate},
             {"symbol_delivery_rate", symbol.delivery_rate},
             {"round_throughput_speedup", speedup}});
    }
    split_table.print(std::cout);
    std::cout << "\n(symbol fidelity = analytic Dirichlet-kernel synthesis; "
                 "sample fidelity = full time-domain superposition)\n";

    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
