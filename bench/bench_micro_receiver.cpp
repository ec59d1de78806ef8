// Receiver micro-bench (§3.1 complexity claim): dechirp + one FFT serve
// every concurrent device, so per-symbol demodulation cost is nearly
// constant with the device count. Round-loop timing lives in
// benchmark/ns_bench.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_report.hpp"
#include "netscatter/channel/awgn.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/demodulator.hpp"
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
            sink += demod.power_at_offset(
                power, static_cast<std::uint32_t>(d * stride % phy.num_bins()), 0,
                demod.padding_factor() / 2);
        }
    }
    if (sink < 0.0) std::cout << sink;  // defeat dead-code elimination
    return clock.seconds() * 1e6 / static_cast<double>(repeats);
}

}  // namespace

int main() {
    const bool quick = std::getenv("NS_BENCH_QUICK") != nullptr;
    bench::bench_report report("micro_receiver");
    const bench::stopwatch clock;

    ns::util::text_table demod_table(
        "Per-symbol demodulation (dechirp + one FFT + N bin reads)",
        {"# devices", "us/symbol"});
    const std::size_t repeats = quick ? 50 : 400;
    for (const std::size_t n : {1ul, 16ul, 64ul, 128ul, 256ul}) {
        const double us = symbol_demod_us(n, repeats);
        demod_table.add_row({std::to_string(n), ns::util::format_double(us, 1)});
        report.add_point({{"num_devices", static_cast<double>(n)},
                          {"us_per_symbol", us}});
    }
    demod_table.print(std::cout);

    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
