// Roofline attribution model (src/netscatter/obs/roofline.hpp): the
// analytic bytes/FLOPs model of the Dirichlet-kernel accumulation must
// match hand-computed values, the window-size formula must be the size
// make_dechirped_tone_kernel builds, the phy.kernel_window_elems counter must
// equal packets x kernels x window for a hand-built population, and the
// model inputs must be bit-identical across thread counts (they are
// deterministic workload facts, not host measurements).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "netscatter/channel/superposition.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/obs/roofline.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using ns::obs::kernel_loop_model;
using ns::phy::tone_kernel_window_size;

// ------------------------------------------------------- model math --

TEST(roofline_model, bytes_flops_and_rates_match_hand_computation) {
    kernel_loop_model model;
    model.window_elems = 1000;
    // 48 B/elem: kernel tap read + accumulator read + accumulator
    // write, all std::complex<double>. 8 flops/elem: complex multiply
    // (6) + complex add (2).
    EXPECT_DOUBLE_EQ(model.bytes(), 48000.0);
    EXPECT_DOUBLE_EQ(model.flops(), 8000.0);
    EXPECT_DOUBLE_EQ(model.arithmetic_intensity(), 8.0 / 48.0);

    // 48 kB in 1 ms = 48 MB/s = 0.048 GB/s; flops scale by 8/48.
    EXPECT_DOUBLE_EQ(model.achieved_gbps(1e-3), 48e-6 / 1e-3);
    EXPECT_DOUBLE_EQ(model.achieved_gflops(1e-3), 8e-6 / 1e-3);
    EXPECT_DOUBLE_EQ(model.fraction_of_peak(1e-3, 4.8), 0.01);

    // Degenerate denominators never divide.
    EXPECT_DOUBLE_EQ(model.achieved_gbps(0.0), 0.0);
    EXPECT_DOUBLE_EQ(model.achieved_gflops(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(model.fraction_of_peak(1e-3, 0.0), 0.0);
}

TEST(roofline_model, window_size_is_the_built_kernel_size) {
    // half = min(radius*padding, bins*padding/2); window = 2*half + 1,
    // clamped to the padded spectrum length.
    EXPECT_EQ(tone_kernel_window_size(512, 8, 16), 257u);  // 2*128 + 1
    EXPECT_EQ(tone_kernel_window_size(512, 2, 4), 17u);    // 2*8 + 1
    EXPECT_EQ(tone_kernel_window_size(8, 2, 1), 5u);       // 2*2 + 1
    // Oversized radius clamps to the padded length, not beyond.
    EXPECT_EQ(tone_kernel_window_size(512, 1, 400), 512u);
    EXPECT_EQ(tone_kernel_window_size(4, 1, 100), 4u);
    // The kernel builds exactly this many elements.
    const std::array<std::array<std::size_t, 3>, 4> geometries{
        {{512, 8, 16}, {512, 1, 400}, {8, 2, 1}, {4, 1, 100}}};
    for (const auto& [bins, padding, radius] : geometries) {
        const ns::phy::tone_kernel_table table(bins, padding, radius);
        ns::dsp::cvec kernel;
        ns::phy::make_dechirped_tone_kernel(kernel, 1.3, table);
        EXPECT_EQ(kernel.size(), tone_kernel_window_size(bins, padding, radius));
    }
}

TEST(roofline_model, from_snapshot_reads_the_counter_or_zero) {
    ns::obs::metrics_registry reg;
    reg.get_counter("phy.kernel_window_elems")->add(12345);
    const kernel_loop_model model =
        ns::obs::kernel_loop_model_from(reg.snapshot());
    EXPECT_EQ(model.window_elems, 12345u);
    // Absent counter (e.g. a sample-fidelity run): zero, not a throw.
    ns::obs::metrics_registry empty;
    EXPECT_EQ(ns::obs::kernel_loop_model_from(empty.snapshot()).window_elems,
              0u);
}

// --------------------------------------- counter vs hand-built combine --

TEST(roofline_model, kernel_window_elems_counts_packets_kernels_window) {
    // 3 packets, 8 payload symbols of which 5 are ON, 6 preamble
    // upchirps: 3 * (6 + 5) = 33 kernels. Radius 4 at padding 2 over
    // SF9's 512 bins: window = 2*4*2 + 1 = 17 elements per kernel.
    const auto phy = ns::phy::deployed_params();
    ns::channel::channel_config chan;
    chan.noise_power = 1.0;
    ns::channel::symbol_domain_params sd;
    sd.zero_padding = 2;
    sd.kernel_radius_bins = 4;
    sd.payload_symbols = 8;

    const std::vector<std::uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 1};
    std::vector<ns::channel::packet_contribution> packets(3);
    for (std::size_t d = 0; d < packets.size(); ++d) {
        packets[d].cyclic_shift = static_cast<std::uint32_t>(37 * (d + 1));
        packets[d].frame_bits = bits;
        packets[d].snr_db = 12.0;
        packets[d].frequency_offset_hz = 0.0;
    }

    ns::obs::metrics_registry registry;
    ns::channel::channel_workspace workspace;
    workspace.obs.metrics = &registry;
    ns::util::rng gen(7);
    ns::channel::combine_symbol_domain(packets, phy, chan, sd, gen, workspace);

    const std::uint64_t window =
        tone_kernel_window_size(phy.num_bins(), sd.zero_padding,
                                sd.kernel_radius_bins);
    EXPECT_EQ(window, 17u);
    const std::uint64_t kernels = 3 * (sd.preamble_upchirps + 5);
    const ns::obs::metrics_snapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter_value("phy.kernels_summed"), kernels);
    EXPECT_EQ(snap.counter_value("phy.kernel_window_elems"),
              kernels * window);

    const kernel_loop_model model = ns::obs::kernel_loop_model_from(snap);
    EXPECT_DOUBLE_EQ(model.bytes(),
                     static_cast<double>(kernels * window) * 48.0);
    EXPECT_DOUBLE_EQ(model.flops(),
                     static_cast<double>(kernels * window) * 8.0);
}

// -------------------------------------------- thread-count invariance --

TEST(roofline_model, model_inputs_are_identical_across_thread_counts) {
    // The roofline numerators (elems, bytes, flops, intensity) are
    // deterministic workload facts and must not depend on the thread
    // count; only the measured denominator (seconds) is a host fact.
    auto spec = *ns::scenario::find_scenario("office-256");
    spec.sim.rounds = 2;
    spec.replicas = 2;
    spec.sim.obs.metrics = true;

    const auto serial = ns::scenario::run_scenario(spec, {.num_threads = 1});
    const auto threaded = ns::scenario::run_scenario(spec, {.num_threads = 4});

    const kernel_loop_model a =
        ns::obs::kernel_loop_model_from(serial.sim.metrics);
    const kernel_loop_model b =
        ns::obs::kernel_loop_model_from(threaded.sim.metrics);
    EXPECT_GT(a.window_elems, 0u);  // the fast path actually ran
    EXPECT_EQ(a.window_elems, b.window_elems);
    EXPECT_DOUBLE_EQ(a.bytes(), b.bytes());
    EXPECT_DOUBLE_EQ(a.flops(), b.flops());
    EXPECT_DOUBLE_EQ(a.arithmetic_intensity(), b.arithmetic_intensity());
}

}  // namespace
