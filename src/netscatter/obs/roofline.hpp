// Analytic roofline model of the symbol-domain hot loop.
//
// The fast path's inner loop (`accumulate_symbol`, which runs the
// `accumulate_run_*` legs in channel/kernel_batch.cpp) is
//     spectrum[i] += kernel[w] * scalar;
// over std::complex<double> — per window element it reads the kernel
// tap (16 B) and the accumulator (16 B), writes the accumulator back
// (16 B), and performs one complex multiply-by-scalar (6 flops) plus
// one complex add (2 flops). The element count is observable and
// deterministic: every fast-path sweep counts the window elements it
// actually sums into the `phy.kernel_window_elems` counter — whole
// windows for the preamble and for combine_symbol_domain, only the
// elements that land in the requested bins for a payload request — so
//     bytes  = 48 * elems,   flops = 8 * elems,
//     arithmetic intensity = 8/48 = 1/6 flop/byte  (loop-invariant).
// Dividing by a measured phase time (phy.kernel_sum_s) yields achieved
// GB/s and GFLOP/s; dividing achieved GB/s by a measured STREAM-triad
// ceiling (bench_roofline) yields % of peak. At 1/6 flop/byte the loop
// sits far left on the roofline: memory-bound.
//
// Determinism: the model itself (elems, bytes, flops, intensity) is a
// pure function of the workload and is safe to emit anywhere; only the
// time-derived rates (GB/s, GFLOP/s) are host facts: the metrics
// writer adds them only to unstripped output.
#pragma once

#include <cstdint>

#include "netscatter/obs/metrics.hpp"

namespace ns::obs {

/// Traffic/work model of the kernel-accumulation loop.
struct kernel_loop_model {
    /// Total accumulated window elements (over every kernel summed, the
    /// elements that landed in the bins its sweep made) — the
    /// phy.kernel_window_elems counter.
    std::uint64_t window_elems = 0;

    /// Per-element traffic: kernel tap read + accumulator read +
    /// accumulator write, all std::complex<double>.
    static constexpr double bytes_per_elem = 48.0;
    /// Per-element work: complex×complex multiply (6) + complex add (2).
    static constexpr double flops_per_elem = 8.0;

    double bytes() const {
        return static_cast<double>(window_elems) * bytes_per_elem;
    }
    double flops() const {
        return static_cast<double>(window_elems) * flops_per_elem;
    }
    /// flops/byte; constant 1/6 by construction, independent of the
    /// workload and of how many threads produced it.
    double arithmetic_intensity() const {
        return flops_per_elem / bytes_per_elem;
    }
    double achieved_gbps(double seconds) const {
        return seconds > 0.0 ? bytes() / seconds * 1e-9 : 0.0;
    }
    double achieved_gflops(double seconds) const {
        return seconds > 0.0 ? flops() / seconds * 1e-9 : 0.0;
    }
    /// Achieved bandwidth as a fraction of a measured ceiling
    /// (e.g. the STREAM triad from bench_roofline). Can exceed 1 when
    /// the working set is cache-resident — the triad ceiling is DRAM.
    double fraction_of_peak(double seconds, double peak_gbps) const {
        return peak_gbps > 0.0 ? achieved_gbps(seconds) / peak_gbps : 0.0;
    }
};

/// Builds the model from a merged metrics snapshot (reads
/// phy.kernel_window_elems; zero when the counter is absent, e.g.
/// sample-fidelity runs or runs with metrics off).
kernel_loop_model kernel_loop_model_from(const metrics_snapshot& snapshot);

/// Window size of one truncated Dirichlet kernel, as the kernel builds
/// it: phy::tone_kernel_window_size under the name ns_bench reads.
std::uint64_t kernel_window_size(std::size_t num_bins, std::size_t padding,
                                 std::size_t radius_bins);

}  // namespace ns::obs
