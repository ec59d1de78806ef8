// SoA kernel batch for the symbol-domain fast path (§3.2).
//
// combine_symbol_domain used to walk packets one at a time, scattering
// each packet's truncated Dirichlet window into every ON symbol straight
// from AoS packet structs. The batch splits the round into two stages:
//
//  * planning — flatten every placement (symbol index, window reference,
//    first padded bin, complex amplitude) into contiguous arrays, then
//    bucket them by symbol with a stable counting sort;
//  * accumulation — sweep one symbol's placements with a vectorized
//    inner loop (AVX2/NEON, runtime-dispatched, scalar reference kept
//    for bit-comparison and as the -DNS_SIMD=OFF fallback); the noise
//    interpolation adds an AVX-512 leg ahead of AVX2.
//
// Bucketing by symbol makes each spectrum an independent unit of work,
// which is what lets one round fan out across threads while staying
// bit-identical to the serial sweep: within a symbol the stable sort
// preserves packet order, so the floating-point accumulation order is
// fixed regardless of how symbols are assigned to threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netscatter/dsp/fft.hpp"

namespace ns::channel {

using ns::dsp::cplx;
using ns::dsp::cvec;

/// Flattened per-round kernel placements, bucketed by symbol. Owned by a
/// channel_workspace; all buffers reach a steady-state capacity after
/// the first few rounds and are reused allocation-free thereafter.
struct kernel_batch {
    // -- window table: one window of complex values per packet (bare
    //    Dirichlet kernel or multipath envelope) or interferer segment,
    //    stored back to back and referenced by id from the placements.
    cvec window_values;
    std::vector<std::uint32_t> window_offset;
    std::vector<std::uint32_t> window_length;

    // -- placements sorted by symbol (stable within a symbol = packet
    //    order); symbol k's range is [symbol_begin[k], symbol_begin[k+1])
    std::vector<std::uint32_t> first_bin;
    std::vector<std::uint32_t> window_id;
    std::vector<cplx> scale;
    std::vector<std::uint32_t> symbol_begin;

    /// Resets the batch for a round of `num_symbols` spectra. Keeps
    /// capacity.
    void begin(std::size_t num_symbols);

    /// Appends a window (copied into the flat table) and returns its id.
    std::uint32_t add_window(std::span<const cplx> values);

    /// Stages one placement: window `id` lands in `symbol`'s spectrum at
    /// padded bin `first` (cyclic), scaled by `amplitude`.
    void place(std::uint32_t symbol, std::uint32_t id, std::uint32_t first,
               cplx amplitude);

    /// Buckets the staged placements by symbol (stable counting sort).
    /// Must be called once, after the last place() and before any
    /// accumulate_symbol().
    void seal();

    std::size_t num_symbols() const { return symbol_begin.empty() ? 0 : symbol_begin.size() - 1; }

private:
    // staging (packet order) + counting-sort scratch
    std::vector<std::uint32_t> stage_symbol;
    std::vector<std::uint32_t> stage_first;
    std::vector<std::uint32_t> stage_window;
    std::vector<cplx> stage_scale;
    std::vector<std::uint32_t> counts;
};

/// Sweeps symbol `symbol`'s placements into `spectrum` (cyclic over
/// spectrum.size() padded bins) using the dispatched inner loop.
void accumulate_symbol(const kernel_batch& batch, std::size_t symbol,
                       cvec& spectrum);

/// dst[i] += window[i] * scale for i in [0, count) — the scalar
/// reference the vector backends must match bit-for-bit.
void accumulate_run_scalar(cplx* dst, const cplx* window, std::size_t count,
                           cplx scale);

/// Banded noise interpolation, one fused pass over the padded spectrum:
/// for q in [0, count), dst[pad*q] = grid[radius + q] (the on-grid
/// draw), and for each residue r in [1, pad), dst[pad*q + r] =
/// Σ_t coeffs[(r-1)*taps + t] · grid[q + t] with taps = 2*radius + 1.
/// Each grid element is loaded once and feeds every residue's FIR, and
/// the spectrum is written front to back instead of in pad strided
/// sweeps. Dispatched like the kernel accumulation, with an AVX-512 leg
/// ahead of AVX2, and bound by the same bit-identity contract.
void interpolate_bands(cplx* dst, std::size_t pad, const cplx* grid,
                       std::size_t radius, const cplx* coeffs,
                       std::size_t count);

/// Scalar reference for interpolate_bands.
void interpolate_bands_scalar(cplx* dst, std::size_t pad, const cplx* grid,
                              std::size_t radius, const cplx* coeffs,
                              std::size_t count);

/// Runtime dispatch levels, lowest first. On aarch64 the NEON legs
/// stand at the avx2 level.
enum class simd_level { scalar, avx2, avx512 };

/// Highest level this build and host support: scalar under
/// -DNS_SIMD=OFF, else what the CPU reports.
simd_level host_simd_level();

/// Test hook: caps dispatch at `cap` so every leg below the host's
/// best can be compared against the scalar reference. The default cap,
/// simd_level::avx512, leaves dispatch at the host level.
void cap_simd_level(simd_level cap);

/// Name of the inner loop the next accumulate_symbol call will run:
/// "avx2", "neon", or "scalar".
const char* kernel_accumulate_backend();

/// Name of the leg the next interpolate_bands call will run: "avx512",
/// "avx2", "neon", or "scalar".
const char* interpolate_bands_backend();

}  // namespace ns::channel
