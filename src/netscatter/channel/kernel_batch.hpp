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
    /// Set by cut_windows until the next begin(): every window shorter
    /// than the spectrum holds only its elements that land in the runs
    /// it was cut to, window_length counts those, and each placement of
    /// such a window holds its compact index in first_bin.
    bool cut = false;

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

/// A run of bins [begin, end) that a sweep makes of one symbol, stored
/// in a compact buffer from index `at` on.
struct bin_run {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t at = 0;
};

/// The padded bins a sweep makes of each symbol: `runs` (sorted,
/// disjoint, inside the padded spectrum), and first[c] for every chip
/// bin c up to and including the last: the first run that ends past
/// padded bin c·pad — so a placement reaches its runs without a search.
struct bin_runs {
    std::span<const bin_run> runs;
    std::span<const std::uint32_t> first;
    std::size_t pad = 1;

    /// Index of the first run that ends past padded bin `bin`
    /// (runs.size() when none does).
    std::size_t find(std::size_t bin) const {
        std::size_t r = first[bin / pad];
        while (r < runs.size() && runs[r].end <= bin) ++r;
        return r;
    }

    /// Compact index of the first run bin at or past padded bin `bin`:
    /// the number of run bins below it.
    std::size_t compact_index(std::size_t bin) const {
        const std::size_t r = find(bin);
        if (r < runs.size()) return runs[r].at + (bin > runs[r].begin ? bin - runs[r].begin : 0);
        return compact_size();
    }

    /// Run bins in all: the compact buffer's length.
    std::size_t compact_size() const {
        return runs.empty() ? 0 : runs.back().at + runs.back().end - runs.back().begin;
    }
};

/// Packs, in place, every window shorter than the `padded`-bin spectrum
/// down to its elements that land in `runs`, at the bin where `symbol`
/// places it; a short window must sit at that bin in every symbol (a
/// packet's window does, and every packet is placed in each preamble
/// symbol). The runs sit back to back in the compact buffer, so a packed
/// window is a cyclic range of it: each of its placements is rewritten
/// to start at the compact index of its first bin, and it then adds as
/// at most two contiguous ranges instead of one short loop per run it
/// meets. Full-width windows (interferers, a LoRa frame's windows move
/// with its symbol values) stay whole and are cut run by run. The full
/// windows are gone afterwards: once per planned round, after its last
/// full sweep. Allocates nothing.
void cut_windows(kernel_batch& batch, std::size_t symbol, std::size_t padded,
                 const bin_runs& runs);

/// Sweeps symbol `symbol`'s placements into the bins of `runs`, with the
/// dispatched inner loop: each placement lands cyclically over `padded`
/// bins, and bin b of run r is values[r.at + b − r.begin]. Each
/// placement adds only where it meets the runs — as its packed window
/// when cut_windows has cut the batch to these runs, else run by run —
/// and per bin the placements add in bucket order, so a bin comes out
/// bit-identical to the same bin of a sweep whose one run is the whole
/// spectrum. Returns the window elements summed.
std::uint64_t accumulate_symbol(const kernel_batch& batch, std::size_t symbol,
                                std::size_t padded, const bin_runs& runs, cplx* values);

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

/// One noise-grid cell interpolated on its own: cell q (the pad padded
/// bins from pad·q on) written to dst[at …].
struct grid_cell {
    std::uint32_t q = 0;
    std::uint32_t at = 0;
};

/// interpolate_bands for scattered cells: each cell's pad bins come out
/// at dst[cell.at …] bit for bit as interpolate_bands writes them at
/// dst[pad·cell.q …] (grid, radius and coeffs as there). The AVX-512 leg
/// takes four cells per vector like the contiguous quads, loading each
/// lane's grid window on its own.
void interpolate_cells(cplx* dst, std::size_t pad, const cplx* grid, std::size_t radius,
                       const cplx* coeffs, std::span<const grid_cell> cells);

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
