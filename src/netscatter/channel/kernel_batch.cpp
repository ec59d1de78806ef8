#include "netscatter/channel/kernel_batch.hpp"

#include <algorithm>

#include "netscatter/util/error.hpp"

// Bit-identity across backends requires that no path contracts the
// complex multiply-accumulate into FMA: the scalar reference compiles to
// separate mul/add (baseline x86-64 has no FMA instruction, and this
// translation unit is built with -ffp-contract=off for other targets),
// and the vector backends below use explicit mul/add/addsub intrinsics
// only. The product (wr·sr − wi·si, wi·sr + wr·si) is evaluated in the
// same operation order everywhere; where a leg has no addsub it adds a
// sign-flipped product instead, since x + (−y) is bit-equal to x − y
// and negating a multiplicand negates the rounded product exactly.

#ifndef NS_SIMD_ENABLED
#define NS_SIMD_ENABLED 1
#endif

#if NS_SIMD_ENABLED && defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NS_SIMD_AVX2 1  // the AVX2 and AVX-512 legs
#include <immintrin.h>
#elif NS_SIMD_ENABLED && defined(__aarch64__)
#define NS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ns::channel {

void kernel_batch::begin(std::size_t num_symbols) {
    window_values.clear();
    window_offset.clear();
    window_length.clear();
    cut = false;
    stage_symbol.clear();
    stage_first.clear();
    stage_window.clear();
    stage_scale.clear();
    counts.assign(num_symbols, 0);
    symbol_begin.assign(num_symbols + 1, 0);
}

std::uint32_t kernel_batch::add_window(std::span<const cplx> values) {
    const std::uint32_t id = static_cast<std::uint32_t>(window_offset.size());
    window_offset.push_back(static_cast<std::uint32_t>(window_values.size()));
    window_length.push_back(static_cast<std::uint32_t>(values.size()));
    window_values.insert(window_values.end(), values.begin(), values.end());
    return id;
}

void kernel_batch::place(std::uint32_t symbol, std::uint32_t id,
                         std::uint32_t first, cplx amplitude) {
    stage_symbol.push_back(symbol);
    stage_first.push_back(first);
    stage_window.push_back(id);
    stage_scale.push_back(amplitude);
    ++counts[symbol];
}

void kernel_batch::seal() {
    // Stable counting sort of the staged placements into per-symbol
    // buckets: exclusive prefix sum, then a forward scatter pass (which
    // preserves packet order within each symbol — the accumulation order
    // the bit-identity contract pins).
    const std::size_t num_symbols = counts.size();
    std::uint32_t running = 0;
    for (std::size_t k = 0; k < num_symbols; ++k) {
        symbol_begin[k] = running;
        running += counts[k];
        counts[k] = symbol_begin[k];  // becomes the scatter cursor
    }
    symbol_begin[num_symbols] = running;

    const std::size_t total = stage_symbol.size();
    first_bin.resize(total);
    window_id.resize(total);
    scale.resize(total);
    for (std::size_t p = 0; p < total; ++p) {
        const std::uint32_t slot = counts[stage_symbol[p]]++;
        first_bin[slot] = stage_first[p];
        window_id[slot] = stage_window[p];
        scale[slot] = stage_scale[p];
    }
}

void accumulate_run_scalar(cplx* dst, const cplx* window, std::size_t count,
                           cplx scale) {
    const double sr = scale.real();
    const double si = scale.imag();
    for (std::size_t i = 0; i < count; ++i) {
        const double wr = window[i].real();
        const double wi = window[i].imag();
        dst[i] += cplx{wr * sr - wi * si, wi * sr + wr * si};
    }
}

void interpolate_bands_scalar(cplx* dst, std::size_t pad, const cplx* grid,
                              std::size_t radius, const cplx* coeffs,
                              std::size_t count) {
    const std::size_t taps = 2 * radius + 1;
    for (std::size_t q = 0; q < count; ++q) {
        const cplx* window = grid + q;
        dst[pad * q] = window[radius];
        for (std::size_t r = 1; r < pad; ++r) {
            const cplx* w = coeffs + (r - 1) * taps;
            double acc_re = 0.0;
            double acc_im = 0.0;
            for (std::size_t t = 0; t < taps; ++t) {
                const double cr = w[t].real();
                const double ci = w[t].imag();
                const double wr = window[t].real();
                const double wi = window[t].imag();
                acc_re += wr * cr - wi * ci;
                acc_im += wi * cr + wr * ci;
            }
            dst[pad * q + r] = cplx{acc_re, acc_im};
        }
    }
}

namespace {

/// Fused residue accumulators live in a fixed register/stack array; a
/// zero-padding factor beyond this (never seen in practice — factors
/// are small powers of two) falls back to the scalar reference.
constexpr std::size_t max_fused_residues = 15;

#if defined(NS_SIMD_AVX2)

__attribute__((target("avx2"))) void accumulate_run_avx2(cplx* dst,
                                                         const cplx* window,
                                                         std::size_t count,
                                                         cplx scale) {
    double* d = reinterpret_cast<double*>(dst);
    const double* w = reinterpret_cast<const double*>(window);
    const __m256d sr = _mm256_set1_pd(scale.real());
    const __m256d si = _mm256_set1_pd(scale.imag());
    std::size_t i = 0;
    const std::size_t paired = count & ~std::size_t{1};
    for (; i < paired; i += 2) {
        const __m256d wv = _mm256_loadu_pd(w + 2 * i);      // wr0 wi0 wr1 wi1
        const __m256d t1 = _mm256_mul_pd(wv, sr);           // wr·sr  wi·sr
        const __m256d ws = _mm256_permute_pd(wv, 0x5);      // wi0 wr0 wi1 wr1
        const __m256d t2 = _mm256_mul_pd(ws, si);           // wi·si  wr·si
        // addsub: even lanes t1−t2, odd lanes t1+t2 —
        // (wr·sr − wi·si, wi·sr + wr·si), the scalar reference's order.
        const __m256d prod = _mm256_addsub_pd(t1, t2);
        _mm256_storeu_pd(d + 2 * i,
                         _mm256_add_pd(_mm256_loadu_pd(d + 2 * i), prod));
    }
    if (i < count) {
        accumulate_run_scalar(dst + i, window + i, count - i, scale);
    }
}

__attribute__((target("avx2"))) void interpolate_bands_avx2(
    cplx* dst, std::size_t pad, const cplx* grid, std::size_t radius,
    const cplx* coeffs, std::size_t count) {
    const std::size_t taps = 2 * radius + 1;
    const std::size_t residues = pad - 1;
    if (residues > max_fused_residues) {
        interpolate_bands_scalar(dst, pad, grid, radius, coeffs, count);
        return;
    }
    // Two q-lanes per vector: grid[q+t] and grid[q+1+t] are adjacent in
    // memory, so one unaligned load per tap feeds every residue's FIR
    // accumulator pair. The per-lane add order matches the scalar
    // reference exactly (products summed in t order from a zero
    // accumulator).
    const double* g = reinterpret_cast<const double*>(grid);
    std::size_t q = 0;
    const std::size_t paired = count & ~std::size_t{1};
    for (; q < paired; q += 2) {
        __m256d acc[max_fused_residues];
        for (std::size_t r = 0; r < residues; ++r) acc[r] = _mm256_setzero_pd();
        const double* w = g + 2 * q;
        for (std::size_t t = 0; t < taps; ++t) {
            const __m256d wv = _mm256_loadu_pd(w + 2 * t);
            const __m256d ws = _mm256_permute_pd(wv, 0x5);
            for (std::size_t r = 0; r < residues; ++r) {
                const cplx c = coeffs[r * taps + t];
                const __m256d t1 = _mm256_mul_pd(wv, _mm256_set1_pd(c.real()));
                const __m256d t2 = _mm256_mul_pd(ws, _mm256_set1_pd(c.imag()));
                acc[r] = _mm256_add_pd(acc[r], _mm256_addsub_pd(t1, t2));
            }
        }
        dst[pad * q] = grid[radius + q];
        dst[pad * (q + 1)] = grid[radius + q + 1];
        for (std::size_t r = 0; r < residues; ++r) {
            double lane[4];
            _mm256_storeu_pd(lane, acc[r]);
            dst[pad * q + r + 1] = cplx{lane[0], lane[1]};
            dst[pad * (q + 1) + r + 1] = cplx{lane[2], lane[3]};
        }
    }
    if (q < count) {
        interpolate_bands_scalar(dst + pad * q, pad, grid + q, radius, coeffs,
                                 count - q);
    }
}

/// The AVX2 leg widened to four q-lanes per vector, with the residue
/// count fixed at compile time so every accumulator stays in a
/// register. AVX-512 has no addsub, so the sign moves into the swapped
/// window instead: one multiply per tap by (−1, +1, …) turns (wi, wr)
/// into (−wi, wr), and a plain add of (−wi·ci, wr·ci) gives the scalar
/// reference's (wr·cr − wi·ci, wi·cr + wr·ci) bit for bit. The shuffle
/// swaps re and im inside each 128-bit pair (_mm512_permute_pd would do
/// the same but trips -Wmaybe-uninitialized under GCC 12). Returns the
/// number of q processed (count rounded down to a multiple of four).
template <std::size_t Residues>
__attribute__((target("avx512f"))) std::size_t interpolate_quads_avx512(
    cplx* dst, const cplx* grid, std::size_t radius, const cplx* coeffs,
    std::size_t count) {
    constexpr std::size_t pad = Residues + 1;
    const std::size_t taps = 2 * radius + 1;
    const double* g = reinterpret_cast<const double*>(grid);
    const __m512d negpos =
        _mm512_set_pd(1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0);
    const std::size_t quads = count & ~std::size_t{3};
    for (std::size_t q = 0; q < quads; q += 4) {
        __m512d acc[Residues];
        for (std::size_t r = 0; r < Residues; ++r) acc[r] = _mm512_setzero_pd();
        const double* w = g + 2 * q;
        for (std::size_t t = 0; t < taps; ++t) {
            const __m512d wv = _mm512_loadu_pd(w + 2 * t);
            const __m512d ws =
                _mm512_mul_pd(_mm512_shuffle_pd(wv, wv, 0x55), negpos);
            for (std::size_t r = 0; r < Residues; ++r) {
                const cplx c = coeffs[r * taps + t];
                const __m512d t1 = _mm512_mul_pd(wv, _mm512_set1_pd(c.real()));
                const __m512d t2 = _mm512_mul_pd(ws, _mm512_set1_pd(c.imag()));
                acc[r] = _mm512_add_pd(acc[r], _mm512_add_pd(t1, t2));
            }
        }
        for (std::size_t j = 0; j < 4; ++j) {
            dst[pad * (q + j)] = grid[radius + q + j];
        }
        for (std::size_t r = 0; r < Residues; ++r) {
            double lane[8];
            _mm512_storeu_pd(lane, acc[r]);
            for (std::size_t j = 0; j < 4; ++j) {
                dst[pad * (q + j) + r + 1] = cplx{lane[2 * j], lane[2 * j + 1]};
            }
        }
    }
    return quads;
}

/// The quads' per-lane arithmetic over four scattered cells: lane j
/// interpolates cell j, its grid window loaded on its own.
template <std::size_t Residues>
__attribute__((target("avx512f"))) std::size_t interpolate_cell_quads_avx512(
    cplx* dst, const cplx* grid, std::size_t radius, const cplx* coeffs,
    std::span<const grid_cell> cells) {
    const std::size_t taps = 2 * radius + 1;
    const __m512d negpos =
        _mm512_set_pd(1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0);
    const std::size_t quads = cells.size() & ~std::size_t{3};
    for (std::size_t i = 0; i < quads; i += 4) {
        const cplx* w0 = grid + cells[i].q;
        const cplx* w1 = grid + cells[i + 1].q;
        const cplx* w2 = grid + cells[i + 2].q;
        const cplx* w3 = grid + cells[i + 3].q;
        __m512d acc[Residues];
        for (std::size_t r = 0; r < Residues; ++r) acc[r] = _mm512_setzero_pd();
        for (std::size_t t = 0; t < taps; ++t) {
            const auto load = [t](const cplx* w) {
                return _mm_loadu_pd(reinterpret_cast<const double*>(w + t));
            };
            const __m512d wv = _mm512_maskz_insertf64x4(
                0xFF, _mm512_castpd256_pd512(_mm256_set_m128d(load(w1), load(w0))),
                _mm256_set_m128d(load(w3), load(w2)), 1);
            const __m512d ws =
                _mm512_mul_pd(_mm512_shuffle_pd(wv, wv, 0x55), negpos);
            for (std::size_t r = 0; r < Residues; ++r) {
                const cplx c = coeffs[r * taps + t];
                const __m512d t1 = _mm512_mul_pd(wv, _mm512_set1_pd(c.real()));
                const __m512d t2 = _mm512_mul_pd(ws, _mm512_set1_pd(c.imag()));
                acc[r] = _mm512_add_pd(acc[r], _mm512_add_pd(t1, t2));
            }
        }
        for (std::size_t j = 0; j < 4; ++j) {
            dst[cells[i + j].at] = grid[radius + cells[i + j].q];
        }
        for (std::size_t r = 0; r < Residues; ++r) {
            double lane[8];
            _mm512_storeu_pd(lane, acc[r]);
            for (std::size_t j = 0; j < 4; ++j) {
                dst[cells[i + j].at + r + 1] = cplx{lane[2 * j], lane[2 * j + 1]};
            }
        }
    }
    return quads;
}

__attribute__((target("avx512f"))) std::size_t interpolate_cells_avx512(
    cplx* dst, std::size_t pad, const cplx* grid, std::size_t radius,
    const cplx* coeffs, std::span<const grid_cell> cells) {
    switch (pad) {
        case 2:
            return interpolate_cell_quads_avx512<1>(dst, grid, radius, coeffs, cells);
        case 4:
            return interpolate_cell_quads_avx512<3>(dst, grid, radius, coeffs, cells);
        case 8:
            return interpolate_cell_quads_avx512<7>(dst, grid, radius, coeffs, cells);
        case 16:
            return interpolate_cell_quads_avx512<15>(dst, grid, radius, coeffs, cells);
        default:
            return 0;
    }
}

__attribute__((target("avx512f"))) void interpolate_bands_avx512(
    cplx* dst, std::size_t pad, const cplx* grid, std::size_t radius,
    const cplx* coeffs, std::size_t count) {
    // combine_symbol_domain only pads by powers of two; any other
    // factor runs the scalar reference.
    std::size_t q = 0;
    switch (pad) {
        case 2:
            q = interpolate_quads_avx512<1>(dst, grid, radius, coeffs, count);
            break;
        case 4:
            q = interpolate_quads_avx512<3>(dst, grid, radius, coeffs, count);
            break;
        case 8:
            q = interpolate_quads_avx512<7>(dst, grid, radius, coeffs, count);
            break;
        case 16:
            q = interpolate_quads_avx512<15>(dst, grid, radius, coeffs, count);
            break;
        default:
            break;
    }
    if (q < count) {
        interpolate_bands_scalar(dst + pad * q, pad, grid + q, radius, coeffs,
                                 count - q);
    }
}

#elif defined(NS_SIMD_NEON)

void accumulate_run_neon(cplx* dst, const cplx* window, std::size_t count,
                         cplx scale) {
    double* d = reinterpret_cast<double*>(dst);
    const double* w = reinterpret_cast<const double*>(window);
    const float64x2_t sr = vdupq_n_f64(scale.real());
    const float64x2_t si = vdupq_n_f64(scale.imag());
    const float64x2_t negpos = {-1.0, 1.0};
    for (std::size_t i = 0; i < count; ++i) {
        const float64x2_t wv = vld1q_f64(w + 2 * i);   // wr wi
        const float64x2_t t1 = vmulq_f64(wv, sr);      // wr·sr  wi·sr
        const float64x2_t ws = vextq_f64(wv, wv, 1);   // wi wr
        // Sign-flip the real lane of (wi·si, wr·si) so a single add
        // yields (wr·sr − wi·si, wi·sr + wr·si); x + (−y) is bit-equal
        // to x − y, keeping identity with the scalar reference.
        const float64x2_t t2 = vmulq_f64(vmulq_f64(ws, si), negpos);
        const float64x2_t prod = vaddq_f64(t1, t2);
        vst1q_f64(d + 2 * i, vaddq_f64(vld1q_f64(d + 2 * i), prod));
    }
}

void interpolate_bands_neon(cplx* dst, std::size_t pad, const cplx* grid,
                            std::size_t radius, const cplx* coeffs,
                            std::size_t count) {
    const std::size_t taps = 2 * radius + 1;
    const std::size_t residues = pad - 1;
    if (residues > max_fused_residues) {
        interpolate_bands_scalar(dst, pad, grid, radius, coeffs, count);
        return;
    }
    const double* g = reinterpret_cast<const double*>(grid);
    const float64x2_t negpos = {-1.0, 1.0};
    for (std::size_t q = 0; q < count; ++q) {
        float64x2_t acc[max_fused_residues];
        for (std::size_t r = 0; r < residues; ++r) acc[r] = vdupq_n_f64(0.0);
        const double* w = g + 2 * q;
        for (std::size_t t = 0; t < taps; ++t) {
            const float64x2_t wv = vld1q_f64(w + 2 * t);
            const float64x2_t ws = vextq_f64(wv, wv, 1);
            for (std::size_t r = 0; r < residues; ++r) {
                const cplx c = coeffs[r * taps + t];
                const float64x2_t t1 = vmulq_f64(wv, vdupq_n_f64(c.real()));
                const float64x2_t t2 =
                    vmulq_f64(vmulq_f64(ws, vdupq_n_f64(c.imag())), negpos);
                acc[r] = vaddq_f64(acc[r], vaddq_f64(t1, t2));
            }
        }
        dst[pad * q] = grid[radius + q];
        for (std::size_t r = 0; r < residues; ++r) {
            vst1q_f64(reinterpret_cast<double*>(dst + pad * q + r + 1), acc[r]);
        }
    }
}

#endif

using accumulate_fn = void (*)(cplx*, const cplx*, std::size_t, cplx);
using interpolate_fn = void (*)(cplx*, std::size_t, const cplx*, std::size_t,
                                const cplx*, std::size_t);

simd_level g_cap = simd_level::avx512;

simd_level detect_host_level() {
#if defined(NS_SIMD_AVX2)
    if (__builtin_cpu_supports("avx512f")) return simd_level::avx512;
    if (__builtin_cpu_supports("avx2")) return simd_level::avx2;
#elif defined(NS_SIMD_NEON)
    return simd_level::avx2;  // NEON is baseline on aarch64
#endif
    return simd_level::scalar;
}

simd_level active_level() {
    return std::min(host_simd_level(), g_cap);
}

template <typename Fn>
struct leg {
    Fn run;
    const char* name;
};

leg<accumulate_fn> accumulate_leg() {
    if (active_level() >= simd_level::avx2) {
#if defined(NS_SIMD_AVX2)
        return {accumulate_run_avx2, "avx2"};
#elif defined(NS_SIMD_NEON)
        return {accumulate_run_neon, "neon"};
#endif
    }
    return {accumulate_run_scalar, "scalar"};
}

leg<interpolate_fn> interpolate_leg() {
    const simd_level level = active_level();
#if defined(NS_SIMD_AVX2)
    if (level >= simd_level::avx512) return {interpolate_bands_avx512, "avx512"};
#endif
    if (level >= simd_level::avx2) {
#if defined(NS_SIMD_AVX2)
        return {interpolate_bands_avx2, "avx2"};
#elif defined(NS_SIMD_NEON)
        return {interpolate_bands_neon, "neon"};
#endif
    }
    return {interpolate_bands_scalar, "scalar"};
}

}  // namespace

void interpolate_bands(cplx* dst, std::size_t pad, const cplx* grid,
                       std::size_t radius, const cplx* coeffs,
                       std::size_t count) {
    interpolate_leg().run(dst, pad, grid, radius, coeffs, count);
}

void interpolate_cells(cplx* dst, std::size_t pad, const cplx* grid, std::size_t radius,
                       const cplx* coeffs, std::span<const grid_cell> cells) {
    std::size_t done = 0;
#if defined(NS_SIMD_AVX2)
    if (active_level() >= simd_level::avx512) {
        done = interpolate_cells_avx512(dst, pad, grid, radius, coeffs, cells);
    }
#endif
    const interpolate_fn one = interpolate_leg().run;
    for (const grid_cell& cell : cells.subspan(done)) {
        one(dst + cell.at, pad, grid + cell.q, radius, coeffs, 1);
    }
}

simd_level host_simd_level() {
    static const simd_level host = detect_host_level();
    return host;
}

void cap_simd_level(simd_level cap) {
    g_cap = cap;
}

const char* kernel_accumulate_backend() {
    return accumulate_leg().name;
}

const char* interpolate_bands_backend() {
    return interpolate_leg().name;
}

std::uint64_t accumulate_symbol(const kernel_batch& batch, std::size_t symbol,
                                std::size_t padded, const bin_runs& runs, cplx* values) {
    const accumulate_fn accumulate = accumulate_leg().run;
    const cplx* window_values = batch.window_values.data();
    const std::size_t compact_size = runs.compact_size();
    std::uint64_t elems = 0;
    // Adds window[0 …] · amplitude over padded bins [begin, end), cut to
    // the runs that bin range meets.
    const auto add = [&](const cplx* window, std::size_t begin, std::size_t end,
                         cplx amplitude) {
        for (auto run = runs.runs.begin() + static_cast<std::ptrdiff_t>(runs.find(begin));
             run != runs.runs.end() && run->begin < end; ++run) {
            const std::size_t lo = std::max<std::size_t>(begin, run->begin);
            const std::size_t hi = std::min<std::size_t>(end, run->end);
            accumulate(values + run->at + (lo - run->begin), window + (lo - begin), hi - lo,
                       amplitude);
            elems += hi - lo;
        }
    };
    for (std::uint32_t p = batch.symbol_begin[symbol];
         p < batch.symbol_begin[symbol + 1]; ++p) {
        const std::uint32_t id = batch.window_id[p];
        const cplx* window = window_values + batch.window_offset[id];
        const std::size_t length = batch.window_length[id];
        const std::size_t first = batch.first_bin[p];
        const cplx amplitude = batch.scale[p];
        if (batch.cut && length < padded) {
            // Packed: values[(first + w) mod compact_size] += window[w] ·
            // amplitude, the window's run bins in bin order.
            const std::size_t head = std::min(length, compact_size - first);
            accumulate(values + first, window, head, amplitude);
            accumulate(values, window + head, length - head, amplitude);
            elems += length;
            continue;
        }
        // bin (first + w) mod padded += window[w] · amplitude, split
        // into the two contiguous runs of the cyclic window.
        const std::size_t head = std::min(length, padded - first);
        add(window, first, first + head, amplitude);
        if (head < length) add(window + head, 0, length - head, amplitude);
    }
    return elems;
}

void cut_windows(kernel_batch& batch, std::size_t symbol, std::size_t padded,
                 const bin_runs& runs) {
    ns::util::require(!batch.cut, "cut_windows: one cut per planned round");
    batch.cut = true;
    std::size_t short_windows = 0;
    for (const std::uint32_t length : batch.window_length) short_windows += length < padded;
    std::size_t packed = 0;
    for (std::uint32_t p = batch.symbol_begin[symbol]; p < batch.symbol_begin[symbol + 1]; ++p) {
        const std::uint32_t id = batch.window_id[p];
        const std::size_t length = batch.window_length[id];
        if (length >= padded) continue;
        // Moves the window's elements on run bins to its front, in bin
        // order (never past what is still to be read).
        cplx* window = batch.window_values.data() + batch.window_offset[id];
        cplx* out = window;
        const std::size_t first = batch.first_bin[p];
        const std::size_t head = std::min(length, padded - first);
        const auto pack = [&](const cplx* from_window, std::size_t lo, std::size_t hi) {
            for (std::size_t r = runs.find(lo); r < runs.runs.size() && runs.runs[r].begin < hi;
                 ++r) {
                const std::size_t from = std::max<std::size_t>(lo, runs.runs[r].begin);
                const std::size_t to = std::min<std::size_t>(hi, runs.runs[r].end);
                out = std::copy(from_window + (from - lo), from_window + (to - lo), out);
            }
        };
        pack(window, first, first + head);
        pack(window + head, 0, length - head);
        batch.window_length[id] = static_cast<std::uint32_t>(out - window);
        ++packed;
    }
    ns::util::require(packed == short_windows,
                      "cut_windows: a window shorter than the spectrum is not placed once "
                      "in the cut symbol");
    // The run bins below a placement's first bin are where its packed
    // window starts in the compact buffer.
    for (std::size_t p = 0; p < batch.first_bin.size(); ++p) {
        if (batch.window_length[batch.window_id[p]] < padded) {
            batch.first_bin[p] = static_cast<std::uint32_t>(runs.compact_index(batch.first_bin[p]));
        }
    }
}

}  // namespace ns::channel
