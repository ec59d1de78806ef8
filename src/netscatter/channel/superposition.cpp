#include "netscatter/channel/superposition.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <span>

#include "netscatter/channel/awgn.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/engine/block_runner.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/units.hpp"

namespace ns::channel {

namespace {

/// `row` as a dense contribution, its samples rendered into `wave`:
/// distributed_modulator's packet — the shift's upchirp ×6, its downchirp
/// ×2, then the upchirp for each '1' bit and zeros for each '0'.
tx_contribution render_row(const packet_contribution& row, const ns::phy::css_params& params,
                           cvec& wave) {
    using modulator = ns::phy::distributed_modulator;
    ns::util::require(row.cyclic_shift < params.num_bins(),
                      "combine: cyclic shift out of range");
    const std::size_t n = params.samples_per_symbol();
    wave.resize((modulator::preamble_symbols + row.frame_bits.size()) * n);
    const double shift = static_cast<double>(row.cyclic_shift);
    const std::span<cplx> up = std::span<cplx>(wave).first(n);
    const std::span<cplx> down =
        std::span<cplx>(wave).subspan(modulator::preamble_upchirps * n, n);
    ns::phy::make_upchirp_into(params, shift, up);
    ns::phy::make_downchirp_into(params, shift, down);
    auto cursor = up.end();
    for (std::size_t k = 1; k < modulator::preamble_upchirps; ++k) {
        cursor = std::copy(up.begin(), up.end(), cursor);
    }
    cursor = down.end();
    for (std::size_t k = 1; k < modulator::preamble_downchirps; ++k) {
        cursor = std::copy(down.begin(), down.end(), cursor);
    }
    for (const std::uint8_t bit : row.frame_bits) {
        cursor = bit != 0 ? std::copy(up.begin(), up.end(), cursor)
                          : std::fill_n(cursor, n, cplx{0.0, 0.0});
    }
    return {.waveform = std::span<const cplx>(wave),
            .snr_db = row.snr_db,
            .timing_offset_s = row.timing_offset_s,
            .frequency_offset_hz = row.frequency_offset_hz,
            .random_phase = row.random_phase,
            .taps = row.taps};
}

/// Adds one contribution into workspace.received: its waveform scaled to
/// its SNR, rotated by its carrier phase, tone-shifted by its residual
/// timing/frequency offset and, when it carries taps, filtered, from
/// sample `tx.sample_delay` on. Its one draw is the carrier phase.
void add_contribution(const tx_contribution& tx, const ns::phy::css_params& params,
                      const channel_config& config, ns::util::rng& rng,
                      channel_workspace& workspace) {
    // Amplitude from SNR relative to the configured noise power.
    const double power = config.noise_power * ns::util::db_to_linear(tx.snr_db);
    const double amplitude = std::sqrt(power);

    // Residual sub-sample timing offset and CFO act as a common tone
    // shift after dechirping; apply it to the time-domain waveform.
    const double tone_hz =
        equivalent_tone_shift_hz(params, tx.timing_offset_s, tx.frequency_offset_hz);

    cplx gain{amplitude, 0.0};
    if (tx.random_phase) {
        gain = std::polar(amplitude, rng.uniform(0.0, 2.0 * std::numbers::pi));
    }

    std::span<const cplx> wave = tx.waveform;
    if (!tx.taps.empty()) {
        if (tone_hz != 0.0) {
            ns::dsp::frequency_shift_into(wave, tone_hz, params.bandwidth_hz,
                                          workspace.staged);
            wave = workspace.staged;
        }
        apply_multipath_into(wave, tx.taps, workspace.filtered);
        ns::dsp::accumulate_scaled(workspace.received, workspace.filtered, gain,
                                   tx.sample_delay);
    } else if (tone_hz != 0.0) {
        ns::dsp::accumulate_scaled_shifted(workspace.received, wave, gain, tone_hz,
                                           params.bandwidth_hz, tx.sample_delay);
    } else {
        ns::dsp::accumulate_scaled(workspace.received, wave, gain, tx.sample_delay);
    }
}

/// `interferer` as a dense contribution, its samples rendered into `wave`.
tx_contribution render_interferer(const interferer_contribution& interferer,
                                  std::size_t length, const ns::phy::css_params& params,
                                  cvec& wave) {
    tx_contribution tx;
    tx.snr_db = interferer.snr_db;
    tx.random_phase = interferer.random_phase;
    if (interferer.type == interferer_contribution::kind::tone) {
        wave.resize(length);
        const double step = 2.0 * std::numbers::pi * interferer.tone_hz / params.bandwidth_hz;
        for (std::size_t n = 0; n < length; ++n) {
            wave[n] = std::polar(1.0, step * static_cast<double>(n));
        }
    } else {
        ns::phy::lora_modulator(params).modulate_into(interferer.symbols, wave);
        tx.timing_offset_s = interferer.timing_offset_s;
        tx.sample_delay = interferer.sample_delay;
    }
    tx.waveform = std::span<const cplx>(wave);
    return tx;
}

/// Both combine() overloads: packet rows, dense contributions, then
/// interferers, then the noise.
const cvec& combine_samples(std::span<const packet_contribution> rows,
                            std::span<const tx_contribution> dense,
                            std::span<const interferer_contribution> interferers,
                            std::size_t length, const ns::phy::css_params& params,
                            const channel_config& config, ns::util::rng& rng,
                            channel_workspace& workspace) {
    const bool timed = workspace.obs.metrics != nullptr;
    const std::uint64_t t0 = timed ? ns::obs::now_ns() : 0;
    cvec& received = workspace.received;
    received.assign(length, cplx{0.0, 0.0});

    for (const auto& row : rows) {
        add_contribution(render_row(row, params, workspace.rendered), params, config, rng,
                         workspace);
    }
    for (const auto& tx : dense) add_contribution(tx, params, config, rng, workspace);
    for (const auto& interferer : interferers) {
        add_contribution(render_interferer(interferer, length, params, workspace.rendered),
                         params, config, rng, workspace);
    }

    add_noise(received, config.noise_power, rng);
    if (timed) {
        ns::obs::metrics_registry& metrics = *workspace.obs.metrics;
        metrics.get_counter("phy.sample_waveforms")
            ->add(rows.size() + dense.size() + interferers.size());
        metrics.get_histogram("phy.sample_combine_s", ns::obs::origin::host)
            ->record_ns(ns::obs::now_ns() - t0);
    }
    return received;
}

}  // namespace

const cvec& combine(std::span<const packet_contribution> rows,
                    std::span<const interferer_contribution> interferers, std::size_t length,
                    const ns::phy::css_params& params, const channel_config& config,
                    ns::util::rng& rng, channel_workspace& workspace) {
    return combine_samples(rows, {}, interferers, length, params, config, rng, workspace);
}

const cvec& combine(std::span<const tx_contribution> contributions, std::size_t length,
                    const ns::phy::css_params& params, const channel_config& config,
                    ns::util::rng& rng, channel_workspace& workspace) {
    return combine_samples({}, contributions, {}, length, params, config, rng, workspace);
}

namespace {

/// Independent noise seed for one symbol of one round — the same
/// splitmix chaining as engine::split_seed (not included here to keep
/// channel below engine in the layering). Deriving noise from (round
/// seed, symbol index) instead of a shared stream is what makes the
/// symbol sweep order-free: any partition of symbols over threads draws
/// the identical noise.
std::uint64_t symbol_noise_seed(std::uint64_t round_seed, std::uint64_t symbol) {
    std::uint64_t state = round_seed;
    const std::uint64_t out = ns::util::splitmix64_next(state);
    state ^= out ^ (symbol * 0x94d049bb133111ebULL);
    return ns::util::splitmix64_next(state);
}

/// Fills `plan` for a request of `windows` over the padded spectrum of
/// planned round `g`: the whole noise-grid cells (pad padded bins each)
/// the windows touch, merged where they overlap or touch. The exact (FFT)
/// noise makes every bin at once, so without banding the one span is the
/// whole spectrum.
void plan_windows(const ns::phy::power_windows& windows,
                  const channel_workspace::planned_round& g,
                  channel_workspace::window_plan& plan) {
    const std::size_t padded = g.n * g.pad;
    ns::util::require(windows.width >= 1 && windows.width <= padded,
                      "payload_power: window width outside [1, padded size]");
    const auto pad = static_cast<std::uint32_t>(g.pad);
    // Requested bins as linear extents (a window past the top bin splits
    // in two), widened to whole grid cells and sorted.
    auto& extents = plan.extents;
    extents.clear();
    const auto extent = [&](std::size_t begin, std::size_t end) {
        extents.emplace_back(static_cast<std::uint32_t>(begin) / pad * pad,
                             static_cast<std::uint32_t>((end + pad - 1) / pad * pad));
    };
    for (const std::uint32_t first : windows.first) {
        ns::util::require(first < padded, "payload_power: window outside the spectrum");
        const std::size_t end = first + windows.width;
        extent(first, std::min(end, padded));
        if (end > padded) extent(0, end - padded);
    }
    if (!g.banded) {
        extents.assign(1, {0, static_cast<std::uint32_t>(padded)});
    }
    std::sort(extents.begin(), extents.end());
    plan.spans.clear();
    std::uint32_t at = 0;
    for (const auto& [begin, end] : extents) {
        if (!plan.spans.empty() && begin <= plan.spans.back().end) {
            bin_run& last = plan.spans.back();
            at += std::max(last.end, end) - last.end;
            last.end = std::max(last.end, end);
        } else {
            plan.spans.push_back({begin, end, at});
            at += end - begin;
        }
    }
    plan.compact_size = at;
    // Noise: each span's whole quads of cells interpolate in place as a
    // band; the cells left over, from every span, are batched four at a
    // time.
    plan.bands.clear();
    plan.cells.clear();
    for (const bin_run& span : plan.spans) {
        const std::uint32_t cells = (span.end - span.begin) / pad;
        const std::uint32_t banded = cells / 4 * 4;
        if (banded > 0) plan.bands.push_back({span.begin, span.begin + banded * pad, span.at});
        for (std::uint32_t c = banded; c < cells; ++c) {
            plan.cells.push_back({span.begin / pad + c, span.at + c * pad});
        }
    }
    plan.first_span.resize(g.n + 1);
    std::uint32_t next = 0;
    for (std::size_t c = 0; c <= g.n; ++c) {
        while (next < plan.spans.size() && plan.spans[next].end <= c * pad) ++next;
        plan.first_span[c] = next;
    }
}

/// `plan`'s spans as accumulate_symbol reads them.
bin_runs spans_of(const channel_workspace::window_plan& plan, std::size_t pad) {
    return {.runs = plan.spans, .first = plan.first_span, .pad = pad};
}

/// Fills plan.gather: each requested bin's index in the compact buffer,
/// window by window (a window past the top bin continues at bin 0).
void plan_gather(const ns::phy::power_windows& windows,
                 const channel_workspace::planned_round& g,
                 channel_workspace::window_plan& plan) {
    const std::size_t padded = g.n * g.pad;
    const bin_runs spans = spans_of(plan, g.pad);
    plan.gather.clear();
    for (const std::uint32_t first : windows.first) {
        std::size_t bin = first;
        for (std::size_t j = 0; j < windows.width; ++j, ++bin) {
            if (bin == padded) bin = 0;
            plan.gather.push_back(static_cast<std::uint32_t>(spans.compact_index(bin)));
        }
    }
}

/// Fills the spans of `values` (the compact layout of `plan`) with one
/// symbol's thermal noise. Every draw of the symbol is made whatever the
/// spans; identical math to the full spectrum's, bin for bin.
void synthesize_noise(const channel_workspace& ws, const channel_workspace::window_plan& plan,
                      cvec& values, cvec& grid, ns::util::rng& srng) {
    const channel_workspace::planned_round& g = ws.planned;
    const std::size_t n = g.n;
    if (!g.banded) {
        // Exact path: zero-padded FFT of time-domain white noise (the one
        // span is the whole spectrum).
        for (std::size_t i = 0; i < n; ++i) {
            values[i] = cplx{srng.gaussian(0.0, g.sigma), srng.gaussian(0.0, g.sigma)};
        }
        std::fill(values.begin() + static_cast<std::ptrdiff_t>(n), values.end(),
                  cplx{0.0, 0.0});
        ns::dsp::fft_inplace(values);
        return;
    }
    // On-grid draws with ±R wrap margins so the banded interpolation
    // never takes a modulo in its inner loop.
    const std::size_t radius = g.interp_radius;
    for (std::size_t q = 0; q < n; ++q) {
        grid[radius + q] =
            cplx{srng.gaussian(0.0, g.sigma_grid), srng.gaussian(0.0, g.sigma_grid)};
    }
    for (std::size_t t = 0; t < radius; ++t) {
        grid[t] = grid[n + t];                           // wrap low side
        grid[n + radius + t] = grid[radius + t];         // wrap high side
    }
    // One fused pass per band: the on-grid scatter plus every
    // fractional-offset residue's FIR over the wrapped grid, swept by the
    // dispatched vector backend (bit-identical to the scalar loop) —
    // each grid element is loaded once and the band is written front to
    // back. Then the short spans' cells, batched.
    for (const bin_run& band : plan.bands) {
        interpolate_bands(values.data() + band.at, g.pad, grid.data() + band.begin / g.pad,
                          radius, ws.noise_taps.data(), (band.end - band.begin) / g.pad);
    }
    interpolate_cells(values.data(), g.pad, grid.data(), radius, ws.noise_taps.data(),
                      plan.cells);
}

/// One sweep: symbols [first, first + count) over `plan`. Without
/// `power` each symbol's bins go to workspace.symbol_spectra[k] (the
/// whole-spectrum plan); with it, to a per-block compact buffer whose
/// requested bins are squared into `power` in payload_power's layout
/// (windows of `width` bins).
struct sweep_job {
    channel_workspace* ws = nullptr;
    const channel_workspace::window_plan* plan = nullptr;
    std::size_t first = 0;
    std::size_t count = 0;
    std::size_t num_blocks = 1;
    double* power = nullptr;
    std::size_t width = 0;
    bool timed = false;
};

/// One block of a sweep: noise + kernel sum for a contiguous symbol
/// range. Runs on block_runner workers or inline; per-symbol seeding
/// makes the result independent of the partition.
void sweep_block(void* context, std::size_t block) {
    const auto& job = *static_cast<const sweep_job*>(context);
    channel_workspace& ws = *job.ws;
    const channel_workspace::window_plan& plan = *job.plan;
    const std::size_t padded = ws.planned.n * ws.planned.pad;
    const std::size_t begin = job.first + block * job.count / job.num_blocks;
    const std::size_t end = job.first + (block + 1) * job.count / job.num_blocks;
    channel_workspace::block_time& time = ws.block_times[block];
    for (std::size_t k = begin; k < end; ++k) {
        cvec& values = job.power == nullptr ? ws.symbol_spectra[k] : ws.compact[block];
        const std::uint64_t t0 = job.timed ? ns::obs::now_ns() : 0;
        ns::util::rng srng(symbol_noise_seed(ws.planned.seed, k));
        synthesize_noise(ws, plan, values, ws.noise_grids[block], srng);
        const std::uint64_t t1 = job.timed ? ns::obs::now_ns() : 0;
        time.elems +=
            accumulate_symbol(ws.batch, k, padded, spans_of(plan, ws.planned.pad), values.data());
        if (job.timed) {
            time.noise_ns += t1 - t0;
            time.kernel_ns += ns::obs::now_ns() - t1;
        }
        if (job.power != nullptr) {
            // Window by window: window w's powers of symbol k sit at
            // ((w·count) + k − first)·width.
            double* out = job.power + (k - job.first) * job.width;
            for (std::size_t e = 0; e < plan.gather.size(); e += job.width) {
                for (std::size_t j = 0; j < job.width; ++j) {
                    out[j] = std::norm(values[plan.gather[e + j]]);
                }
                out += job.count * job.width;
            }
        }
    }
}

/// Runs a sweep on the caller's thread, or across workspace.block_pool,
/// and records its timings and summed elements. Grows every buffer the
/// blocks touch first, so worker threads never allocate.
void sweep(channel_workspace& ws, const channel_workspace::window_plan& plan,
           std::size_t first, std::size_t count, double* power = nullptr,
           std::size_t width = 0) {
    ns::engine::block_runner* pool = ws.block_pool;
    const std::size_t pool_threads = pool != nullptr ? pool->size() : 1;
    std::size_t num_blocks = 1;
    if (pool_threads > 1 && count > 1) {
        // More blocks than threads smooths the load (payload symbols
        // carry different kernel counts); the partition never changes
        // results, only scheduling.
        num_blocks = std::min(count, pool_threads * 2);
    }
    // Per-block scratch only ever grows: the preamble and payload sweeps
    // of one round run different block counts.
    const channel_workspace::planned_round& g = ws.planned;
    if (ws.noise_grids.size() < num_blocks) ws.noise_grids.resize(num_blocks);
    if (g.banded) {
        for (auto& grid : ws.noise_grids) grid.resize(g.n + 2 * g.interp_radius);
    }
    if (power != nullptr) {
        if (ws.compact.size() < num_blocks) ws.compact.resize(num_blocks);
        for (auto& values : ws.compact) {
            values.reserve(g.n * g.pad);  // a request never outgrows the spectrum
            values.resize(plan.compact_size);
        }
    }
    ws.block_times.assign(num_blocks, {});

    sweep_job job;
    job.ws = &ws;
    job.plan = &plan;
    job.first = first;
    job.count = count;
    job.num_blocks = num_blocks;
    job.power = power;
    job.width = width;
    job.timed = ws.obs.metrics != nullptr;
    {
        // The hardware-counter probe wraps the whole sweep from the
        // calling thread (perf counters are thread-pinned, so with a
        // pool attached it attributes the caller's share of the sweep);
        // the wall-clock probes below sum each block's sweep and noise
        // times instead, so phy.kernel_sum_s stays the roofline
        // denominator — busy time of the accumulation loops, noise
        // excluded — and phy.noise_s the busy time of the noise, at any
        // thread count.
        ns::obs::perf_scope batch_perf(ws.obs.perf, &ws.obs.perf_kernel_sum);
        if (pool != nullptr && num_blocks > 1) {
            pool->run(num_blocks, &sweep_block, &job);
        } else {
            for (std::size_t block = 0; block < num_blocks; ++block) sweep_block(&job, block);
        }
    }

    if (ws.obs.metrics != nullptr) {
        ns::obs::metrics_registry& metrics = *ws.obs.metrics;
        ns::obs::histogram* sweep_hist =
            metrics.get_histogram("phy.kernel_sum_s", ns::obs::origin::host);
        ns::obs::histogram* noise_hist =
            metrics.get_histogram("phy.noise_s", ns::obs::origin::host);
        // Per-block times and element counts merge deterministically:
        // recorded by the calling thread, in block order, after the join.
        std::uint64_t elems = 0;
        for (const channel_workspace::block_time& time : ws.block_times) {
            sweep_hist->record_ns(time.kernel_ns);
            noise_hist->record_ns(time.noise_ns);
            elems += time.elems;
        }
        // Window elements actually summed — the deterministic input of
        // the roofline traffic model (48 B and 8 flops per element, see
        // obs/roofline.hpp).
        metrics.get_counter("phy.kernel_window_elems")->add(elems);
    }
}

/// Plans one interferer's full-width windows into workspace.batch at
/// carrier gain `gain` (see combine_symbol_domain); returns the number of
/// placements.
std::uint64_t plan_interferer(const interferer_contribution& interferer, cplx gain,
                              const ns::phy::css_params& params,
                              const symbol_domain_params& sd, std::size_t total_spectra,
                              channel_workspace& workspace) {
    kernel_batch& batch = workspace.batch;
    const std::size_t n = params.samples_per_symbol();
    const std::size_t pad = sd.zero_padding;
    const bool tone = interferer.type == interferer_contribution::kind::tone;
    const double tone_hz = tone ? interferer.tone_hz
                                : equivalent_tone_shift_hz(params, interferer.timing_offset_s, 0.0);
    const double omega = 2.0 * std::numbers::pi * tone_hz / params.bandwidth_hz;
    const std::size_t delay = tone ? 0 : interferer.sample_delay;
    ns::util::require(delay < n, "combine_symbol_domain: frame delay beyond one symbol");

    // A tone's dechirped symbol, or a frame's segments [d, N) (symbol g)
    // and [0, d) (symbol g − 1; none when d = 0).
    std::array<std::uint32_t, 2> windows{};
    std::size_t num_windows = 0;
    if (tone) {
        const std::array<double, 3> key{tone_hz, static_cast<double>(n),
                                        static_cast<double>(pad)};
        if (workspace.tone_window_key != key) {
            // Tone × dechirp = the downchirp shifted by the (aliased) tone,
            // written in place as conj(upchirp at −bins).
            const double bins = tone_hz / params.bin_spacing_hz();
            cvec& window = workspace.tone_window;
            window.assign(n * pad, cplx{0.0, 0.0});
            ns::phy::make_upchirp_into(
                params, static_cast<double>(n) * std::round(bins / static_cast<double>(n)) - bins,
                std::span<cplx>(window).first(n));
            for (std::size_t t = 0; t < n; ++t) window[t] = std::conj(window[t]);
            ns::dsp::fft_inplace(window);
            workspace.tone_window_key = key;
        }
        windows[num_windows++] = batch.add_window(workspace.tone_window);
    } else {
        const double position = tone_hz / params.bin_spacing_hz() - static_cast<double>(delay);
        for (const auto& [start, length] :
             {std::pair{delay, n - delay}, std::pair{std::size_t{0}, delay}}) {
            if (length == 0) continue;
            ns::phy::make_dechirped_tone_kernel(workspace.kernel, position, n, pad, start,
                                                length);
            windows[num_windows++] = batch.add_window(workspace.kernel);
        }
    }

    std::uint64_t placements = 0;
    const std::uint64_t two_n = 2 * n;
    for (std::size_t k = 0; k < total_spectra; ++k) {
        const std::size_t g =
            k < sd.preamble_upchirps ? k : sd.preamble_symbols + (k - sd.preamble_upchirps);
        const cplx base = gain * std::polar(1.0, omega * (static_cast<double>(g * n) -
                                                          static_cast<double>(delay)));
        for (std::size_t lag = 0; lag < num_windows; ++lag) {
            if (!tone && (g < lag || g - lag >= interferer.symbols.size())) continue;
            const std::uint64_t v = tone ? 0 : interferer.symbols[g - lag];
            ns::util::require(v < n, "combine_symbol_domain: frame symbol out of range");
            // Value v rotates the window by v·padding bins and its phase
            // by 2π(−v·d/N + d²/2N + d/2) = πr/N, r reduced modulo 2N.
            const std::uint64_t r =
                (delay * (delay + n) % two_n + two_n - 2 * v * delay % two_n) % two_n;
            batch.place(static_cast<std::uint32_t>(k), windows[lag],
                        static_cast<std::uint32_t>(v * pad),
                        base * std::polar(1.0, std::numbers::pi * static_cast<double>(r) /
                                                   static_cast<double>(n)));
            ++placements;
        }
    }
    return placements;
}

/// The serial planning stage shared by every fast-path entry point:
/// validates the geometry, rebuilds the geometry tables when it changed,
/// draws the round seed and every phase from `rng`, fills
/// workspace.planned and flattens all kernel placements into the SoA
/// batch.
void plan_round(std::span<const packet_contribution> packets,
                const ns::phy::css_params& params, const channel_config& config,
                const symbol_domain_params& sd, ns::util::rng& rng,
                channel_workspace& workspace,
                std::span<const interferer_contribution> interferers) {
    ns::util::require(sd.zero_padding >= 1 &&
                          ns::dsp::is_power_of_two(sd.zero_padding),
                      "combine_symbol_domain: zero_padding must be a power of two");
    ns::util::require(sd.preamble_symbols >= sd.preamble_upchirps,
                      "combine_symbol_domain: preamble shorter than its upchirps");

    const std::size_t n = params.samples_per_symbol();
    const std::size_t padded = n * sd.zero_padding;
    const std::size_t total_spectra = sd.preamble_upchirps + sd.payload_symbols;
    const double sigma = std::sqrt(config.noise_power / 2.0);
    const std::size_t pad = sd.zero_padding;
    const std::size_t interp_radius = sd.noise_interp_radius_bins;
    const bool banded = pad > 1 && interp_radius > 0 && interp_radius < n / 2;

    // Thermal noise is drawn in the frequency domain: the receiver's
    // spectrum of a pure-noise symbol is FFT(noise · downchirp)
    // zero-padded; the unit-modulus dechirp leaves circular Gaussian
    // noise circular, so a spectrum with the identical distribution can
    // be drawn directly — its N on-grid samples are i.i.d.
    // CN(0, N·noise_power) (the unnormalized DFT of white noise) and the
    // off-grid padded bins are their Dirichlet interpolation, either
    // exact (one FFT per symbol) or banded to ±R chip bins.
    const std::array<std::size_t, 3> noise_geometry{n, pad, interp_radius};
    if (banded && workspace.noise_geometry != noise_geometry) {
        // C[(r-1)·(2R+1) + t] interpolates offset r in (0, pad) from the
        // on-grid neighbour t - R chip bins away: the device kernel
        // evaluated at x = (t - R)·pad - r padded bins, scaled by 1/N
        // (the IDFT normalization).
        const std::size_t taps = 2 * interp_radius + 1;
        workspace.noise_taps.resize((pad - 1) * taps);
        for (std::size_t r = 1; r < pad; ++r) {
            for (std::size_t t = 0; t < taps; ++t) {
                const double x =
                    (static_cast<double>(t) - static_cast<double>(interp_radius)) *
                        static_cast<double>(pad) -
                    static_cast<double>(r);
                const double theta = x / static_cast<double>(padded);
                const double magnitude =
                    std::sin(std::numbers::pi * x / static_cast<double>(pad)) /
                    std::sin(std::numbers::pi * theta);
                workspace.noise_taps[(r - 1) * taps + t] = ns::phy::signed_polar(
                    magnitude / static_cast<double>(n),
                    std::numbers::pi * (static_cast<double>(n) - 1.0) * theta);
            }
        }
        workspace.noise_geometry = noise_geometry;
    }
    if (!workspace.kernel_table.matches(n, pad, sd.kernel_radius_bins)) {
        workspace.kernel_table = ns::phy::tone_kernel_table(n, pad, sd.kernel_radius_bins);
    }

    // One raw draw seeds every symbol's noise generator; consuming it
    // before the per-packet phase draws keeps the caller's stream layout
    // fixed regardless of the packet count.
    channel_workspace::planned_round& planned = workspace.planned;
    planned.seed = rng();
    planned.n = n;
    planned.pad = pad;
    planned.interp_radius = interp_radius;
    planned.upchirps = sd.preamble_upchirps;
    planned.payload_symbols = sd.payload_symbols;
    planned.sigma = sigma;
    planned.sigma_grid = std::sqrt(static_cast<double>(n)) * sigma;
    planned.banded = banded;
    // The whole-spectrum plan: the one window of every full sweep.
    const std::uint32_t whole = 0;
    plan_windows({.first = std::span<const std::uint32_t>(&whole, 1), .width = padded},
                 planned, workspace.full_plan);

    // --- Plan the device kernels into the SoA batch ---------------------
    // One window per packet (its complex values are identical for every
    // ON symbol; only the leading scalar A·e^{jφ_g} rotates with the
    // global symbol index g — the tone's phase advances across the whole
    // packet, downchirps included), one placement per ON symbol. A
    // multipath device uses the tap-enveloped window instead of the bare
    // Dirichlet one — the taps' per-symbol effect is identical too (each
    // tap is a fixed-bin cyclic shift), so the same scalar applies.
    kernel_batch& batch = workspace.batch;
    batch.begin(total_spectra);
    std::uint64_t kernels_summed = 0;
    const bool timed = workspace.obs.metrics != nullptr;
    const std::uint64_t plan_t0 = timed ? ns::obs::now_ns() : 0;
    for (const auto& packet : packets) {
        const double power = config.noise_power * ns::util::db_to_linear(packet.snr_db);
        const double amplitude = std::sqrt(power);
        const double phase0 =
            packet.random_phase ? rng.uniform(0.0, 2.0 * std::numbers::pi) : 0.0;

        const double tone_hz = equivalent_tone_shift_hz(
            params, packet.timing_offset_s, packet.frequency_offset_hz);
        const double tone_bins = tone_hz / params.bin_spacing_hz();
        const double position_bins =
            static_cast<double>(packet.cyclic_shift) + tone_bins;

        std::size_t first;
        const cvec* window;
        if (packet.taps.empty()) {
            first = ns::phy::make_dechirped_tone_kernel(workspace.kernel, position_bins,
                                                        workspace.kernel_table);
            window = &workspace.kernel;
        } else {
            first = ns::phy::make_multipath_tone_kernel(
                workspace.envelope, packet.taps, packet.cyclic_shift, tone_bins,
                workspace.kernel_table, workspace.kernel);
            window = &workspace.envelope;
        }
        const std::uint32_t window_id = batch.add_window(*window);
        // The scalar of global symbol g is A·e^{j(φ0 + g·step)}: one
        // phasor stepped once per symbol, downchirps and OFF bits
        // included, instead of a sincos per placement.
        const cplx step = std::polar(
            1.0, 2.0 * std::numbers::pi * tone_hz * static_cast<double>(n) /
                     params.bandwidth_hz);
        cplx scalar = std::polar(amplitude, phase0);
        const auto advance = [&] {
            scalar = cplx{scalar.real() * step.real() - scalar.imag() * step.imag(),
                          scalar.real() * step.imag() + scalar.imag() * step.real()};
        };

        std::uint64_t packet_kernels = sd.preamble_upchirps;
        for (std::size_t k = 0; k < sd.preamble_upchirps; ++k) {
            batch.place(static_cast<std::uint32_t>(k), window_id,
                        static_cast<std::uint32_t>(first), scalar);
            advance();
        }
        for (std::size_t k = sd.preamble_upchirps; k < sd.preamble_symbols; ++k) {
            advance();
        }
        const std::size_t on_bits =
            std::min(packet.frame_bits.size(), sd.payload_symbols);
        for (std::size_t i = 0; i < on_bits; ++i) {
            if (packet.frame_bits[i] != 0) {
                batch.place(static_cast<std::uint32_t>(sd.preamble_upchirps + i),
                            window_id, static_cast<std::uint32_t>(first), scalar);
                ++packet_kernels;
            }
            advance();
        }
        kernels_summed += packet_kernels;
    }
    for (const auto& interferer : interferers) {
        const double amplitude =
            std::sqrt(config.noise_power * ns::util::db_to_linear(interferer.snr_db));
        const double phase0 =
            interferer.random_phase ? rng.uniform(0.0, 2.0 * std::numbers::pi) : 0.0;
        kernels_summed += plan_interferer(interferer, std::polar(amplitude, phase0), params,
                                          sd, total_spectra, workspace);
    }
    batch.seal();
    if (timed) {
        ns::obs::metrics_registry& metrics = *workspace.obs.metrics;
        metrics.get_histogram("phy.kernel_plan_s", ns::obs::origin::host)
            ->record_ns(ns::obs::now_ns() - plan_t0);
        metrics.get_counter("phy.fast_packets")->add(packets.size());
        metrics.get_counter("phy.kernels_summed")->add(kernels_summed);
        metrics.get_counter("phy.noise_symbols")->add(total_spectra);
    }
}

}  // namespace

void superpose_symbol_domain(std::span<const packet_contribution> packets,
                             const ns::phy::css_params& params,
                             const channel_config& config, const symbol_domain_params& sd,
                             ns::util::rng& rng, channel_workspace& workspace,
                             std::span<const interferer_contribution> interferers) {
    plan_round(packets, params, config, sd, rng, workspace, interferers);
    const std::size_t padded = workspace.planned.n * workspace.planned.pad;
    workspace.symbol_spectra.resize(sd.preamble_upchirps);
    for (auto& spectrum : workspace.symbol_spectra) spectrum.resize(padded);
    sweep(workspace, workspace.full_plan, 0, sd.preamble_upchirps);
}

void combine_symbol_domain(std::span<const packet_contribution> packets,
                           const ns::phy::css_params& params,
                           const channel_config& config,
                           const symbol_domain_params& sd, ns::util::rng& rng,
                           channel_workspace& workspace,
                           std::span<const interferer_contribution> interferers) {
    plan_round(packets, params, config, sd, rng, workspace, interferers);
    const std::size_t padded = workspace.planned.n * workspace.planned.pad;
    const std::size_t total_spectra = sd.preamble_upchirps + sd.payload_symbols;
    workspace.symbol_spectra.resize(total_spectra);
    for (auto& spectrum : workspace.symbol_spectra) spectrum.resize(padded);
    sweep(workspace, workspace.full_plan, 0, total_spectra);
}

std::span<const cvec> symbol_round::preamble_spectra() {
    return std::span<const cvec>(ws_->symbol_spectra).first(ws_->planned.upchirps);
}

void symbol_round::payload_power(const ns::phy::power_windows& windows,
                                 std::span<double> out) {
    channel_workspace& ws = *ws_;
    const channel_workspace::planned_round& g = ws.planned;
    ns::util::require(g.n > 0, "payload_power: no superposed round");
    ns::util::require(out.size() == g.payload_symbols * windows.bins(),
                      "payload_power: answer size mismatch");
    if (windows.first.empty()) return;
    channel_workspace::window_plan& plan = ws.request_plan;
    // A request has at most two extents per window and one window per
    // chip bin's shift, so the plan never outgrows these after its first
    // use.
    plan.extents.reserve(2 * g.n);
    plan.spans.reserve(2 * g.n);
    plan.bands.reserve(2 * g.n);
    plan.cells.reserve(g.n);
    plan.gather.reserve(g.n * windows.width);
    plan_windows(windows, g, plan);
    plan_gather(windows, g, plan);
    // Every packet's window is placed in the first preamble symbol.
    if (g.upchirps > 0) cut_windows(ws.batch, 0, g.n * g.pad, spans_of(plan, g.pad));
    sweep(ws, plan, g.upchirps, g.payload_symbols, out.data(), windows.width);
}

}  // namespace ns::channel
