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

/// Everything a symbol-block sweep needs, shared read-only across
/// blocks (mutable state — spectra, grids, per-block timing slots — is
/// indexed by symbol or block, never shared).
struct sweep_context {
    channel_workspace* ws = nullptr;
    std::uint64_t round_seed = 0;
    std::size_t n = 0;
    std::size_t pad = 0;
    std::size_t total_spectra = 0;
    std::size_t num_blocks = 0;
    std::size_t interp_radius = 0;
    double sigma = 0.0;
    double sigma_grid = 0.0;
    bool banded = false;
    bool time_sweep = false;
};

/// Fills `spectrum` with one symbol's thermal noise (overwrites every
/// padded bin). Identical math to the pre-batch serial path; only the
/// generator is per-symbol now.
void synthesize_noise(const sweep_context& c, cvec& spectrum, cvec& grid,
                      ns::util::rng& srng) {
    const std::size_t n = c.n;
    const std::size_t pad = c.pad;
    if (!c.banded) {
        // Exact path: zero-padded FFT of time-domain white noise.
        for (std::size_t i = 0; i < n; ++i) {
            spectrum[i] =
                cplx{srng.gaussian(0.0, c.sigma), srng.gaussian(0.0, c.sigma)};
        }
        std::fill(spectrum.begin() + static_cast<std::ptrdiff_t>(n),
                  spectrum.end(), cplx{0.0, 0.0});
        ns::dsp::fft_inplace(spectrum);
        return;
    }
    // On-grid draws with ±R wrap margins so the banded interpolation
    // never takes a modulo in its inner loop.
    const std::size_t interp_radius = c.interp_radius;
    for (std::size_t q = 0; q < n; ++q) {
        grid[interp_radius + q] = cplx{srng.gaussian(0.0, c.sigma_grid),
                                       srng.gaussian(0.0, c.sigma_grid)};
    }
    for (std::size_t t = 0; t < interp_radius; ++t) {
        grid[t] = grid[n + t];                                  // wrap low side
        grid[n + interp_radius + t] = grid[interp_radius + t];  // wrap high side
    }
    // One fused pass over the padded spectrum: the on-grid scatter plus
    // every fractional-offset residue's FIR over the wrapped grid,
    // swept by the dispatched vector backend (bit-identical to the
    // scalar loop) — each grid element is loaded once and the spectrum
    // is written front to back.
    interpolate_bands(spectrum.data(), pad, grid.data(), interp_radius,
                      c.ws->noise_taps.data(), n);
}

/// One block of the accumulation stage: noise + kernel sweep for a
/// contiguous symbol range. Runs on block_runner workers or inline;
/// per-symbol seeding makes the result independent of the partition.
void sweep_block(void* context, std::size_t block) {
    const auto& c = *static_cast<const sweep_context*>(context);
    const std::size_t begin = block * c.total_spectra / c.num_blocks;
    const std::size_t end = (block + 1) * c.total_spectra / c.num_blocks;
    cvec& grid = c.ws->noise_grids[block];
    std::uint64_t noise_ns = 0;
    std::uint64_t sweep_ns = 0;
    for (std::size_t k = begin; k < end; ++k) {
        cvec& spectrum = c.ws->symbol_spectra[k];
        const std::uint64_t t0 = c.time_sweep ? ns::obs::now_ns() : 0;
        ns::util::rng srng(symbol_noise_seed(c.round_seed, k));
        synthesize_noise(c, spectrum, grid, srng);
        const std::uint64_t t1 = c.time_sweep ? ns::obs::now_ns() : 0;
        accumulate_symbol(c.ws->batch, k, spectrum);
        if (c.time_sweep) {
            noise_ns += t1 - t0;
            sweep_ns += ns::obs::now_ns() - t1;
        }
    }
    c.ws->block_times[block] = {sweep_ns, noise_ns};
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

}  // namespace

void combine_symbol_domain(std::span<const packet_contribution> packets,
                           const ns::phy::css_params& params,
                           const channel_config& config,
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

    // =====================================================================
    // Planning stage — serial, on the caller's thread. Grows every buffer
    // the sweep will touch (so worker threads never allocate and the
    // alloc.* counters are identical at any thread count), derives the
    // round's noise seed, and flattens all kernel placements into the SoA
    // batch.
    // =====================================================================
    workspace.symbol_spectra.resize(total_spectra);
    for (auto& spectrum : workspace.symbol_spectra) {
        spectrum.resize(padded);
    }
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
    const std::uint64_t round_seed = rng();

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
    std::uint64_t window_elems = 0;
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
        // Accumulated window elements — the deterministic input of the
        // roofline traffic model (48 B and 8 flops per element, see
        // obs/roofline.hpp). Counts the actual window size so multipath
        // envelopes (wider than the bare Dirichlet window) are charged
        // at their real cost.
        window_elems += packet_kernels * window->size();
    }
    for (const auto& interferer : interferers) {
        const double amplitude =
            std::sqrt(config.noise_power * ns::util::db_to_linear(interferer.snr_db));
        const double phase0 =
            interferer.random_phase ? rng.uniform(0.0, 2.0 * std::numbers::pi) : 0.0;
        const std::uint64_t placements = plan_interferer(
            interferer, std::polar(amplitude, phase0), params, sd, total_spectra, workspace);
        kernels_summed += placements;
        window_elems += placements * padded;
    }
    batch.seal();
    if (timed) {
        workspace.obs.metrics
            ->get_histogram("phy.kernel_plan_s", ns::obs::origin::host)
            ->record_ns(ns::obs::now_ns() - plan_t0);
    }

    // =====================================================================
    // Accumulation stage — symbols are self-contained (own noise
    // generator, own placement bucket, own spectrum), so contiguous
    // symbol blocks fan out across the workspace's block_runner when one
    // is attached. Any thread count — including the inline serial sweep —
    // produces bit-identical spectra.
    // =====================================================================
    ns::engine::block_runner* pool = workspace.block_pool;
    const std::size_t pool_threads = pool != nullptr ? pool->size() : 1;
    std::size_t num_blocks = 1;
    if (pool_threads > 1 && total_spectra > 1) {
        // More blocks than threads smooths the load (payload symbols
        // carry different kernel counts); the partition never changes
        // results, only scheduling.
        num_blocks = std::min(total_spectra, pool_threads * 2);
    }
    workspace.noise_grids.resize(num_blocks);
    if (banded) {
        for (auto& grid : workspace.noise_grids) {
            grid.resize(n + 2 * interp_radius);
        }
    }
    workspace.block_times.assign(num_blocks, {});

    sweep_context ctx;
    ctx.ws = &workspace;
    ctx.round_seed = round_seed;
    ctx.n = n;
    ctx.pad = pad;
    ctx.total_spectra = total_spectra;
    ctx.num_blocks = num_blocks;
    ctx.interp_radius = interp_radius;
    ctx.sigma = sigma;
    ctx.sigma_grid = std::sqrt(static_cast<double>(n)) * sigma;
    ctx.banded = banded;
    ctx.time_sweep = workspace.obs.metrics != nullptr;

    {
        // The hardware-counter probe wraps the whole stage from the
        // calling thread (perf counters are thread-pinned, so with a
        // pool attached it attributes the caller's share of the sweep);
        // the wall-clock probes below sum each block's sweep and noise
        // times instead, so phy.kernel_sum_s stays the roofline
        // denominator — busy time of the accumulation loops, noise
        // excluded — and phy.noise_s the busy time of the noise, at any
        // thread count.
        ns::obs::perf_scope batch_perf(workspace.obs.perf,
                                       &workspace.obs.perf_kernel_sum);
        if (pool != nullptr && num_blocks > 1) {
            pool->run(num_blocks, &sweep_block, &ctx);
        } else {
            for (std::size_t block = 0; block < num_blocks; ++block) {
                sweep_block(&ctx, block);
            }
        }
    }

    if (workspace.obs.metrics != nullptr) {
        ns::obs::metrics_registry& metrics = *workspace.obs.metrics;
        ns::obs::histogram* sweep_hist =
            metrics.get_histogram("phy.kernel_sum_s", ns::obs::origin::host);
        ns::obs::histogram* noise_hist =
            metrics.get_histogram("phy.noise_s", ns::obs::origin::host);
        // Per-block sweep and noise times merge deterministically:
        // recorded by the calling thread, in block order, after the join.
        for (std::size_t block = 0; block < num_blocks; ++block) {
            sweep_hist->record_ns(workspace.block_times[block].kernel_ns);
            noise_hist->record_ns(workspace.block_times[block].noise_ns);
        }
        metrics.get_counter("phy.fast_packets")->add(packets.size());
        metrics.get_counter("phy.kernels_summed")->add(kernels_summed);
        metrics.get_counter("phy.noise_symbols")->add(total_spectra);
        metrics.get_counter("phy.kernel_window_elems")->add(window_elems);
    }
}

}  // namespace ns::channel
