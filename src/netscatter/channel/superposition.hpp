// Multi-device superposition channel — the substitute for the over-the-air
// combining of hundreds of concurrent backscatter transmissions.
//
// Each device contributes its waveform scaled to its received amplitude,
// rotated by a random carrier phase, displaced by its residual timing /
// frequency offset (applied as the equivalent post-dechirp tone shift,
// see impairments.hpp), optionally filtered by a multipath tap line, and
// the AP adds thermal noise. Powers are expressed relative to the noise
// floor (i.e. per-device SNR in dB), which keeps the simulation unitless
// and matches how the paper reports Fig. 12.
//
// Two synthesis domains consume the same packet and interferer rows:
//  * combine() — sample domain, the oracle: sums time-domain waveforms
//    into the AP's received baseband. Fully general (arbitrary dense
//    waveforms). Each packet row and interferer is rendered into one
//    reused buffer and added like any dense waveform, so the cost is
//    O(contributions x samples).
//  * superpose_symbol_domain() / combine_symbol_domain() — the §3.2
//    dechirp-to-tone identity run in reverse: a standard packet's
//    post-dechirp spectrum is a Dirichlet kernel at bin shift +
//    fractional offset(CFO, STO, Doppler), so each device is summed
//    directly into the receiver's per-symbol FFT accumulator; an
//    interferer adds full-width windows. Skips time-domain synthesis,
//    the per-device forward FFT and every intermediate buffer. The round
//    loop makes the preamble spectra in full and each payload symbol
//    only in the windows the decoder asks for (symbol_round), so a
//    payload symbol costs O(ON kernels x the requested bins they meet).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "netscatter/channel/impairments.hpp"
#include "netscatter/channel/kernel_batch.hpp"
#include "netscatter/dsp/fft.hpp"
#include "netscatter/obs/sink.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/phy/dechirped_round.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::engine {
class block_runner;
}  // namespace ns::engine

namespace ns::channel {

/// Non-owning view of a contribution's baseband samples. Constructed
/// from an explicit span (`std::span<const cplx>(storage)`); the
/// deleted rvalue overload keeps the pre-refactor idiom
/// `tx.waveform = mod.modulate_packet(bits)` a compile error instead
/// of a dangling view — the storage must outlive combine(). The old
/// `const cvec&` converting constructor is gone: one conversion surface,
/// and the span spelling makes the borrow visible at the call site.
class waveform_view {
public:
    waveform_view() = default;
    waveform_view(cvec&& samples) = delete;
    waveform_view(std::span<const cplx> samples) : span_(samples) {}

    operator std::span<const cplx>() const { return span_; }
    std::size_t size() const { return span_.size(); }
    bool empty() const { return span_.empty(); }

private:
    std::span<const cplx> span_;
};

/// One device's contribution to a concurrent transmission round.
///
/// `waveform` is a non-owning view: the caller keeps the sample storage
/// alive until combine() returns (tests and examples typically view
/// locally-owned cvecs).
struct tx_contribution {
    waveform_view waveform;         ///< unit-amplitude baseband samples
    double snr_db = 0.0;            ///< received SNR (per-sample, pre-despreading)
    double timing_offset_s = 0.0;   ///< residual hardware+propagation delay
    double frequency_offset_hz = 0.0;  ///< residual CFO (crystal + Doppler)
    bool random_phase = true;       ///< rotate by a uniform carrier phase
    std::size_t sample_delay = 0;   ///< integer-sample misalignment (coarse)
    /// Explicit per-device multipath taps (tap i delayed i samples;
    /// non-owning — e.g. a tap_delay_line's span). When non-empty they
    /// are convolved onto the waveform.
    std::span<const cplx> taps;
};

/// Symbolic description of one standard NetScatter packet (preamble at
/// the assigned shift + ON-OFF keyed payload), the row both synthesis
/// paths consume: the fast path sums its post-dechirp kernels, the
/// sample path renders the packet's samples.
struct packet_contribution {
    std::uint32_t cyclic_shift = 0;
    /// Payload+CRC bits (one ON-OFF symbol per bit), non-owning. 0/1.
    std::span<const std::uint8_t> frame_bits;
    double snr_db = 0.0;
    double timing_offset_s = 0.0;
    double frequency_offset_hz = 0.0;
    bool random_phase = true;
    /// Per-device multipath taps (non-owning; empty = flat channel).
    /// The fast path folds them into a spectral envelope on the Dirichlet
    /// window (phy::make_multipath_tone_kernel), so multipath rounds stay
    /// symbol-domain.
    std::span<const cplx> taps;
};

/// Symbolic description of one in-band interferer: a tone at tone_hz
/// over the capture window, or a classic-CSS (LoRa) frame, one upchirp
/// per symbol value from sample `sample_delay` on, tone-shifted by
/// `timing_offset_s`. combine() renders it; combine_symbol_domain() sums
/// its post-dechirp spectrum.
struct interferer_contribution {
    enum class kind : std::uint8_t { tone, lora_frame };
    kind type = kind::tone;
    double snr_db = 0.0;
    bool random_phase = true;
    double tone_hz = 0.0;                    ///< tone only
    std::span<const std::uint32_t> symbols;  ///< lora_frame only (non-owning)
    std::size_t sample_delay = 0;            ///< lora_frame only, < one symbol
    double timing_offset_s = 0.0;            ///< lora_frame only
};

/// Superposition channel configuration.
struct channel_config {
    double noise_power = 1.0;  ///< AP thermal noise power (linear)
};

/// Symbol-domain synthesis parameters. The spectra produced match what
/// the receiver's demodulator computes from the sample-domain stream
/// (dechirp + zero-padded FFT) exactly, up to the kernel truncation.
struct symbol_domain_params {
    std::size_t zero_padding = 8;     ///< receiver FFT padding factor
    std::size_t preamble_upchirps = 6;
    std::size_t preamble_symbols = 8;  ///< upchirps + downchirps (phase bookkeeping)
    std::size_t payload_symbols = 40;  ///< payload+CRC bits on the air
    /// Dirichlet kernel truncation radius in chip bins. Sidelobes beyond
    /// Δ chip bins are ~-(13 + 20·log10(Δ)) dB below the device's peak;
    /// the default keeps everything above ~-37 dB, which the fidelity
    /// equivalence tests bound against the sample path.
    std::size_t kernel_radius_bins = 16;
    /// Thermal-noise synthesis. The zero-padded spectrum of a noise
    /// symbol is fully determined by its N on-grid frequency samples
    /// (i.i.d. complex Gaussians — the DFT of white noise); off-grid
    /// padded bins are their Dirichlet interpolation. A banded
    /// interpolation of ±noise_interp_radius_bins chip bins replaces the
    /// per-symbol FFT at ~-(13 + 20·log10(π·R)) dB truncation error on
    /// the noise values — the same tolerance class as the device
    /// kernels, at a fraction of the cost. 0 = exact (FFT per symbol).
    std::size_t noise_interp_radius_bins = 4;
};

/// Reusable per-round scratch of the superposition channel. One instance
/// per simulator (NOT thread-safe); steady-state rounds allocate nothing
/// once the buffers are warm.
struct channel_workspace {
    cvec received;                  ///< combine() output buffer
    cvec rendered;                  ///< a packet row's or an interferer's samples
    cvec staged;                    ///< frequency-shift staging (multipath path)
    cvec filtered;                  ///< multipath staging
    /// Full per-symbol spectra (fast path): the preamble upchirps after
    /// superpose_symbol_domain; every symbol, preamble upchirps then
    /// payload, after combine_symbol_domain.
    std::vector<cvec> symbol_spectra;
    cvec kernel;                    ///< per-device Dirichlet window
    cvec envelope;                  ///< multipath-enveloped kernel window
    /// Tables that depend only on the round's geometry, built by the
    /// first fast-path round and rebuilt only when the geometry changes:
    /// the Dirichlet window's per-offset phasors for (N, padding, kernel
    /// radius), and the banded noise interpolation coefficients for
    /// (N, padding, noise radius), the geometry kept in noise_geometry.
    ns::phy::tone_kernel_table kernel_table;
    cvec noise_taps;
    std::array<std::size_t, 3> noise_geometry{};
    /// The last tone interferer's window, keyed by (tone_hz, N, padding).
    cvec tone_window;
    std::array<double, 3> tone_window_key{};
    /// SoA kernel placements: planned serially, swept per symbol.
    kernel_batch batch;
    /// What the last fast-path plan fixed for its sweeps.
    struct planned_round {
        std::uint64_t seed = 0;          ///< the round's noise seed
        std::size_t n = 0;               ///< chip bins (samples per symbol)
        std::size_t pad = 0;             ///< zero-padding factor
        std::size_t interp_radius = 0;   ///< banded noise radius, chip bins
        std::size_t upchirps = 0;        ///< preamble spectra
        std::size_t payload_symbols = 0;
        double sigma = 0.0;              ///< per-sample noise std (exact noise)
        double sigma_grid = 0.0;         ///< per-grid-bin noise std (banded)
        bool banded = false;
    } planned;
    /// The bins a sweep makes of each symbol and where it keeps them:
    /// `spans` of padded bins, whole noise-grid cells (pad bins each)
    /// around the requested windows, merged where they overlap or touch
    /// — so a dense request becomes a few long spans and the banded
    /// interpolation and the kernel loop run long. Noise and kernels fill
    /// the spans into a compact buffer of compact_size bins: the noise as
    /// `bands` (each span's whole quads of cells) and `cells` (the cells
    /// left over, from every span). `gather` holds each requested bin's
    /// index in it, window by window.
    struct window_plan {
        std::vector<bin_run> spans;
        std::vector<bin_run> bands;
        std::vector<grid_cell> cells;
        std::vector<std::uint32_t> first_span;  ///< bin_runs::first of `spans`
        std::vector<std::uint32_t> gather;
        std::size_t compact_size = 0;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> extents;  ///< scratch
    };
    window_plan full_plan;     ///< one window: the whole spectrum
    window_plan request_plan;  ///< the last payload request
    /// Per-block requested bins of the symbol being swept.
    std::vector<cvec> compact;
    /// Per-block on-grid noise draws + wrap margins (one grid per
    /// symbol block so blocks never share mutable scratch).
    std::vector<cvec> noise_grids;
    /// Per-block accumulation-sweep and noise-synthesis nanoseconds and
    /// summed window elements, recorded into phy.kernel_sum_s,
    /// phy.noise_s and phy.kernel_window_elems in block order after the
    /// join.
    struct block_time {
        std::uint64_t kernel_ns = 0;
        std::uint64_t noise_ns = 0;
        std::uint64_t elems = 0;
    };
    std::vector<block_time> block_times;
    /// Observability handles (non-owning; see obs_sink). When
    /// obs.metrics is set, the combiners count phy.kernels_summed /
    /// phy.fast_packets / phy.noise_symbols (fast path, per planned
    /// round), phy.kernel_window_elems (per sweep: the window elements
    /// actually summed) and phy.sample_waveforms (sample path), time
    /// phy.kernel_plan_s, phy.kernel_sum_s and phy.noise_s (fast path,
    /// every sweep) and phy.sample_combine_s
    /// (one sample-path combine, noise included); a wired obs.perf_kernel_sum
    /// attributes the device-kernel batch (perf.kernel_sum.*) — the
    /// denominator of the roofline model. Same thread-confinement rule
    /// as the workspace itself.
    ns::obs::obs_sink obs;
    /// Optional intra-round fan-out (non-owning). When set, every
    /// fast-path sweep (the preamble, a payload request, a full combine)
    /// runs symbol blocks across the runner's threads; every bin made is
    /// bit-identical at any thread count (noise is seeded per symbol,
    /// kernel order is fixed per symbol). Null = fully serial. The runner
    /// must be distinct from any pool the caller itself runs on (the
    /// simulator owns a dedicated one).
    ns::engine::block_runner* block_pool = nullptr;
};

/// Combines the round's packet rows, then the interferers, into the AP's
/// received baseband of length `length` samples and adds noise. Each row
/// is rendered into workspace.rendered as distributed_modulator's packet
/// at its shift (6 upchirps, 2 downchirps, then one ON-OFF symbol per
/// frame bit) starting at sample 0, then added as a dense contribution;
/// so is each interferer (a tone, or a LoRa frame from lora_modulator
/// shifted by its `sample_delay`). Sub-sample timing offsets and CFO are
/// applied via the equivalent tone shift. The random draws run in
/// contribution order (one carrier phase each), then the noise.
/// Returns a reference to `workspace.received` (valid until the next
/// combine on the workspace); bit-identical to the dense overload below
/// over the same rows and interferers rendered.
const cvec& combine(std::span<const packet_contribution> rows,
                    std::span<const interferer_contribution> interferers, std::size_t length,
                    const ns::phy::css_params& params, const channel_config& config,
                    ns::util::rng& rng, channel_workspace& workspace);

/// combine() over dense waveforms only, each shifted by its sample_delay.
const cvec& combine(std::span<const tx_contribution> contributions, std::size_t length,
                    const ns::phy::css_params& params, const channel_config& config,
                    ns::util::rng& rng, channel_workspace& workspace);

/// Symbol-domain fast path, staged as the round loop reads it: plans the
/// round and makes the preamble upchirps' full spectra into
/// `workspace.symbol_spectra`; a symbol_round on the same workspace then
/// makes payload power where the decoder asks for it. The preamble
/// downchirps are skipped — the decoder never inspects them at a known
/// packet start. Each spectrum holds thermal noise (drawn in the
/// frequency domain — distribution-identical to dechirped time-domain
/// noise) plus one truncated Dirichlet kernel per ON symbol per device —
/// or, for packets carrying explicit multipath taps, one enveloped
/// kernel (the tap-weighted sum of the window at integer-bin offsets,
/// see phy::make_multipath_tone_kernel).
///
/// The round runs as a kernel_batch: a serial planning stage draws one
/// round seed plus every per-packet phase from `rng`, builds each
/// packet's window once and flattens all placements into SoA arrays
/// bucketed by symbol; each sweep then synthesizes a symbol's noise from
/// a generator derived from (round seed, symbol index) — every draw,
/// however few bins are requested — and adds its placements with the
/// dispatched vectorized loop over the requested bins only, in the full
/// sweep's per-bin order. Because every symbol is self-contained, a
/// sweep fans out across workspace.block_pool when set, and every bin it
/// makes is bit-identical to the full spectrum's at any thread count and
/// any request.
///
/// `interferers` follow the packets in the plan (one phase draw each)
/// with full-width windows. A tone times the dechirp is a
/// frequency-shifted downchirp: one padded FFT per tone frequency
/// (workspace.tone_window) times e^{jωNg} in global symbol g. A LoRa
/// frame delayed d samples leaves value v_g over samples [d, N) and
/// v_{g−1} over [0, d) of window g: partial-window kernels at bin
/// v − d + τ (τ the timing offset in bins) with phase
/// 2π(−v·d/N + d²/2N + d/2) + ω(gN − d), two windows per frame rotated
/// by v·padding bins.
void superpose_symbol_domain(std::span<const packet_contribution> packets,
                             const ns::phy::css_params& params,
                             const channel_config& config, const symbol_domain_params& sd,
                             ns::util::rng& rng, channel_workspace& workspace,
                             std::span<const interferer_contribution> interferers = {});

/// superpose_symbol_domain, then every payload symbol in full: fills
/// `workspace.symbol_spectra` with preamble_upchirps preamble spectra
/// followed by payload_symbols payload spectra. It is the one-window
/// request of the same sweep (the window is the whole spectrum), for
/// callers that want whole spectra.
void combine_symbol_domain(std::span<const packet_contribution> packets,
                           const ns::phy::css_params& params,
                           const channel_config& config,
                           const symbol_domain_params& sd, ns::util::rng& rng,
                           channel_workspace& workspace,
                           std::span<const interferer_contribution> interferers = {});

/// The fast path's round as the decoder reads it: the preamble spectra
/// the last superpose_symbol_domain (or combine_symbol_domain) on the
/// workspace made, and payload power swept on request — the noise, the
/// kernel sum and the squaring run only over the requested windows,
/// fanned out across workspace.block_pool. Counts toward phy.noise_s,
/// phy.kernel_sum_s and phy.kernel_window_elems like any sweep.
class symbol_round final : public ns::phy::dechirped_round {
public:
    explicit symbol_round(channel_workspace& workspace) : ws_(&workspace) {}

    std::span<const cvec> preamble_spectra() override;
    void payload_power(const ns::phy::power_windows& windows, std::span<double> out) override;

private:
    channel_workspace* ws_;
};

}  // namespace ns::channel
