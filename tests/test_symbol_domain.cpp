// Symbol-domain fast path (§3.2 dechirp-to-tone identity run in
// reverse): exactness of the analytic Dirichlet kernel against the
// sample-level pipeline, the fractional-bin property under CFO / STO /
// Doppler, statistical equivalence of the two simulator fidelities, and
// the zero-per-device-allocation contract of the steady-state round
// loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <new>
#include <numbers>
#include <string>
#include <vector>

#include "netscatter/channel/fading.hpp"
#include "netscatter/channel/impairments.hpp"
#include "netscatter/channel/kernel_batch.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/engine/block_runner.hpp"
#include "netscatter/dsp/fft.hpp"
#include "netscatter/dsp/peak.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/demodulator.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/rx/receiver.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using ns::dsp::cplx;
using ns::dsp::cvec;

// ------------------------------------------------ allocation counting --
// Global operator new/delete instrumentation for the zero-allocation
// contract. Only the deltas measured inside a single-threaded test body
// are meaningful. The hook also feeds ns::obs::record_allocation, so the
// simulator's alloc.* metrics counters are live in this binary and the
// registry-based contract below observes the same events.
std::atomic<std::size_t> g_allocations{0};

}  // namespace

// noinline: if the inliner sees the std::free inside a delete while
// treating the matching operator new as opaque, GCC pairs free() with
// operator new and -Wmismatched-new-delete misfires.
__attribute__((noinline)) void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    ns::obs::record_allocation(size);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

__attribute__((noinline)) void operator delete(void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
    std::free(p);
}

namespace {

// ---------------------------------------------- kernel exactness ------

TEST(tone_kernel, untruncated_kernel_matches_sample_pipeline) {
    // The analytic spectrum of a shifted upchirp under a residual tone
    // offset must equal dechirp + zero-padded FFT of the synthesized
    // time-domain symbol, bin for bin, when the kernel is not truncated.
    const ns::phy::css_params phy{.bandwidth_hz = 500e3, .spreading_factor = 7};
    const std::size_t n = phy.num_bins();
    const std::size_t padding = 8;
    const ns::phy::demodulator demod(phy, padding);
    const ns::phy::tone_kernel_table full_width(n, padding, /*radius_bins=*/n / 2);

    for (const double shift : {0.0, 17.0, 100.0}) {
        for (const double tone_hz : {0.0, 137.5, -260.0}) {
            cvec symbol = ns::phy::make_upchirp(phy, shift);
            if (tone_hz != 0.0) {
                symbol = ns::dsp::frequency_shift(symbol, tone_hz, phy.bandwidth_hz);
            }
            const cvec expected = demod.symbol_spectrum(symbol);

            cvec kernel;
            const std::size_t first = ns::phy::make_dechirped_tone_kernel(
                kernel, shift + tone_hz / phy.bin_spacing_hz(), full_width);
            ASSERT_EQ(kernel.size(), n * padding);

            double max_error = 0.0;
            for (std::size_t w = 0; w < kernel.size(); ++w) {
                const std::size_t m = (first + w) % (n * padding);
                max_error = std::max(max_error, std::abs(kernel[w] - expected[m]));
            }
            // Peak magnitude is n; demand ~10 digits of agreement.
            EXPECT_LT(max_error, 1e-6 * static_cast<double>(n))
                << "shift " << shift << " tone " << tone_hz;
        }
    }
}

TEST(tone_kernel, truncated_kernel_is_exact_inside_window) {
    const ns::phy::css_params phy = ns::phy::deployed_params();
    const std::size_t n = phy.num_bins();
    const std::size_t padding = 4;
    cvec full;
    cvec truncated;
    const std::size_t first = ns::phy::make_dechirped_tone_kernel(
        truncated, 42.3, ns::phy::tone_kernel_table(n, padding, 8));
    const std::size_t first_full = ns::phy::make_dechirped_tone_kernel(
        full, 42.3, ns::phy::tone_kernel_table(n, padding, n / 2));
    // Align: both windows are centred on the same peak.
    const std::size_t m_total = n * padding;
    for (std::size_t w = 0; w < truncated.size(); ++w) {
        const std::size_t m = (first + w) % m_total;
        const std::size_t w_full = (m + m_total - first_full) % m_total;
        ASSERT_LT(w_full, full.size());
        EXPECT_NEAR(std::abs(truncated[w] - full[w_full]), 0.0, 1e-9);
    }
}

/// The kernel's defining formula evaluated with libm per element:
///   X = e^{jπ(N-1)θ} · sin(πx/padding)/sin(πθ),  θ = x/M,
/// x the element's distance from the peak in padded bins. The reference
/// the table-built kernel is held to.
std::size_t direct_tone_kernel(cvec& kernel, double position_bins, std::size_t num_bins,
                               std::size_t padding, std::size_t radius_bins) {
    const std::size_t m_total = num_bins * padding;
    const double n = static_cast<double>(num_bins);
    const double m_real = static_cast<double>(m_total);
    double p = position_bins * static_cast<double>(padding);
    p -= std::floor(p / m_real) * m_real;
    const std::size_t half = std::min(radius_bins * padding, m_total / 2);
    kernel.resize(std::min(2 * half + 1, m_total));
    const auto first = static_cast<std::ptrdiff_t>(std::llround(p)) -
                       static_cast<std::ptrdiff_t>(half);
    for (std::size_t w = 0; w < kernel.size(); ++w) {
        const double x = p - static_cast<double>(first + static_cast<std::ptrdiff_t>(w));
        const double theta = x / m_real;
        const double denominator = std::sin(std::numbers::pi * theta);
        const double magnitude =
            std::abs(denominator) < 1e-12
                ? n
                : std::sin(std::numbers::pi * x / static_cast<double>(padding)) / denominator;
        kernel[w] = magnitude * std::exp(cplx{0.0, std::numbers::pi * (n - 1.0) * theta});
    }
    const auto m_signed = static_cast<std::ptrdiff_t>(m_total);
    return static_cast<std::size_t>(((first % m_signed) + m_signed) % m_signed);
}

TEST(tone_kernel, table_kernel_matches_direct_formula) {
    // Angle addition reorders the libm work but not the function: every
    // element stays within 1e-13·N of the direct evaluation, over
    // SF7–SF12, padding 1–16 and radius 1 to full width. The positions
    // cover the on-peak branch (integers), llround's half-bin ties,
    // negative positions and positions past N (both wrap).
    double worst = 0.0;
    for (std::size_t sf = 7; sf <= 12; ++sf) {
        const std::size_t n = std::size_t{1} << sf;
        const double nd = static_cast<double>(n);
        for (const std::size_t padding : {1, 2, 4, 8, 16}) {
            const double half_bin = 0.5 / static_cast<double>(padding);
            const std::vector<double> positions{
                // on-peak integers, then fractional ones
                0.0, 17.0, nd - 1.0, 42.3,
                // negative and past N: wrapped
                -3.3, -nd - 0.71, nd + 5.7, 3.0 * nd + 0.125, nd - 1e-13,
                // exactly half a padded bin off-grid: llround ties
                10.0 + half_bin, 10.0 - half_bin, -7.0 - half_bin, nd + half_bin};
            for (const std::size_t radius : {std::size_t{1}, std::size_t{4},
                                             std::size_t{16}, n / 2}) {
                const ns::phy::tone_kernel_table table(n, padding, radius);
                cvec kernel;
                cvec expected;
                for (const double position : positions) {
                    const std::size_t first =
                        ns::phy::make_dechirped_tone_kernel(kernel, position, table);
                    const std::size_t expected_first =
                        direct_tone_kernel(expected, position, n, padding, radius);
                    ASSERT_EQ(first, expected_first) << "position " << position;
                    ASSERT_EQ(kernel.size(), expected.size());
                    // Counted, not only maxed, so a NaN element fails too.
                    std::size_t outside = 0;
                    for (std::size_t w = 0; w < kernel.size(); ++w) {
                        const double error = std::abs(kernel[w] - expected[w]);
                        if (!(error <= 1e-13 * nd)) ++outside;
                        worst = std::max(worst, error / nd);
                    }
                    EXPECT_EQ(outside, 0u)
                        << "SF" << sf << " padding " << padding << " radius " << radius
                        << " position " << position;
                }
            }
        }
    }
    std::cout << "table kernel vs direct formula: max |error| = " << worst << " x N\n";
}

TEST(tone_kernel, multipath_envelope_matches_sample_pipeline) {
    // A tap delaying the chirp by t samples is a -t-bin cyclic shift with
    // a constant phase, so the post-dechirp spectrum of a multipath
    // symbol must equal the tap-enveloped kernel bin for bin. Two
    // consecutive identical ON symbols + linear tap convolution make the
    // second symbol exactly the cyclic picture the envelope models.
    const ns::phy::css_params phy{.bandwidth_hz = 500e3, .spreading_factor = 7};
    const std::size_t n = phy.num_bins();
    const std::size_t padding = 4;
    const std::size_t m_total = n * padding;
    const ns::phy::demodulator demod(phy, padding);
    ns::util::rng rng(7);

    for (const std::uint32_t shift : {0u, 23u, 100u}) {
        for (const double tone_hz : {0.0, 170.0, -95.0}) {
            ns::channel::multipath_model model;
            model.num_taps = 3;
            const cvec taps = model.sample_taps(phy.bandwidth_hz, rng);

            const cvec symbol =
                ns::phy::make_upchirp(phy, static_cast<double>(shift));
            cvec stream(2 * n);
            std::copy(symbol.begin(), symbol.end(), stream.begin());
            std::copy(symbol.begin(), symbol.end(),
                      stream.begin() + static_cast<std::ptrdiff_t>(n));
            if (tone_hz != 0.0) {
                stream = ns::dsp::frequency_shift(stream, tone_hz, phy.bandwidth_hz);
            }
            const cvec filtered = ns::channel::apply_multipath(stream, taps);
            const cvec second(filtered.begin() + static_cast<std::ptrdiff_t>(n),
                              filtered.end());
            const cvec expected = demod.symbol_spectrum(second);

            cvec envelope;
            cvec scratch;
            const double tone_bins = tone_hz / phy.bin_spacing_hz();
            // Radius near n/2: the window plus the tap spread must stay
            // within the padded spectrum, so back off a few bins — every
            // covered bin is exact, truncation only drops far sidelobes.
            const std::size_t first = ns::phy::make_multipath_tone_kernel(
                envelope, taps, shift, tone_bins,
                ns::phy::tone_kernel_table(n, padding, n / 2 - 4), scratch);
            // The stream's residual tone advanced by ω·N samples at the
            // second symbol.
            const cplx rotation = std::polar(
                1.0, 2.0 * std::numbers::pi * tone_hz *
                         static_cast<double>(n) / phy.bandwidth_hz);
            // Exactness holds on the intersection of every tap's window
            // (envelope indices [spread, window)): outside it some tap
            // contributes only its dropped far sidelobe — the documented
            // truncation error, not an envelope defect.
            const std::size_t spread = (taps.size() - 1) * padding;
            const std::size_t window = envelope.size() - spread;
            double max_error = 0.0;
            for (std::size_t w = spread; w < window; ++w) {
                const std::size_t m = (first + w) % m_total;
                max_error = std::max(
                    max_error, std::abs(rotation * envelope[w] - expected[m]));
            }
            EXPECT_LT(max_error, 1e-6 * static_cast<double>(n))
                << "shift " << shift << " tone " << tone_hz;
        }
    }
}

TEST(tone_kernel, oversized_radius_clamps_instead_of_aborting) {
    // The bare kernel silently clamps radius >= num_bins/2; the enveloped
    // kernel must do the same (minus the tap spread), not abort mid-run.
    const ns::phy::css_params phy = ns::phy::deployed_params();
    const std::size_t n = phy.num_bins();
    const cvec taps{cplx{0.8, 0.0}, cplx{0.3, 0.0}, cplx{0.2, 0.0}};
    cvec envelope;
    cvec scratch;
    ns::phy::make_multipath_tone_kernel(
        envelope, taps, 10, 0.25, ns::phy::tone_kernel_table(n, 8, /*radius_bins=*/n),
        scratch);
    EXPECT_LE(envelope.size(), n * 8);
    EXPECT_GT(envelope.size(), 0u);
}

TEST(tone_kernel, single_unit_tap_envelope_reduces_to_bare_kernel) {
    const ns::phy::css_params phy = ns::phy::deployed_params();
    const std::size_t n = phy.num_bins();
    const cvec taps{cplx{1.0, 0.0}};
    const ns::phy::tone_kernel_table table(n, 8, 16);
    cvec envelope;
    cvec scratch;
    const std::size_t first_env =
        ns::phy::make_multipath_tone_kernel(envelope, taps, 42, 0.37, table, scratch);
    cvec kernel;
    const std::size_t first_kernel =
        ns::phy::make_dechirped_tone_kernel(kernel, 42.37, table);
    ASSERT_EQ(first_env, first_kernel);
    ASSERT_EQ(envelope.size(), kernel.size());
    for (std::size_t w = 0; w < kernel.size(); ++w) {
        EXPECT_NEAR(std::abs(envelope[w] - kernel[w]), 0.0, 1e-12);
    }
}

TEST(tone_kernel, partial_window_matches_padded_fft) {
    // A tone sounding over samples [a, a + L) of the symbol has the
    // padded spectrum of that segment alone: the kernel must match the
    // zero-padded FFT of the segment bin for bin, for the two segments a
    // frame delayed d samples leaves ([d, N) and [0, d)), at SF7–SF12,
    // for peaks inside the spectrum, next to its top bin and below bin 0
    // (so the main lobe wraps).
    for (int sf = 7; sf <= 12; ++sf) {
        const std::size_t n = std::size_t{1} << sf;
        const std::size_t padding = sf >= 11 ? 2 : 4;
        const std::size_t m_total = n * padding;
        for (const std::size_t d : {std::size_t{0}, std::size_t{1}, n / 2, n - 1}) {
            for (const double position : {17.3, static_cast<double>(n) - 0.4, -3.71}) {
                for (const auto& [start, length] :
                     {std::pair{d, n - d}, std::pair{std::size_t{0}, d}}) {
                    if (length == 0) continue;
                    cvec segment(n, cplx{0.0, 0.0});
                    for (std::size_t t = start; t < start + length; ++t) {
                        segment[t] = std::polar(1.0, 2.0 * std::numbers::pi * position *
                                                         static_cast<double>(t) /
                                                         static_cast<double>(n));
                    }
                    const cvec expected = ns::dsp::fft_zero_padded(segment, m_total);
                    cvec kernel;
                    ns::phy::make_dechirped_tone_kernel(kernel, position, n, padding, start,
                                                        length);
                    ASSERT_EQ(kernel.size(), m_total);
                    double max_error = 0.0;
                    for (std::size_t m = 0; m < m_total; ++m) {
                        max_error = std::max(max_error, std::abs(kernel[m] - expected[m]));
                    }
                    EXPECT_LT(max_error, 1e-9 * static_cast<double>(n))
                        << "SF" << sf << " d " << d << " position " << position
                        << " window [" << start << ", " << start + length << ")";
                }
            }
        }
    }
}

// -------------------------------------------- interferer spectra ------

/// Fast-path spectra of one interferer against dechirp + padded FFT of
/// the sample path's capture, window for window, with epsilon noise on
/// both sides. The geometry is small (4 spectra) so SF12 stays cheap:
/// two preamble upchirps, one downchirp, two payload symbols.
void expect_interferer_spectra_match(const ns::phy::css_params& phy, std::size_t padding,
                                     const ns::channel::interferer_contribution& interferer,
                                     const std::string& label) {
    ns::channel::symbol_domain_params sd;
    sd.zero_padding = padding;
    sd.preamble_upchirps = 2;
    sd.preamble_symbols = 3;
    sd.payload_symbols = 2;
    ns::channel::channel_config config;
    config.noise_power = 1e-18;
    const double amplitude = 10.0;  // 200 dB above the epsilon noise
    const std::size_t n = phy.samples_per_symbol();
    const std::size_t length = (sd.preamble_symbols + sd.payload_symbols) * n;

    ns::util::rng fast_rng(5);
    ns::channel::channel_workspace fast_ws;
    const std::span<const ns::channel::interferer_contribution> one(&interferer, 1);
    ns::channel::combine_symbol_domain({}, phy, config, sd, fast_rng, fast_ws, one);
    ns::util::rng sample_rng(6);
    ns::channel::channel_workspace sample_ws;
    const cvec& received =
        ns::channel::combine({}, one, length, phy, config, sample_rng, sample_ws);

    const ns::phy::demodulator demod(phy, padding);
    ASSERT_EQ(fast_ws.symbol_spectra.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t g = k < 2 ? k : k + 1;
        cvec expected;
        demod.symbol_spectrum_into(
            std::span<const cplx>(received).subspan(g * n, n), expected);
        const cvec& produced = fast_ws.symbol_spectra[k];
        ASSERT_EQ(produced.size(), expected.size());
        double max_error = 0.0;
        for (std::size_t m = 0; m < expected.size(); ++m) {
            max_error = std::max(max_error, std::abs(produced[m] - expected[m]));
        }
        EXPECT_LT(max_error, 1e-6 * amplitude * static_cast<double>(n))
            << label << " spectrum " << k;
    }
}

TEST(interferer_spectra, lora_frame_matches_sample_path) {
    // A frame delayed d samples leaves two partial-window tones in each
    // symbol window; both, with their phases, must land where dechirp +
    // FFT of the rendered frame puts them: SF7–SF12, d at both edges and
    // mid-symbol, whole- and fractional-bin timing offsets (one past
    // half a symbol, so the tone wraps), and symbol values at both ends
    // of the range (windows rotated across the top bin).
    for (int sf = 7; sf <= 12; ++sf) {
        const ns::phy::css_params phy{.bandwidth_hz = 500e3, .spreading_factor = sf};
        const std::size_t n = phy.num_bins();
        const std::vector<std::uint32_t> symbols = {
            static_cast<std::uint32_t>(n - 1), 0, 3, static_cast<std::uint32_t>(n / 3),
            static_cast<std::uint32_t>(n - 2), 1};
        for (const std::size_t d : {std::size_t{0}, std::size_t{1}, n / 2, n - 1}) {
            for (const double offset_bins : {0.0, 0.37, 0.61 * static_cast<double>(n)}) {
                ns::channel::interferer_contribution frame;
                frame.type = ns::channel::interferer_contribution::kind::lora_frame;
                frame.snr_db = 200.0;
                frame.random_phase = false;
                frame.symbols = symbols;
                frame.sample_delay = d;
                frame.timing_offset_s = offset_bins / phy.bandwidth_hz;
                expect_interferer_spectra_match(
                    phy, sf >= 11 ? 2 : 4, frame,
                    "SF" + std::to_string(sf) + " d " + std::to_string(d) + " offset " +
                        std::to_string(offset_bins));
            }
        }
    }
}

TEST(interferer_spectra, tone_matches_sample_path) {
    // A tone times the dechirp is a frequency-shifted downchirp: one
    // full-width window, rotated per symbol by the tone's phase advance,
    // for a tone outside the band too (it aliases).
    for (int sf = 7; sf <= 12; ++sf) {
        const ns::phy::css_params phy{.bandwidth_hz = 500e3, .spreading_factor = sf};
        for (const double tone_hz : {80e3, -12345.6, 0.0, 1.31e6}) {
            ns::channel::interferer_contribution tone;
            tone.snr_db = 200.0;
            tone.random_phase = false;
            tone.tone_hz = tone_hz;
            expect_interferer_spectra_match(
                phy, sf >= 11 ? 2 : 4, tone,
                "SF" + std::to_string(sf) + " tone " + std::to_string(tone_hz));
        }
    }
}

// ----------------------------------- dechirp-to-tone fractional bins --

TEST(dechirp_identity, offsets_land_on_predicted_fractional_bin) {
    // Property (§3.2.1/§3.2.2): a cyclic shift s with residual timing
    // offset dt, CFO df and Doppler fd dechirps to a tone whose padded
    // FFT peak sits at s + dt·BW + (df+fd)/bin_spacing chip bins, within
    // the padded-grid resolution.
    const ns::phy::css_params phy = ns::phy::deployed_params();
    const std::size_t padding = 8;
    const ns::phy::demodulator demod(phy, padding);
    ns::util::rng rng(99);

    for (int trial = 0; trial < 12; ++trial) {
        const auto shift = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(phy.num_bins()) - 1));
        const double dt = rng.uniform(-2e-6, 2e-6);        // up to ±1 bin
        const double cfo = rng.uniform(-150.0, 150.0);     // Fig. 14a range
        const double doppler = rng.uniform(-40.0, 40.0);   // indoor speeds

        const double tone_hz = ns::channel::equivalent_tone_shift_hz(
            phy, dt, cfo + doppler);
        cvec symbol = ns::phy::make_upchirp(phy, static_cast<double>(shift));
        symbol = ns::dsp::frequency_shift(symbol, tone_hz, phy.bandwidth_hz);

        const std::vector<double> power = demod.symbol_power_spectrum(symbol);
        const ns::dsp::peak peak = ns::dsp::find_peak(power);

        const double predicted_bins =
            static_cast<double>(shift) + phy.bins_from_time_offset(dt) +
            phy.bins_from_frequency_offset(cfo + doppler);
        const double n_padded = static_cast<double>(power.size());
        double predicted_padded =
            predicted_bins * static_cast<double>(padding);
        predicted_padded -= std::floor(predicted_padded / n_padded) * n_padded;

        double error = std::abs(peak.fractional_bin - predicted_padded);
        error = std::min(error, n_padded - error);  // cyclic distance
        EXPECT_LT(error, 1.0) << "trial " << trial << " shift " << shift
                              << " dt " << dt << " cfo " << cfo;
    }
}

// ------------------------------- fidelity equivalence (AWGN matrix) ---

struct fidelity_outcome {
    double delivery = 0.0;
    double ber = 0.0;
    std::size_t fast_rounds = 0;
    std::size_t rounds = 0;
};

fidelity_outcome run_sim(std::size_t devices, std::uint64_t seed,
                         ns::sim::phy_fidelity fidelity, std::size_t rounds,
                         bool multipath = false) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, devices, seed);
    ns::sim::sim_config config;
    config.rounds = rounds;
    config.seed = seed + 1;
    config.zero_padding = 4;
    config.fidelity = fidelity;
    config.model_multipath = multipath;
    ns::sim::network_simulator sim(dep, config);
    const ns::sim::sim_result result = sim.run();
    return {result.delivery_rate(), result.ber(), result.fast_path_rounds,
            result.rounds.size()};
}

TEST(fidelity_equivalence, symbol_matches_sample_across_awgn_matrix) {
    // The two synthesis domains are different noise realizations of the
    // same physics: BER and delivery must agree within a statistical
    // tolerance at every operating point of the AWGN device-count sweep.
    for (const std::size_t devices : {8ul, 64ul, 160ul, 256ul}) {
        const fidelity_outcome sample =
            run_sim(devices, 5, ns::sim::phy_fidelity::sample, 6);
        const fidelity_outcome symbol =
            run_sim(devices, 5, ns::sim::phy_fidelity::symbol, 6);
        EXPECT_EQ(sample.fast_rounds, 0u);
        EXPECT_EQ(symbol.fast_rounds, symbol.rounds);
        EXPECT_NEAR(symbol.delivery, sample.delivery, 0.08)
            << devices << " devices";
        EXPECT_NEAR(symbol.ber, sample.ber, 0.02) << devices << " devices";
    }
}

TEST(fidelity_equivalence, symbol_matches_sample_under_multipath) {
    // Frequency-selective multipath is representable on both paths: the
    // sample path convolves the tap lines, the fast path folds them into
    // spectral envelopes. The two are different noise realizations of
    // the same channel, so BER/delivery must agree statistically — and
    // the multipath rounds must actually run symbol-domain.
    for (const std::size_t devices : {32ul, 128ul}) {
        const fidelity_outcome sample =
            run_sim(devices, 11, ns::sim::phy_fidelity::sample, 6, true);
        const fidelity_outcome symbol =
            run_sim(devices, 11, ns::sim::phy_fidelity::symbol, 6, true);
        EXPECT_EQ(sample.fast_rounds, 0u);
        EXPECT_EQ(symbol.fast_rounds, symbol.rounds);
        EXPECT_NEAR(symbol.delivery, sample.delivery, 0.08)
            << devices << " devices";
        EXPECT_NEAR(symbol.ber, sample.ber, 0.02) << devices << " devices";
    }
}

TEST(fidelity_equivalence, multipath_costs_delivery_but_keeps_fast_path) {
    // The frequency-selective channel must actually bite (scattered-tap
    // leakage into neighbouring slots) without knocking rounds off the
    // symbol-domain path.
    const fidelity_outcome flat =
        run_sim(160, 13, ns::sim::phy_fidelity::symbol, 6, false);
    const fidelity_outcome faded =
        run_sim(160, 13, ns::sim::phy_fidelity::symbol, 6, true);
    EXPECT_EQ(faded.fast_rounds, faded.rounds);
    EXPECT_LT(faded.delivery, flat.delivery);
    EXPECT_GT(faded.delivery, 0.4);  // Rician K=9 dB: degraded, not dead
}

TEST(fidelity_equivalence, default_fidelity_is_the_fast_path) {
    // Fidelity is a run-level choice, and the default synthesizes
    // spectra in every round.
    EXPECT_EQ(ns::sim::sim_config{}.fidelity, ns::sim::phy_fidelity::symbol);
    const fidelity_outcome symbol =
        run_sim(32, 7, ns::sim::phy_fidelity::symbol, 4);
    EXPECT_EQ(symbol.fast_rounds, symbol.rounds);
}

TEST(fidelity_equivalence, banded_noise_matches_exact_noise_statistics) {
    // noise_interp_radius_bins = 0 forces the exact per-symbol-FFT noise
    // path; the banded default must land on the same delivery/BER within
    // run-to-run noise.
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 96, 17);
    ns::sim::sim_config config;
    config.rounds = 6;
    config.seed = 3;
    config.zero_padding = 4;
    config.fidelity = ns::sim::phy_fidelity::symbol;
    ns::sim::network_simulator banded_sim(dep, config);
    const auto banded = banded_sim.run();

    // Exercise the exact path through combine_symbol_domain directly on
    // the same statistics question: mean on-grid and off-grid noise bin
    // power must match between the two synthesis modes.
    ns::channel::channel_workspace exact_ws;
    ns::channel::channel_workspace banded_ws;
    ns::channel::channel_config chan;
    ns::channel::symbol_domain_params sd;
    sd.zero_padding = 4;
    sd.payload_symbols = 8;
    ns::util::rng rng_a(21);
    ns::util::rng rng_b(22);
    ns::channel::symbol_domain_params exact_sd = sd;
    exact_sd.noise_interp_radius_bins = 0;
    ns::channel::combine_symbol_domain({}, ns::phy::deployed_params(), chan,
                                       exact_sd, rng_a, exact_ws);
    ns::channel::combine_symbol_domain({}, ns::phy::deployed_params(), chan, sd,
                                       rng_b, banded_ws);
    auto mean_power = [](const std::vector<cvec>& spectra) {
        double total = 0.0;
        std::size_t count = 0;
        for (const cvec& spectrum : spectra) {
            for (const cplx& value : spectrum) {
                total += std::norm(value);
                ++count;
            }
        }
        return total / static_cast<double>(count);
    };
    const double exact_power = mean_power(exact_ws.symbol_spectra);
    const double banded_power = mean_power(banded_ws.symbol_spectra);
    // Expected dechirped noise-bin power is N * noise_power = 512.
    EXPECT_NEAR(exact_power, 512.0, 25.0);
    EXPECT_NEAR(banded_power / exact_power, 1.0, 0.05);
    EXPECT_GT(banded.delivery_rate(), 0.9);
}

// ------------------------------------------- zero-allocation contract --

std::size_t allocations_for_rounds(std::size_t devices, std::size_t rounds,
                                   bool multipath = false) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, devices, 9);
    ns::sim::sim_config config;
    config.rounds = rounds;
    config.seed = 4;
    config.zero_padding = 4;
    config.fidelity = ns::sim::phy_fidelity::symbol;
    config.model_multipath = multipath;
    ns::sim::network_simulator sim(dep, config);
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const ns::sim::sim_result result = sim.run();
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(result.fast_path_rounds, rounds);
    return after - before;
}

TEST(fast_path_allocations, steady_state_rounds_allocate_nothing_per_device) {
    // Warm-up rounds populate the workspaces; every round after that
    // must perform zero per-device heap allocations. Comparing the
    // allocation count of an R-round run and an (R+4)-round run isolates
    // the steady-state rounds (construction + warm-up costs cancel), and
    // running at two population sizes shows the steady state is
    // device-independent.
    const std::size_t short_run = allocations_for_rounds(64, 4);
    const std::size_t long_run = allocations_for_rounds(64, 8);
    const std::size_t per_round = (long_run - short_run) / 4;
    // The only steady-state allocation permitted is the per-round
    // outcome bookkeeping (result.rounds was reserved up front, so even
    // that is zero) — allow a tiny constant for standard-library slack.
    EXPECT_LE(per_round, 2u) << "short " << short_run << " long " << long_run;

    const std::size_t short_big = allocations_for_rounds(192, 4);
    const std::size_t long_big = allocations_for_rounds(192, 8);
    const std::size_t per_round_big = (long_big - short_big) / 4;
    EXPECT_LE(per_round_big, 2u)
        << "short " << short_big << " long " << long_big;
}

TEST(fast_path_allocations, multipath_rounds_stay_allocation_free) {
    // The enveloped-kernel path (tap_delay_line advance + envelope
    // window) must not reintroduce per-device steady-state allocations.
    const std::size_t short_run = allocations_for_rounds(64, 4, true);
    const std::size_t long_run = allocations_for_rounds(64, 8, true);
    const std::size_t per_round = (long_run - short_run) / 4;
    EXPECT_LE(per_round, 2u) << "short " << short_run << " long " << long_run;
}

TEST(fast_path_allocations, metrics_report_zero_steady_state_allocations) {
    // Same contract, observed through the metrics registry instead of a
    // test-local diff: the simulator's own per-round allocation metering
    // (operator new above feeds ns::obs::record_allocation) must report
    // zero heap allocations for every round past the warm-up window.
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 64, 9);
    ns::sim::sim_config config;
    config.rounds = 12;
    config.seed = 4;
    config.zero_padding = 4;
    config.fidelity = ns::sim::phy_fidelity::symbol;
    ns::sim::network_simulator sim(dep, config);
    const ns::sim::sim_result result = sim.run();
    EXPECT_EQ(result.fast_path_rounds, config.rounds);
    EXPECT_EQ(result.metrics.counter_value("alloc.steady_rounds"),
              config.rounds - config.obs.alloc_warmup_rounds);
    EXPECT_EQ(result.metrics.counter_value("alloc.steady_count"), 0u)
        << "steady-state rounds allocated "
        << result.metrics.counter_value("alloc.steady_bytes") << " bytes";
}

TEST(fast_path_allocations, radios_built_in_steady_rounds_allocate_nothing) {
    // A device's radio is built the first time its group is scheduled.
    // With at least as many groups as rounds, every round past the
    // warm-up window schedules a group for the first time and builds its
    // members' radios, which must not allocate either. The 12 rounds of
    // 16 fill the radio pool's reserve of rounds × group capacity
    // exactly: 192 radios of the 256 devices.
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 256, 9);
    ns::sim::sim_config config;
    config.rounds = 12;
    config.seed = 4;
    config.zero_padding = 4;
    config.fidelity = ns::sim::phy_fidelity::symbol;
    config.grouping.enabled = true;
    config.grouping.group_capacity = 16;
    ns::sim::network_simulator sim(dep, config);
    const ns::sim::sim_result result = sim.run();
    ASSERT_GE(result.num_groups, config.rounds);
    ASSERT_GT(config.rounds, config.obs.alloc_warmup_rounds);
    EXPECT_GT(result.total_transmitting, 0u);
    EXPECT_EQ(result.metrics.counter_value("alloc.steady_rounds"),
              config.rounds - config.obs.alloc_warmup_rounds);
    EXPECT_EQ(result.metrics.counter_value("alloc.steady_count"), 0u)
        << "steady-state rounds allocated "
        << result.metrics.counter_value("alloc.steady_bytes") << " bytes";
}

/// Heap bytes a grouped simulator allocates while it is constructed over
/// `devices` placed devices, all initially associated.
std::uint64_t construction_bytes(std::size_t devices, bool multipath = false) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, devices, 5);
    ns::sim::sim_config config;
    config.fidelity = ns::sim::phy_fidelity::symbol;
    config.grouping.enabled = true;
    config.model_multipath = multipath;
    config.obs.metrics = false;
    const std::uint64_t before = ns::obs::thread_allocations().bytes;
    { const ns::sim::network_simulator sim(dep, config); }
    return ns::obs::thread_allocations().bytes - before;
}

TEST(construction_memory, bytes_per_device_stay_at_half_the_fat_slot_layout) {
    // Per-device construction memory is a slope: fixed costs (receiver,
    // allocator tables) cancel between the two populations. When every
    // slot carried its own device_params copy, the whole placement and an
    // inline optional tap line, this slope was 654 bytes per device,
    // counting every transient partition and allocation vector. Now it
    // is 106: an 80-byte slot and 26 bytes of id-indexed columns and the
    // transient partition input. The radio pool is a constant here: a
    // grouped run reserves rounds × group capacity radios (10 × 256),
    // fewer than either population. The bound allows 10 bytes more.
    const std::uint64_t small = construction_bytes(4096);
    const std::uint64_t large = construction_bytes(16384);
    ASSERT_GT(large, small);
    const double per_device =
        static_cast<double>(large - small) / static_cast<double>(16384 - 4096);
    std::cout << "construction: " << per_device << " bytes per device\n";
    constexpr double measured_bytes_per_device = 106.0;
    EXPECT_LE(per_device, measured_bytes_per_device + 10.0);
}

TEST(construction_memory, multipath_adds_only_each_devices_taps) {
    // Under model_multipath every device adds a tap line: the line and
    // its own taps, nothing else. The power-delay profile is one copy
    // shared by every line; a copy per line would add its vector too.
    const std::size_t devices = 16384;
    const std::uint64_t flat = construction_bytes(devices, false);
    const std::uint64_t multipath = construction_bytes(devices, true);
    ASSERT_GT(multipath, flat);
    const double per_device =
        static_cast<double>(multipath - flat) / static_cast<double>(devices);
    const ns::sim::sim_config config;
    const double line_bytes =
        static_cast<double>(sizeof(ns::channel::tap_delay_line) +
                            static_cast<std::size_t>(config.multipath.num_taps + 1) *
                                sizeof(cplx));
    std::cout << "construction: multipath adds " << per_device << " bytes per device\n";
    EXPECT_LE(per_device, line_bytes + 1.0);
}

TEST(fast_path_allocations, first_demodulated_spectrum_allocates_nothing) {
    // The demodulator fetches its padded FFT plan when constructed, so
    // the first symbol it transforms (inside a receiver's round 0) never
    // pays a plan build. 2^10 x 32 = 32768 bins: no other test in this
    // binary transforms that size, so the plan cannot already exist.
    const ns::phy::css_params phy{.bandwidth_hz = 500e3, .spreading_factor = 10};
    const ns::phy::demodulator demod(phy, 32);
    const cvec symbol(phy.samples_per_symbol(), cplx{1.0, 0.0});
    cvec spectrum(demod.padded_size());
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    demod.symbol_spectrum_into(symbol, spectrum);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(spectrum.size(), std::size_t{32768});
}

// --------------------------- kernel batch: backend & thread identity --

struct batch_round {
    std::vector<std::vector<std::uint8_t>> bits;
    std::vector<ns::channel::packet_contribution> packets;
    ns::channel::symbol_domain_params sd;
};

batch_round make_batch_round(std::size_t devices, std::uint64_t seed) {
    const ns::phy::css_params phy = ns::phy::deployed_params();
    batch_round round;
    round.sd.zero_padding = 4;
    round.sd.payload_symbols = 16;
    ns::util::rng rng(seed);
    round.bits.resize(devices);
    round.packets.resize(devices);
    const std::size_t stride = std::max<std::size_t>(1, phy.num_bins() / devices);
    for (std::size_t d = 0; d < devices; ++d) {
        round.bits[d].resize(round.sd.payload_symbols);
        for (auto& bit : round.bits[d]) {
            bit = static_cast<std::uint8_t>(rng() & 1);
        }
        auto& packet = round.packets[d];
        packet.cyclic_shift =
            static_cast<std::uint32_t>(d * stride % phy.num_bins());
        packet.frame_bits = round.bits[d];
        packet.snr_db = 12.0;
        packet.timing_offset_s = rng.uniform(-1e-6, 1e-6);
        packet.frequency_offset_hz = rng.uniform(-50.0, 50.0);
    }
    return round;
}

std::vector<cvec> batch_round_spectra(const batch_round& round,
                                      ns::engine::block_runner* pool) {
    ns::channel::channel_workspace ws;
    ws.block_pool = pool;
    ns::channel::channel_config chan;
    ns::util::rng rng(404);  // same stream for every configuration
    ns::channel::combine_symbol_domain(round.packets,
                                       ns::phy::deployed_params(), chan,
                                       round.sd, rng, ws);
    return ws.symbol_spectra;
}

void expect_spectra_bit_identical(const std::vector<cvec>& expected,
                                  const std::vector<cvec>& actual,
                                  const char* label) {
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (std::size_t s = 0; s < expected.size(); ++s) {
        ASSERT_EQ(expected[s].size(), actual[s].size()) << label;
        for (std::size_t i = 0; i < expected[s].size(); ++i) {
            ASSERT_EQ(expected[s][i], actual[s][i])
                << label << ": symbol " << s << " bin " << i;
        }
    }
}

/// Caps the dispatched legs at `level` for the enclosing scope.
struct scoped_simd_cap {
    explicit scoped_simd_cap(ns::channel::simd_level level) {
        ns::channel::cap_simd_level(level);
    }
    ~scoped_simd_cap() {
        ns::channel::cap_simd_level(ns::channel::simd_level::avx512);
    }
};

/// Every dispatch level this build and host can run, scalar first.
std::vector<ns::channel::simd_level> supported_simd_levels() {
    using ns::channel::simd_level;
    std::vector<simd_level> levels;
    for (const simd_level level :
         {simd_level::scalar, simd_level::avx2, simd_level::avx512}) {
        if (level <= ns::channel::host_simd_level()) levels.push_back(level);
    }
    return levels;
}

TEST(kernel_batch, simd_backend_is_bit_identical_to_scalar_reference) {
    // The vector legs use explicit mul/add with no FMA contraction, so
    // every level's sweep must reproduce the scalar reference
    // bit-for-bit, not merely within rounding. Each level the host
    // supports runs in turn, so an AVX-512 host still tests its AVX2
    // legs; where only the scalar loop exists the loop is a tautology
    // (the CI matrix pins at least one leg to each).
    const batch_round round = make_batch_round(48, 31);
    std::vector<cvec> scalar_spectra;
    {
        scoped_simd_cap cap(ns::channel::simd_level::scalar);
        scalar_spectra = batch_round_spectra(round, nullptr);
    }
    for (const ns::channel::simd_level level : supported_simd_levels()) {
        scoped_simd_cap cap(level);
        const std::string label =
            std::string(ns::channel::kernel_accumulate_backend()) + "/" +
            ns::channel::interpolate_bands_backend();
        expect_spectra_bit_identical(scalar_spectra,
                                     batch_round_spectra(round, nullptr),
                                     label.c_str());
    }
}

TEST(kernel_batch, interpolation_legs_match_scalar_reference_directly) {
    // Each leg against interpolate_bands_scalar over the paddings the
    // fast path uses (1, 3, 7 and 15 residues), narrow to wide FIRs,
    // and counts that leave 1, 2 and 3 q-lanes for the scalar tail of
    // the two- and four-lane loops.
    ns::util::rng rng(505);
    for (const ns::channel::simd_level level : supported_simd_levels()) {
        scoped_simd_cap cap(level);
        const char* leg = ns::channel::interpolate_bands_backend();
        for (const std::size_t pad : {2u, 4u, 8u, 16u}) {
            for (const std::size_t radius : {1u, 4u, 8u}) {
                const std::size_t taps = 2 * radius + 1;
                cvec coeffs((pad - 1) * taps);
                for (auto& c : coeffs) {
                    c = cplx{rng.gaussian(), rng.gaussian()};
                }
                for (const std::size_t count :
                     {1u, 2u, 3u, 4u, 61u, 62u, 63u, 64u}) {
                    cvec grid(count + 2 * radius);
                    for (auto& g : grid) {
                        g = cplx{rng.gaussian(), rng.gaussian()};
                    }
                    cvec expected(pad * count);
                    cvec actual(pad * count);
                    ns::channel::interpolate_bands_scalar(
                        expected.data(), pad, grid.data(), radius,
                        coeffs.data(), count);
                    ns::channel::interpolate_bands(actual.data(), pad,
                                                   grid.data(), radius,
                                                   coeffs.data(), count);
                    for (std::size_t i = 0; i < expected.size(); ++i) {
                        ASSERT_EQ(expected[i], actual[i])
                            << leg << ": pad " << pad << " radius " << radius
                            << " count " << count << " bin " << i;
                    }
                }
            }
        }
    }
}

TEST(kernel_batch, each_level_dispatches_its_own_interpolation_leg) {
    // Names the legs this host runs (the CI log shows them) and checks
    // the cap really switches legs: every supported level runs a
    // different interpolation loop, and scalar means scalar.
    std::vector<std::string> legs;
    for (const ns::channel::simd_level level : supported_simd_levels()) {
        scoped_simd_cap cap(level);
        legs.emplace_back(ns::channel::interpolate_bands_backend());
        std::cout << "level " << static_cast<int>(level) << ": accumulate "
                  << ns::channel::kernel_accumulate_backend()
                  << ", interpolate " << legs.back() << "\n";
    }
    EXPECT_EQ(legs.front(), "scalar");
    for (std::size_t i = 1; i < legs.size(); ++i) {
        EXPECT_NE(legs[i], legs[i - 1]);
    }
    scoped_simd_cap cap(ns::channel::simd_level::scalar);
    EXPECT_STREQ(ns::channel::kernel_accumulate_backend(), "scalar");
}

TEST(kernel_batch, intra_round_threads_are_bit_identical) {
    // Noise is seeded per (round, symbol) and placements are bucketed in
    // packet order, so the spectra must be element-wise bit-identical no
    // matter how symbol blocks land on threads — serial included.
    const batch_round round = make_batch_round(48, 32);
    const std::vector<cvec> serial = batch_round_spectra(round, nullptr);
    for (const std::size_t threads : {1ul, 2ul, 8ul}) {
        ns::engine::block_runner pool(threads);
        const std::vector<cvec> pooled = batch_round_spectra(round, &pool);
        expect_spectra_bit_identical(
            serial, pooled,
            threads == 1 ? "1 thread" : (threads == 2 ? "2 threads"
                                                      : "8 threads"));
    }
}

TEST(kernel_batch, warm_planner_allocates_nothing) {
    // The planning stage (window table growth, staging arrays, counting
    // sort, spectra/noise-grid sizing) owns every allocation of the fast
    // path; once the workspace is warm a whole round must run without
    // touching the heap — serial and fanned-out alike, since worker
    // threads only ever write into planner-sized buffers.
    const batch_round round = make_batch_round(64, 33);
    const ns::phy::css_params phy = ns::phy::deployed_params();
    ns::channel::channel_config chan;

    ns::channel::channel_workspace serial_ws;
    ns::util::rng rng(77);
    ns::channel::combine_symbol_domain(round.packets, phy, chan, round.sd,
                                       rng, serial_ws);
    ns::channel::combine_symbol_domain(round.packets, phy, chan, round.sd,
                                       rng, serial_ws);
    const std::size_t serial_before =
        g_allocations.load(std::memory_order_relaxed);
    ns::channel::combine_symbol_domain(round.packets, phy, chan, round.sd,
                                       rng, serial_ws);
    const std::size_t serial_after =
        g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(serial_after - serial_before, 0u);

    ns::engine::block_runner pool(4);
    ns::channel::channel_workspace pooled_ws;
    pooled_ws.block_pool = &pool;
    ns::channel::combine_symbol_domain(round.packets, phy, chan, round.sd,
                                       rng, pooled_ws);
    ns::channel::combine_symbol_domain(round.packets, phy, chan, round.sd,
                                       rng, pooled_ws);
    const std::size_t pooled_before =
        g_allocations.load(std::memory_order_relaxed);
    ns::channel::combine_symbol_domain(round.packets, phy, chan, round.sd,
                                       rng, pooled_ws);
    const std::size_t pooled_after =
        g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(pooled_after - pooled_before, 0u);
}

TEST(kernel_batch, cell_interpolation_matches_scalar_reference) {
    // Scattered cells, in batches of four and a remainder, must come out
    // as interpolate_bands_scalar writes the same cells of a contiguous
    // band: each padding the fast path uses, at every level.
    ns::util::rng rng(506);
    for (const ns::channel::simd_level level : supported_simd_levels()) {
        scoped_simd_cap cap(level);
        for (const std::size_t pad : {2u, 4u, 8u, 16u}) {
            const std::size_t radius = 4;
            const std::size_t taps = 2 * radius + 1;
            const std::size_t count = 64;
            cvec coeffs((pad - 1) * taps);
            for (auto& c : coeffs) c = cplx{rng.gaussian(), rng.gaussian()};
            cvec grid(count + 2 * radius);
            for (auto& g : grid) g = cplx{rng.gaussian(), rng.gaussian()};
            cvec band(pad * count);
            ns::channel::interpolate_bands_scalar(band.data(), pad, grid.data(), radius,
                                                  coeffs.data(), count);
            // Every third cell, then a run of neighbours, stored packed in
            // reverse order: 23 cells, so the last batch is partial.
            std::vector<ns::channel::grid_cell> cells;
            for (std::uint32_t q = 0; q < 51; q += 3) cells.push_back({q, 0});
            for (std::uint32_t q = 52; q < 58; ++q) cells.push_back({q, 0});
            for (std::size_t i = 0; i < cells.size(); ++i) {
                cells[i].at = static_cast<std::uint32_t>((cells.size() - 1 - i) * pad);
            }
            cvec packed(pad * cells.size());
            ns::channel::interpolate_cells(packed.data(), pad, grid.data(), radius,
                                           coeffs.data(), cells);
            for (const auto& cell : cells) {
                for (std::size_t r = 0; r < pad; ++r) {
                    ASSERT_EQ(packed[cell.at + r], band[pad * cell.q + r])
                        << ns::channel::interpolate_bands_backend() << ": pad " << pad
                        << " cell " << cell.q << " residue " << r;
                }
            }
        }
    }
}

// -------------------------------------------- payload power requests --

/// One fast-path round and the payload windows a decoder asks of it.
struct request_round {
    ns::phy::css_params phy = ns::phy::deployed_params();
    ns::channel::symbol_domain_params sd;
    std::vector<std::vector<std::uint8_t>> bits;
    std::vector<cvec> taps;
    std::vector<ns::channel::packet_contribution> packets;
    std::vector<std::uint32_t> lora_symbols;
    std::vector<ns::channel::interferer_contribution> interferers;
    std::vector<std::uint32_t> first;
    std::size_t width = 3;
};

/// `devices` packets SKIP bins apart from shift 0 at padding 4, with
/// random bits, timing and CFO; no windows yet.
request_round make_request_round(std::size_t devices, std::uint32_t skip,
                                 std::uint64_t seed) {
    request_round round;
    round.sd.zero_padding = 4;
    round.sd.payload_symbols = 12;
    ns::util::rng rng(seed);
    round.bits.resize(devices);
    round.packets.resize(devices);
    for (std::size_t d = 0; d < devices; ++d) {
        round.bits[d].resize(round.sd.payload_symbols);
        for (auto& bit : round.bits[d]) bit = static_cast<std::uint8_t>(rng() & 1);
        auto& packet = round.packets[d];
        packet.cyclic_shift =
            static_cast<std::uint32_t>(d * skip % round.phy.num_bins());
        packet.frame_bits = round.bits[d];
        packet.snr_db = 6.0;
        packet.timing_offset_s = rng.uniform(-1e-6, 1e-6);
        packet.frequency_offset_hz = rng.uniform(-50.0, 50.0);
    }
    return round;
}

/// Adds a window of round.width padded bins centred `offset` padded bins
/// from chip bin `shift`'s nominal location.
void add_window(request_round& round, std::uint32_t shift, std::ptrdiff_t offset) {
    const auto padded = static_cast<std::ptrdiff_t>(round.phy.num_bins() * round.sd.zero_padding);
    const std::ptrdiff_t first = static_cast<std::ptrdiff_t>(shift) *
                                     static_cast<std::ptrdiff_t>(round.sd.zero_padding) +
                                 offset - static_cast<std::ptrdiff_t>(round.width / 2);
    round.first.push_back(static_cast<std::uint32_t>((first % padded + padded) % padded));
}

/// The payload spectra of `round`: combine_symbol_domain, serial, at the
/// scalar level — the reference every request answer must equal.
std::vector<cvec> full_payload_spectra(const request_round& round) {
    scoped_simd_cap cap(ns::channel::simd_level::scalar);
    ns::channel::channel_workspace ws;
    ns::util::rng rng(808);
    ns::channel::combine_symbol_domain(round.packets, round.phy, ns::channel::channel_config{},
                                       round.sd, rng, ws, round.interferers);
    return ws.symbol_spectra;
}

/// Every requested window equals the same bins of the full spectra, bit
/// for bit, at each dispatch level and at 1, 3 and 4 round threads; the
/// preamble spectra equal the full ones.
void expect_request_matches_full(const request_round& round, const std::string& label) {
    const std::vector<cvec> full = full_payload_spectra(round);
    const std::size_t upchirps = round.sd.preamble_upchirps;
    const std::size_t symbols = round.sd.payload_symbols;
    const std::size_t padded = round.phy.num_bins() * round.sd.zero_padding;
    const ns::phy::power_windows windows{.first = round.first, .width = round.width};
    for (const ns::channel::simd_level level : supported_simd_levels()) {
        scoped_simd_cap cap(level);
        for (const std::size_t threads : {1ul, 3ul, 4ul}) {
            ns::engine::block_runner pool(threads);
            ns::channel::channel_workspace ws;
            if (threads > 1) ws.block_pool = &pool;
            ns::util::rng rng(808);
            ns::channel::superpose_symbol_domain(round.packets, round.phy,
                                                 ns::channel::channel_config{}, round.sd, rng,
                                                 ws, round.interferers);
            ns::channel::symbol_round received(ws);
            const std::string where = label + " at " +
                                      ns::channel::interpolate_bands_backend() + ", " +
                                      std::to_string(threads) + " round threads";
            const std::span<const cvec> preamble = received.preamble_spectra();
            ASSERT_EQ(preamble.size(), upchirps) << where;
            for (std::size_t k = 0; k < upchirps; ++k) {
                ASSERT_TRUE(preamble[k] == full[k]) << where << ": preamble " << k;
            }
            std::vector<double> power(symbols * windows.bins());
            received.payload_power(windows, power);
            for (std::size_t w = 0; w < round.first.size(); ++w) {
                for (std::size_t i = 0; i < symbols; ++i) {
                    for (std::size_t j = 0; j < round.width; ++j) {
                        const std::size_t bin = (round.first[w] + j) % padded;
                        ASSERT_EQ(power[(w * symbols + i) * round.width + j],
                                  std::norm(full[upchirps + i][bin]))
                            << where << ": window " << w << " symbol " << i << " bin " << bin;
                    }
                }
            }
        }
    }
}

TEST(payload_request, windows_wrapping_both_spectrum_edges_match_full_spectra) {
    // Shift 0 read below its nominal bin wraps past bin 0; the top shift
    // read above it wraps past the last padded bin.
    request_round round = make_request_round(64, 8, 41);
    round.packets.front().cyclic_shift = 0;
    round.packets.back().cyclic_shift = round.phy.num_bins() - 1;
    add_window(round, 0, -2);
    add_window(round, 0, 0);
    add_window(round, round.phy.num_bins() - 1, 2);
    add_window(round, round.phy.num_bins() - 1, 1);
    add_window(round, 200, 0);
    expect_request_matches_full(round, "edges");
}

TEST(payload_request, overlapping_skip2_windows_match_full_spectra) {
    // SKIP-2 neighbours locked at +3 and −3 share a padded bin; a dense
    // request (every slot, mixed offsets) merges into long spans.
    request_round round = make_request_round(256, 2, 42);
    ns::util::rng offsets(43);
    for (std::uint32_t s = 0; s < 512; s += 2) {
        const std::ptrdiff_t offset =
            s == 100 ? 3 : (s == 102 ? -3 : static_cast<std::ptrdiff_t>(offsets() % 7) - 3);
        add_window(round, s, offset);
    }
    expect_request_matches_full(round, "skip 2");
}

TEST(payload_request, interferers_match_full_spectra) {
    // A tone and a LoRa frame whose windows straddle symbol boundaries:
    // the frame's windows move with its symbol values, the tone's stay.
    request_round round = make_request_round(48, 8, 44);
    ns::channel::interferer_contribution tone;
    tone.snr_db = 10.0;
    tone.tone_hz = 80e3;
    round.interferers.push_back(tone);
    ns::util::rng rng(45);
    round.lora_symbols.resize(40);
    for (auto& v : round.lora_symbols) {
        v = static_cast<std::uint32_t>(rng() % round.phy.num_bins());
    }
    ns::channel::interferer_contribution frame;
    frame.type = ns::channel::interferer_contribution::kind::lora_frame;
    frame.snr_db = 10.0;
    frame.symbols = round.lora_symbols;
    frame.sample_delay = 137;
    frame.timing_offset_s = 0.37 / round.phy.bandwidth_hz;
    round.interferers.push_back(frame);
    for (std::uint32_t s = 0; s < round.phy.num_bins(); s += 8) {
        add_window(round, s, static_cast<std::ptrdiff_t>(rng() % 5) - 2);
    }
    expect_request_matches_full(round, "interferers");
}

TEST(payload_request, multipath_and_cochannel_rows_match_full_spectra) {
    // Enveloped windows (wider than the bare kernel), and foreign rows
    // displaced off the slot grid by a round misalignment.
    request_round round = make_request_round(40, 8, 46);
    ns::util::rng rng(47);
    round.taps.resize(20);
    for (std::size_t d = 0; d < round.taps.size(); ++d) {
        round.taps[d] = {cplx{0.9, 0.1}, cplx{rng.gaussian(0.0, 0.2), rng.gaussian(0.0, 0.2)},
                         cplx{0.0, 0.15}};
        round.packets[d].taps = round.taps[d];
    }
    for (std::size_t d = 30; d < round.packets.size(); ++d) {
        round.packets[d].cyclic_shift += 3;
        round.packets[d].timing_offset_s = rng.uniform(0.0, 40e-6);
        round.packets[d].frequency_offset_hz = 120.0;
    }
    for (std::size_t d = 0; d < 30; ++d) {
        add_window(round, round.packets[d].cyclic_shift,
                   static_cast<std::ptrdiff_t>(rng() % 7) - 3);
    }
    expect_request_matches_full(round, "multipath + co-channel");
}

TEST(payload_request, sampled_round_gathers_from_its_full_fft) {
    // The sample path answers the same request from dechirp + padded FFT
    // of each whole symbol: every window equals those spectra's bins.
    const ns::phy::css_params phy{.bandwidth_hz = 500e3, .spreading_factor = 8};
    const ns::phy::frame_format frame{.payload_bits = 8, .crc_bits = 8};
    const std::size_t symbols = frame.payload_plus_crc_bits();
    ns::util::rng rng(48);
    std::vector<std::vector<std::uint8_t>> bits(16, std::vector<std::uint8_t>(symbols));
    std::vector<ns::channel::packet_contribution> rows(bits.size());
    for (std::size_t d = 0; d < rows.size(); ++d) {
        for (auto& bit : bits[d]) bit = static_cast<std::uint8_t>(rng() & 1);
        rows[d].cyclic_shift = static_cast<std::uint32_t>(d * 16);
        rows[d].frame_bits = bits[d];
        rows[d].snr_db = 5.0;
    }
    const std::size_t n = phy.samples_per_symbol();
    ns::channel::channel_workspace ws;
    const cvec& capture =
        ns::channel::combine(rows, {}, (frame.preamble_symbols + symbols) * n, phy,
                             ns::channel::channel_config{}, rng, ws);
    const ns::phy::demodulator demod(phy, 4);
    ns::rx::sampled_round received;
    received.bind(demod, capture, 0, frame);
    const std::vector<std::uint32_t> first = {1022, 0, 61, 62, 509};
    const ns::phy::power_windows windows{.first = first, .width = 3};
    std::vector<double> power(symbols * windows.bins());
    received.payload_power(windows, power);
    const std::span<const cvec> preamble = received.preamble_spectra();
    ASSERT_EQ(preamble.size(), ns::phy::distributed_modulator::preamble_upchirps);
    for (std::size_t k = 0; k < preamble.size(); ++k) {
        cvec expected;
        demod.symbol_spectrum_into(std::span<const cplx>(capture).subspan(k * n, n), expected);
        ASSERT_TRUE(preamble[k] == expected) << "preamble " << k;
    }
    for (std::size_t i = 0; i < symbols; ++i) {
        cvec spectrum;
        demod.symbol_spectrum_into(
            std::span<const cplx>(capture).subspan((frame.preamble_symbols + i) * n, n),
            spectrum);
        for (std::size_t w = 0; w < first.size(); ++w) {
            for (std::size_t j = 0; j < windows.width; ++j) {
                ASSERT_EQ(power[(w * symbols + i) * windows.width + j],
                          std::norm(spectrum[(first[w] + j) % spectrum.size()]))
                    << "symbol " << i << " window " << w;
            }
        }
    }
}

TEST(payload_request, one_request_per_superposed_round) {
    // The request packs the round's windows down to the requested bins,
    // so a second request of the same round is refused, not answered
    // from the packed windows.
    request_round round = make_request_round(8, 8, 49);
    add_window(round, 0, 0);
    ns::channel::channel_workspace ws;
    ns::util::rng rng(1);
    ns::channel::superpose_symbol_domain(round.packets, round.phy,
                                         ns::channel::channel_config{}, round.sd, rng, ws);
    ns::channel::symbol_round received(ws);
    const ns::phy::power_windows windows{.first = round.first, .width = round.width};
    std::vector<double> power(round.sd.payload_symbols * windows.bins());
    received.payload_power(windows, power);
    EXPECT_THROW(received.payload_power(windows, power), std::exception);
}

TEST(fast_path_allocations, warm_requests_allocate_nothing) {
    // Superpose + request, three rounds on one workspace: the third
    // allocates nothing, serial and at four round threads.
    request_round round = make_request_round(96, 4, 50);
    for (std::uint32_t s = 0; s < 384; s += 4) add_window(round, s, 1);
    const ns::phy::power_windows windows{.first = round.first, .width = round.width};
    std::vector<double> power(round.sd.payload_symbols * windows.bins());
    for (const std::size_t threads : {1ul, 4ul}) {
        ns::engine::block_runner pool(threads);
        ns::channel::channel_workspace ws;
        if (threads > 1) ws.block_pool = &pool;
        ns::channel::symbol_round received(ws);
        ns::util::rng rng(3);
        std::size_t before = 0;
        for (int r = 0; r < 3; ++r) {
            before = g_allocations.load(std::memory_order_relaxed);
            ns::channel::superpose_symbol_domain(round.packets, round.phy,
                                                 ns::channel::channel_config{}, round.sd, rng,
                                                 ws);
            received.payload_power(windows, power);
        }
        EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
            << threads << " round threads";
    }
}

TEST(fast_path_allocations, pooled_rounds_report_zero_steady_state_allocations) {
    // The simulator's own metering at four round threads: the payload
    // requests fan out over the pool with buffers sized before the join.
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 64, 9);
    ns::sim::sim_config config;
    config.rounds = 12;
    config.seed = 4;
    config.zero_padding = 4;
    config.intra_round_threads = 4;
    config.fidelity = ns::sim::phy_fidelity::symbol;
    ns::sim::network_simulator sim(dep, config);
    const ns::sim::sim_result result = sim.run();
    EXPECT_EQ(result.metrics.counter_value("alloc.steady_count"), 0u)
        << "steady-state rounds allocated "
        << result.metrics.counter_value("alloc.steady_bytes") << " bytes";
}

TEST(kernel_batch, simulator_thread_counts_agree_exactly) {
    // End-to-end flavour of the same contract: a full simulator run with
    // intra_round_threads = 8 must reproduce the serial run's outcome
    // numbers exactly (same RNG stream, bit-identical spectra, same
    // decoder decisions).
    auto run_with_threads = [](std::size_t threads) {
        const ns::sim::deployment dep(ns::sim::deployment_params{}, 48, 21);
        ns::sim::sim_config config;
        config.rounds = 4;
        config.seed = 6;
        config.zero_padding = 4;
        config.fidelity = ns::sim::phy_fidelity::symbol;
        config.intra_round_threads = threads;
        ns::sim::network_simulator sim(dep, config);
        return sim.run();
    };
    const ns::sim::sim_result serial = run_with_threads(1);
    const ns::sim::sim_result pooled = run_with_threads(8);
    EXPECT_DOUBLE_EQ(serial.delivery_rate(), pooled.delivery_rate());
    EXPECT_DOUBLE_EQ(serial.ber(), pooled.ber());
    EXPECT_EQ(serial.fast_path_rounds, pooled.fast_path_rounds);
}

}  // namespace
