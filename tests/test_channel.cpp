// Unit tests for ns::channel — AWGN, path loss, impairments, fading,
// superposition.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <numbers>
#include <span>

#include "netscatter/channel/awgn.hpp"
#include "netscatter/channel/fading.hpp"
#include "netscatter/channel/impairments.hpp"
#include "netscatter/channel/pathloss.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/dsp/peak.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/demodulator.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/stats.hpp"

namespace {

using namespace ns::channel;
using ns::dsp::cplx;
using ns::dsp::cvec;

// --------------------------------------------------------------- awgn --

TEST(awgn, noise_power_matches_request) {
    ns::util::rng gen(1);
    const cvec noise = make_noise(100000, 2.5, gen);
    EXPECT_NEAR(ns::dsp::mean_power(noise), 2.5, 0.05);
}

TEST(awgn, noise_is_circular) {
    ns::util::rng gen(2);
    const cvec noise = make_noise(100000, 1.0, gen);
    ns::util::running_stats re, im;
    for (const auto& s : noise) {
        re.add(s.real());
        im.add(s.imag());
    }
    EXPECT_NEAR(re.variance(), 0.5, 0.02);
    EXPECT_NEAR(im.variance(), 0.5, 0.02);
    EXPECT_NEAR(re.mean(), 0.0, 0.02);
}

TEST(awgn, add_noise_for_unit_signal_snr) {
    ns::util::rng gen(3);
    cvec signal(50000, cplx{0.0, 0.0});
    add_noise_for_unit_signal_snr(signal, -10.0, gen);  // noise power 10
    EXPECT_NEAR(ns::dsp::mean_power(signal), 10.0, 0.3);
}

TEST(awgn, noise_power_for_snr_formula) {
    EXPECT_NEAR(noise_power_for_snr(1.0, 20.0), 0.01, 1e-12);
    EXPECT_NEAR(noise_power_for_snr(4.0, -3.0103), 8.0, 1e-3);
}

// ----------------------------------------------------------- pathloss --

TEST(pathloss, increases_with_distance_and_walls) {
    const pathloss_params p{};
    EXPECT_LT(oneway_loss_db(p, 5.0, 0), oneway_loss_db(p, 10.0, 0));
    EXPECT_LT(oneway_loss_db(p, 10.0, 0), oneway_loss_db(p, 10.0, 2));
    EXPECT_NEAR(oneway_loss_db(p, 10.0, 2) - oneway_loss_db(p, 10.0, 0),
                2.0 * p.wall_loss_db, 1e-12);
}

TEST(pathloss, reference_distance_clamps) {
    const pathloss_params p{};
    EXPECT_DOUBLE_EQ(oneway_loss_db(p, 0.5, 0), oneway_loss_db(p, 1.0, 0));
    EXPECT_THROW(oneway_loss_db(p, 0.0, 0), ns::util::invalid_argument);
}

TEST(pathloss, exponent_sets_slope_per_decade) {
    pathloss_params p{};
    p.exponent = 3.0;
    EXPECT_NEAR(oneway_loss_db(p, 100.0, 0) - oneway_loss_db(p, 10.0, 0), 30.0, 1e-9);
}

TEST(pathloss, backscatter_is_roundtrip_plus_conversion) {
    const pathloss_params p{};
    const double oneway = oneway_loss_db(p, 12.0, 1);
    EXPECT_NEAR(backscatter_loss_db(p, 12.0, 1, 6.0), 2.0 * oneway + 6.0, 1e-12);
}

TEST(pathloss, rx_power_budget) {
    // 30 dBm AP, -4 dB gain, 140 dB round trip -> -114 dBm at the AP.
    EXPECT_NEAR(backscatter_rx_power_dbm(30.0, -4.0, 140.0), -114.0, 1e-12);
}

TEST(pathloss, shadowing_produces_spread) {
    pathloss_params p{};
    p.shadowing_sigma_db = 3.0;
    ns::util::rng gen(4);
    ns::util::running_stats stats;
    for (int i = 0; i < 5000; ++i) stats.add(oneway_loss_db(p, 10.0, 0, gen));
    EXPECT_NEAR(stats.stddev(), 3.0, 0.2);
    EXPECT_NEAR(stats.mean(), oneway_loss_db(p, 10.0, 0), 0.2);
}

// -------------------------------------------------------- impairments --

TEST(impairments, hardware_delay_bounded) {
    const hardware_delay_model model{};
    ns::util::rng gen(5);
    for (int i = 0; i < 10000; ++i) {
        const double d = model.sample_s(gen);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, model.max_us * 1e-6);
    }
}

TEST(impairments, hardware_delay_can_exceed_one_bin) {
    // §3.2.1: delays up to 3.5 us exceed one FFT bin at 500 kHz (2 us).
    hardware_delay_model model{.mean_us = 3.0, .sigma_us = 0.5, .max_us = 3.5};
    ns::util::rng gen(6);
    int above_one_bin = 0;
    for (int i = 0; i < 1000; ++i) {
        if (model.sample_s(gen) > 2e-6) ++above_one_bin;
    }
    EXPECT_GT(above_one_bin, 900);
}

TEST(impairments, crystal_offset_within_ppm_bound) {
    const crystal_model model{.tolerance_ppm = 50.0, .operating_frequency_hz = 3e6};
    ns::util::rng gen(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LE(std::abs(model.sample_static_offset_hz(gen)), 150.0 + 1e-9);
    }
}

TEST(impairments, backscatter_offsets_90x_smaller_than_radio) {
    // §2.2: same crystal, 900 MHz radio vs <=10 MHz backscatter baseband.
    const crystal_model radio{.tolerance_ppm = 10.0, .operating_frequency_hz = 900e6};
    const crystal_model tag{.tolerance_ppm = 10.0, .operating_frequency_hz = 3e6};
    ns::util::rng gen(8);
    ns::util::running_stats radio_stats, tag_stats;
    for (int i = 0; i < 2000; ++i) {
        radio_stats.add(std::abs(radio.sample_static_offset_hz(gen)));
        tag_stats.add(std::abs(tag.sample_static_offset_hz(gen)));
    }
    EXPECT_NEAR(radio_stats.mean() / tag_stats.mean(), 300.0, 30.0);
}

TEST(impairments, doppler_matches_paper_example) {
    // §4.2: 10 m/s at 900 MHz -> 30 Hz.
    EXPECT_NEAR(doppler_shift_hz(10.0, 900e6), 30.0, 0.1);
}

TEST(impairments, sampled_doppler_bounded_by_speed) {
    ns::util::rng gen(9);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LE(std::abs(sample_doppler_hz(5.0, 900e6, gen)),
                  doppler_shift_hz(5.0, 900e6) + 1e-9);
    }
}

TEST(impairments, multipath_taps_unit_power) {
    const multipath_model model{};
    ns::util::rng gen(10);
    ns::util::running_stats stats;
    for (int i = 0; i < 3000; ++i) {
        stats.add(ns::dsp::energy(model.sample_taps(500e3, gen)));
    }
    EXPECT_NEAR(stats.mean(), 1.0, 0.05);
}

TEST(impairments, multipath_single_tap_is_identity_up_to_gain) {
    cvec taps = {cplx{0.5, 0.0}};
    const cvec signal = {cplx{1, 0}, cplx{2, 0}, cplx{3, 0}};
    const cvec out = apply_multipath(signal, taps);
    for (std::size_t i = 0; i < signal.size(); ++i) {
        EXPECT_NEAR(std::abs(out[i] - 0.5 * signal[i]), 0.0, 1e-12);
    }
}

TEST(impairments, equivalent_tone_shift_composition) {
    const ns::phy::css_params p = ns::phy::deployed_params();
    // 2 us timing = 1 bin = 976.5625 Hz; 976.5625 Hz CFO = 1 bin more.
    EXPECT_NEAR(equivalent_tone_shift_hz(p, 2e-6, 0.0), 976.5625, 1e-3);
    EXPECT_NEAR(equivalent_tone_shift_hz(p, 2e-6, 976.5625), 2.0 * 976.5625, 1e-3);
    EXPECT_NEAR(equivalent_tone_shift_hz(p, 0.0, -976.5625), -976.5625, 1e-3);
}

TEST(impairments, tone_shift_displaces_decoded_bin) {
    // End-to-end: a +2-bin equivalent shift moves the decoded peak by 2.
    const ns::phy::css_params p = ns::phy::deployed_params();
    const ns::phy::demodulator demod(p, 1);
    cvec symbol = ns::phy::make_upchirp(p, 100.0);
    const double tone = equivalent_tone_shift_hz(p, 4e-6, 0.0);  // 2 bins
    symbol = ns::dsp::frequency_shift(symbol, tone, p.bandwidth_hz);
    const auto power = demod.symbol_power_spectrum(symbol);
    EXPECT_EQ(ns::dsp::argmax(power), 102u);
}

TEST(impairments, tap_powers_decompose_sample_taps) {
    const multipath_model model{};
    const std::vector<double> powers = model.tap_powers(500e3);
    ASSERT_EQ(powers.size(), static_cast<std::size_t>(model.num_taps) + 1);
    double total = 0.0;
    for (const double p : powers) total += p;
    EXPECT_NEAR(total, 1.0, 1e-12);
    // LoS fraction follows the Rician K factor.
    const double k_linear = std::pow(10.0, model.rician_k_db / 10.0);
    EXPECT_NEAR(powers[0], k_linear / (1.0 + k_linear), 1e-12);

    // With no scattered taps the LoS carries everything: the profile
    // stays unit-power at every tap count.
    multipath_model los_only;
    los_only.num_taps = 0;
    const std::vector<double> los_powers = los_only.tap_powers(500e3);
    ASSERT_EQ(los_powers.size(), 1u);
    EXPECT_NEAR(los_powers[0], 1.0, 1e-12);
}

// ----------------------------------------------------- tap delay line --

TEST(tap_delay_line, stationary_unit_power_and_fixed_los) {
    const multipath_model model{};
    ns::util::rng gen(11);
    ns::util::running_stats energy;
    const tap_profile profile(model, 500e3, 0.9);
    tap_delay_line line(profile, gen.fork());
    const cplx los = line.current()[0];
    for (int round = 0; round < 4000; ++round) {
        const auto taps = line.next();
        EXPECT_EQ(taps[0], los);  // the specular path does not fade
        energy.add(ns::dsp::energy(cvec(taps.begin(), taps.end())));
    }
    EXPECT_NEAR(energy.mean(), 1.0, 0.05);
}

TEST(tap_delay_line, scattered_taps_decorrelate_at_rho) {
    // Ensemble one-step correlation of a scattered tap must track the
    // configured rho (real parts; the AR(1) acts per component).
    const multipath_model model{};
    const double rho = 0.7;
    const tap_profile profile(model, 500e3, rho);
    ns::util::rng gen(12);
    double num = 0.0;
    double den = 0.0;
    for (int device = 0; device < 4000; ++device) {
        tap_delay_line line(profile, gen.fork());
        const double before = line.current()[1].real();
        const double after = line.next()[1].real();
        num += before * after;
        den += before * before;
    }
    EXPECT_NEAR(num / den, rho, 0.05);
}

TEST(superposition, explicit_unit_tap_matches_flat_channel) {
    // A single unit LoS tap is the identity channel: combine() through
    // the explicit-taps path must reproduce the flat-channel result
    // exactly (same RNG consumption, identity convolution).
    const ns::phy::css_params phy{.bandwidth_hz = 500e3, .spreading_factor = 7};
    const ns::phy::distributed_modulator mod(phy, 12);
    const cvec waveform = mod.modulate_packet({true, false, true, true});

    const cvec unit_taps{cplx{1.0, 0.0}};
    for (const double tone_offset_s : {0.0, 1.3e-6}) {
        tx_contribution flat;
        flat.waveform = std::span<const ns::dsp::cplx>(waveform);
        flat.snr_db = 10.0;
        flat.timing_offset_s = tone_offset_s;
        tx_contribution tapped = flat;
        tapped.taps = unit_taps;

        channel_config config;
        ns::util::rng rng_a(33);
        ns::util::rng rng_b(33);
        channel_workspace ws_a, ws_b;
        const cvec flat_rx =
            combine(std::span<const tx_contribution>(&flat, 1), waveform.size(),
                    phy, config, rng_a, ws_a);
        const cvec tapped_rx =
            combine(std::span<const tx_contribution>(&tapped, 1),
                    waveform.size(), phy, config, rng_b, ws_b);
        ASSERT_EQ(flat_rx.size(), tapped_rx.size());
        double max_error = 0.0;
        for (std::size_t i = 0; i < flat_rx.size(); ++i) {
            max_error = std::max(max_error, std::abs(flat_rx[i] - tapped_rx[i]));
        }
        EXPECT_LT(max_error, 1e-9) << "tone offset " << tone_offset_s;
    }
}

// ------------------------------------------------------------- fading --

TEST(fading, stationary_standard_deviation) {
    const fading_params params{.sigma_db = 2.0, .rho = 0.9};
    gauss_markov_fading fading(params, ns::util::rng(11));
    ns::util::running_stats stats;
    for (int i = 0; i < 200000; ++i) stats.add(fading.next_db());
    EXPECT_NEAR(stats.stddev(), 2.0, 0.15);
    EXPECT_NEAR(stats.mean(), 0.0, 0.15);
}

TEST(fading, high_rho_is_smooth) {
    const fading_params smooth_params{.sigma_db = 2.0, .rho = 0.99};
    const fading_params rough_params{.sigma_db = 2.0, .rho = 0.0};
    gauss_markov_fading smooth(smooth_params, ns::util::rng(12));
    gauss_markov_fading rough(rough_params, ns::util::rng(12));
    ns::util::running_stats smooth_steps, rough_steps;
    double prev_smooth = smooth.current_db();
    double prev_rough = rough.current_db();
    for (int i = 0; i < 20000; ++i) {
        const double s = smooth.next_db();
        const double r = rough.next_db();
        smooth_steps.add(std::abs(s - prev_smooth));
        rough_steps.add(std::abs(r - prev_rough));
        prev_smooth = s;
        prev_rough = r;
    }
    EXPECT_LT(smooth_steps.mean(), rough_steps.mean() / 3.0);
}

TEST(fading, validates_parameters) {
    const fading_params negative_sigma{.sigma_db = -1.0, .rho = 0.5};
    const fading_params unit_rho{.sigma_db = 1.0, .rho = 1.0};
    EXPECT_THROW(gauss_markov_fading(negative_sigma, ns::util::rng(1)),
                 ns::util::invalid_argument);
    EXPECT_THROW(gauss_markov_fading(unit_rho, ns::util::rng(1)),
                 ns::util::invalid_argument);
}

TEST(fading, skip_one_matches_step_exactly) {
    // skip(1) is the k=1 special case of the exact transition and draws
    // the same innovation as next_db, so from identical state the two
    // must agree bit for bit. skip(0) must not touch the rng.
    const fading_params params{.sigma_db = 2.0, .rho = 0.9};
    gauss_markov_fading stepped(params, ns::util::rng(21));
    gauss_markov_fading skipped(params, ns::util::rng(21));
    for (int i = 0; i < 10; ++i) {
        const double via_step = stepped.next_db();
        skipped.skip(0);
        skipped.skip(1);
        EXPECT_EQ(via_step, skipped.current_db());
    }
}

TEST(fading, skip_matches_stepped_distribution) {
    // The k-step transition g[k] | g[0] ~ N(rho^k g[0], sigma^2(1-rho^2k))
    // must reproduce the distribution of k individual steps: same
    // stationary moments and the same lag-k autocorrelation rho^k.
    const double sigma = 2.0;
    const double rho = 0.9;
    const std::uint64_t k = 7;
    const double rho_k = std::pow(rho, static_cast<double>(k));
    ns::util::running_stats stepped_stats, skipped_stats;
    double stepped_corr = 0.0, skipped_corr = 0.0;
    const int trials = 50000;
    const fading_params params{.sigma_db = sigma, .rho = rho};
    gauss_markov_fading stepped(params, ns::util::rng(22));
    gauss_markov_fading skipped(params, ns::util::rng(23));
    for (int i = 0; i < trials; ++i) {
        const double s0 = stepped.current_db();
        for (std::uint64_t j = 0; j < k; ++j) stepped.next_db();
        stepped_stats.add(stepped.current_db());
        stepped_corr += s0 * stepped.current_db();

        const double q0 = skipped.current_db();
        skipped.skip(k);
        skipped_stats.add(skipped.current_db());
        skipped_corr += q0 * skipped.current_db();
    }
    stepped_corr /= trials * sigma * sigma;
    skipped_corr /= trials * sigma * sigma;
    EXPECT_NEAR(skipped_stats.mean(), stepped_stats.mean(), 0.1);
    EXPECT_NEAR(skipped_stats.stddev(), stepped_stats.stddev(), 0.1);
    EXPECT_NEAR(stepped_corr, rho_k, 0.05);
    EXPECT_NEAR(skipped_corr, rho_k, 0.05);
}

TEST(fading, tap_line_skip_matches_stepped_distribution) {
    // Same contract per scattered tap: after skip(k) each tap is still
    // CN(0, p_i) with lag-k correlation rho^k, and the LoS tap is
    // untouched.
    const multipath_model model{};
    const double rho = 0.8;
    const std::uint64_t k = 5;
    const double rho_k = std::pow(rho, static_cast<double>(k));
    const tap_profile profile(model, 500e3, rho);
    tap_delay_line line(profile, ns::util::rng(24));
    const std::size_t num_taps = line.current().size();
    ASSERT_GT(num_taps, 1u);
    const cplx los = line.current()[0];
    std::vector<double> power(num_taps, 0.0), corr(num_taps, 0.0);
    const int trials = 20000;
    std::vector<cplx> before(num_taps);
    for (int i = 0; i < trials; ++i) {
        const auto taps0 = line.current();
        std::copy(taps0.begin(), taps0.end(), before.begin());
        line.skip(k);
        const auto taps = line.current();
        for (std::size_t t = 1; t < num_taps; ++t) {
            power[t] += std::norm(taps[t]);
            corr[t] += (before[t] * std::conj(taps[t])).real();
        }
    }
    EXPECT_EQ(line.current()[0], los);
    // Check the strongest scattered tap (later taps carry little power
    // and need far more trials for tight relative bands).
    const double p1 = model.tap_powers(500e3)[1];
    EXPECT_NEAR(power[1] / trials, p1, 0.05 * p1 + 0.01);
    EXPECT_NEAR(corr[1] / (trials * p1), rho_k, 0.05);
}

// ------------------------------------------------------ superposition --

TEST(superposition, single_device_snr_realized) {
    const ns::phy::css_params p = ns::phy::deployed_params();
    ns::util::rng gen(13);
    tx_contribution tx;
    const cvec waveform = ns::phy::make_upchirp(p, 50.0);
    tx.waveform = std::span<const ns::dsp::cplx>(waveform);
    tx.snr_db = 20.0;
    tx.random_phase = false;
    channel_config config;
    config.noise_power = 1.0;
    channel_workspace ws;
    const cvec rx = combine(std::span<const tx_contribution>(&tx, 1),
                            tx.waveform.size(), p, config, gen, ws);
    // Received power ~= signal (100) + noise (1).
    EXPECT_NEAR(ns::dsp::mean_power(rx), 101.0, 5.0);
}

TEST(superposition, two_devices_decodable_at_distinct_bins) {
    const ns::phy::css_params p = ns::phy::deployed_params();
    const ns::phy::demodulator demod(p, 1);
    ns::util::rng gen(14);
    tx_contribution a, b;
    const cvec wave_a = ns::phy::make_upchirp(p, 10.0);
    const cvec wave_b = ns::phy::make_upchirp(p, 300.0);
    a.waveform = std::span<const ns::dsp::cplx>(wave_a);
    a.snr_db = 10.0;
    b.waveform = std::span<const ns::dsp::cplx>(wave_b);
    b.snr_db = 10.0;
    channel_config config;
    const std::array<tx_contribution, 2> txs{a, b};
    channel_workspace ws;
    const cvec rx = combine(std::span<const tx_contribution>(txs),
                            a.waveform.size(), p, config, gen, ws);
    const auto power = demod.symbol_power_spectrum(rx);
    const double noise_ref = power[150];
    EXPECT_GT(power[10], 50.0 * noise_ref);
    EXPECT_GT(power[300], 50.0 * noise_ref);
}

TEST(superposition, timing_offset_moves_peak) {
    const ns::phy::css_params p = ns::phy::deployed_params();
    const ns::phy::demodulator demod(p, 1);
    ns::util::rng gen(15);
    tx_contribution tx;
    const cvec waveform = ns::phy::make_upchirp(p, 100.0);
    tx.waveform = std::span<const ns::dsp::cplx>(waveform);
    tx.snr_db = 30.0;
    tx.timing_offset_s = 4e-6;  // exactly 2 bins at 500 kHz
    channel_config config;
    channel_workspace ws;
    const cvec rx = combine(std::span<const tx_contribution>(&tx, 1),
                            tx.waveform.size(), p, config, gen, ws);
    const auto power = demod.symbol_power_spectrum(rx);
    EXPECT_EQ(ns::dsp::argmax(power), 102u);
}

TEST(superposition, sample_delay_shifts_waveform) {
    const ns::phy::css_params p = ns::phy::deployed_params();
    ns::util::rng gen(16);
    tx_contribution tx;
    const cvec waveform(10, cplx{1.0, 0.0});
    tx.waveform = std::span<const ns::dsp::cplx>(waveform);
    // SNR is relative to the configured noise power: 120 dB over 1e-6
    // noise gives signal power 1e6 (amplitude 1000).
    tx.snr_db = 120.0;
    tx.random_phase = false;
    tx.sample_delay = 5;
    channel_config config;
    config.noise_power = 1e-6;
    channel_workspace ws;
    const cvec rx = combine(std::span<const tx_contribution>(&tx, 1), 20, p,
                            config, gen, ws);
    EXPECT_LT(std::abs(rx[4]), 1.0);
    EXPECT_GT(std::abs(rx[5]), 900.0);
    EXPECT_GT(std::abs(rx[14]), 900.0);
    EXPECT_LT(std::abs(rx[15]), 1.0);
}

TEST(superposition, empty_contributions_is_pure_noise) {
    const ns::phy::css_params p = ns::phy::deployed_params();
    ns::util::rng gen(17);
    channel_config config;
    config.noise_power = 4.0;
    channel_workspace ws;
    const cvec rx = combine(std::span<const tx_contribution>{}, 10000, p,
                            config, gen, ws);
    EXPECT_NEAR(ns::dsp::mean_power(rx), 4.0, 0.3);
}

TEST(superposition, workspace_reuse_is_bit_identical_to_fresh_workspace) {
    // The workspace form reuses the received buffer across rounds; a
    // warm workspace's samples must be bit-identical to a fresh one
    // given the same RNG stream — including the shifted and multipath
    // staging paths.
    const ns::phy::css_params p = ns::phy::deployed_params();
    const cvec wave_a = ns::phy::make_upchirp(p, 40.0);
    const cvec wave_b = ns::phy::make_upchirp(p, 200.0);
    tx_contribution a, b;
    a.waveform = std::span<const ns::dsp::cplx>(wave_a);
    a.snr_db = 12.0;
    a.timing_offset_s = 0.7e-6;  // exercises the fused shifted path
    b.waveform = std::span<const ns::dsp::cplx>(wave_b);
    b.snr_db = 3.0;
    b.sample_delay = 11;
    ns::util::rng tap_gen(5);
    const multipath_model model;
    const cvec taps_a = model.sample_taps(p.bandwidth_hz, tap_gen);
    const cvec taps_b = model.sample_taps(p.bandwidth_hz, tap_gen);

    for (const bool multipath : {false, true}) {
        std::vector<tx_contribution> txs = {a, b};
        if (multipath) {
            txs[0].taps = taps_a;
            txs[1].taps = taps_b;
        }
        const channel_config config;
        ns::util::rng gen_fresh(23);
        channel_workspace fresh_ws;
        const cvec fresh = combine(std::span<const tx_contribution>(txs),
                                   wave_a.size() + 32, p, config, gen_fresh,
                                   fresh_ws);

        ns::util::rng gen_ws(23);
        channel_workspace workspace;
        // Run twice: the second round reuses warm buffers and must not
        // be polluted by the first.
        combine(std::span<const tx_contribution>(txs), wave_a.size() + 32, p,
                config, gen_ws, workspace);
        ns::util::rng gen_ws2(23);
        const cvec& reused = combine(std::span<const tx_contribution>(txs),
                                     wave_a.size() + 32, p, config, gen_ws2,
                                     workspace);
        ASSERT_EQ(fresh.size(), reused.size());
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            ASSERT_EQ(fresh[i], reused[i]) << "sample " << i
                                           << " multipath " << multipath;
        }
    }
}

TEST(superposition, fused_accumulate_matches_staged_sequence) {
    // accumulate_scaled_shifted must be bit-identical to the historic
    // frequency_shift -> scale -> accumulate_at staging it replaced.
    ns::util::rng gen(29);
    cvec source(3000);
    for (auto& v : source) v = cplx{gen.gaussian(), gen.gaussian()};
    const cplx gain{0.8, -0.3};
    const double tone_hz = 173.0;
    const double fs = 500e3;

    cvec staged = ns::dsp::frequency_shift(source, tone_hz, fs);
    ns::dsp::scale(staged, gain);
    cvec expected(3100, cplx{0.0, 0.0});
    ns::dsp::accumulate_at(expected, staged, 17);

    cvec fused(3100, cplx{0.0, 0.0});
    ns::dsp::accumulate_scaled_shifted(fused, source, gain, tone_hz, fs, 17);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i], fused[i]) << "sample " << i;
    }
}

namespace {

/// The historic accumulate, written out sample by sample: the reference
/// the dense loops must equal. At tone 0 it is the plain scaled add;
/// otherwise the one-chain phasor, re-anchored every 1024 samples.
void one_chain_shifted_accumulate(cvec& a, std::span<const cplx> b, cplx gain,
                                  double tone_hz, double fs, std::size_t offset) {
    if (offset >= a.size()) return;
    const std::size_t count = std::min(b.size(), a.size() - offset);
    if (tone_hz == 0.0) {
        for (std::size_t i = 0; i < count; ++i) a[offset + i] += b[i] * gain;
        return;
    }
    const double step = 2.0 * std::numbers::pi * tone_hz / fs;
    const cplx rotation = std::polar(1.0, step);
    cplx phasor{1.0, 0.0};
    for (std::size_t i = 0; i < count; ++i) {
        if (i % 1024 == 0) phasor = std::polar(1.0, step * static_cast<double>(i));
        a[offset + i] += (b[i] * phasor) * gain;
        phasor *= rotation;
    }
}

bool same_bits(const cvec& x, const cvec& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(cplx)) == 0;
}

}  // namespace

TEST(superposition, shifted_accumulate_matches_one_chain_bit_for_bit) {
    // A packet (distributed_modulator's layout: 6 upchirps, 2 downchirps,
    // one ON-OFF symbol per bit) through the dense loops must equal the
    // historic one-chain loop, for symbols shorter and longer than the
    // 1024-sample re-anchor block and captures that cut the packet off
    // mid-block.
    using modulator = ns::phy::distributed_modulator;
    ns::util::rng gen(41);
    const cplx gain{0.8, -0.3};
    for (int sf = 7; sf <= 12; ++sf) {
        const ns::phy::css_params p{.bandwidth_hz = 500e3, .spreading_factor = sf};
        const std::size_t n = p.samples_per_symbol();
        const modulator mod(p, 3 * static_cast<std::uint32_t>(sf));
        const std::size_t bits_count = sf <= 9 ? 21 : 5;
        std::vector<bool> random_bits(bits_count);
        for (std::size_t i = 0; i < bits_count; ++i) random_bits[i] = gen.bernoulli(0.5);
        for (const std::vector<bool>& bits :
             {std::vector<bool>(bits_count, true), std::vector<bool>(bits_count, false),
              random_bits}) {
            const cvec rendered = mod.modulate_packet(bits);
            const std::size_t packet = rendered.size();
            // Longer than the packet, one symbol plus 37 samples short of
            // it, and a cut inside the preamble; none a multiple of 1024.
            for (const std::size_t capture : {packet + 45, packet - n - 37, 5 * n / 2 + 3}) {
                for (const double tone_hz : {0.0, 173.0, -2210.5}) {
                    cvec base(capture);
                    for (auto& v : base) v = cplx{gen.gaussian(), gen.gaussian()};
                    const std::size_t offset = 11;
                    cvec dense = base;
                    cvec reference = base;
                    if (tone_hz == 0.0) {
                        ns::dsp::accumulate_scaled(dense, rendered, gain, offset);
                    } else {
                        ns::dsp::accumulate_scaled_shifted(dense, rendered, gain, tone_hz,
                                                           p.bandwidth_hz, offset);
                    }
                    one_chain_shifted_accumulate(reference, rendered, gain, tone_hz,
                                                 p.bandwidth_hz, offset);
                    EXPECT_TRUE(same_bits(dense, reference))
                        << "SF" << sf << " capture " << capture << " tone " << tone_hz;
                }
            }
        }
    }
}

TEST(superposition, frequency_shift_matches_one_chain_recurrence) {
    // frequency_shift shares the re-anchored phasor recurrence; it must
    // equal the historic one-chain loop (a tail block of 904 samples).
    ns::util::rng gen(43);
    cvec source(5000);
    for (auto& v : source) v = cplx{gen.gaussian(), gen.gaussian()};
    const double step = 2.0 * std::numbers::pi * 917.0 / 500e3;
    const cplx rotation = std::polar(1.0, step);
    cvec reference(source.size());
    cplx phasor{1.0, 0.0};
    for (std::size_t i = 0; i < source.size(); ++i) {
        if (i % 1024 == 0) phasor = std::polar(1.0, step * static_cast<double>(i));
        reference[i] = source[i] * phasor;
        phasor *= rotation;
    }
    EXPECT_TRUE(same_bits(ns::dsp::frequency_shift(source, 917.0, 500e3), reference));
}

TEST(superposition, row_combine_matches_rendered_rows) {
    // combine() over packet rows must equal combine() over the same rows
    // rendered with modulate_packet_into, draw for draw: the received
    // samples and the generator state afterwards, with a tapped row, a
    // zero-tone row, a fixed-phase row and a LoRa frame interferer
    // (rendered densely on the other side) in the mix.
    const ns::phy::css_params p{.bandwidth_hz = 500e3, .spreading_factor = 9};
    const std::size_t bits_count = 24;
    ns::util::rng gen(47);
    std::vector<std::uint8_t> store(4 * bits_count);
    for (auto& bit : store) bit = gen.bernoulli(0.5) ? 1 : 0;
    const cvec taps = {cplx{0.9, 0.1}, cplx{0.2, -0.3}, cplx{-0.05, 0.1}};
    std::vector<packet_contribution> rows(4);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        rows[r].cyclic_shift = static_cast<std::uint32_t>(40 * r + 2);
        rows[r].frame_bits =
            std::span<const std::uint8_t>(store.data() + r * bits_count, bits_count);
        rows[r].snr_db = 3.0 * static_cast<double>(r);
        rows[r].timing_offset_s = 0.4e-6 * static_cast<double>(r);
        rows[r].frequency_offset_hz = 35.0 * static_cast<double>(r);
    }
    rows[0].random_phase = false;  // row 0 also has zero tone
    rows[2].taps = taps;

    const std::vector<std::uint32_t> frame_symbols(40, 77);
    interferer_contribution frame;
    frame.type = interferer_contribution::kind::lora_frame;
    frame.symbols = frame_symbols;
    frame.snr_db = 5.0;
    frame.timing_offset_s = 1.3e-6;
    frame.sample_delay = 300;
    const cvec chirp = ns::phy::make_upchirp(p, 77.0);
    cvec interferer_wave;
    for (int k = 0; k < 40; ++k) {
        interferer_wave.insert(interferer_wave.end(), chirp.begin(), chirp.end());
    }
    tx_contribution interferer;
    interferer.waveform = std::span<const cplx>(interferer_wave);
    interferer.snr_db = frame.snr_db;
    interferer.timing_offset_s = frame.timing_offset_s;
    interferer.sample_delay = frame.sample_delay;

    std::vector<cvec> packets(rows.size());
    std::vector<tx_contribution> dense;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::vector<bool> bits(rows[r].frame_bits.begin(), rows[r].frame_bits.end());
        ns::phy::distributed_modulator(p, rows[r].cyclic_shift)
            .modulate_packet_into(bits, packets[r]);
        dense.push_back({.waveform = std::span<const cplx>(packets[r]),
                         .snr_db = rows[r].snr_db,
                         .timing_offset_s = rows[r].timing_offset_s,
                         .frequency_offset_hz = rows[r].frequency_offset_hz,
                         .random_phase = rows[r].random_phase,
                         .taps = rows[r].taps});
    }
    dense.push_back(interferer);

    // The multipath pass gives every row drawn taps, so each takes the
    // filtered branch.
    ns::util::rng tap_gen(59);
    std::vector<cvec> drawn_taps;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        drawn_taps.push_back(multipath_model{}.sample_taps(p.bandwidth_hz, tap_gen));
    }
    const std::size_t packet = packets[0].size();
    for (const bool multipath : {false, true}) {
        if (multipath) {
            for (std::size_t r = 0; r < rows.size(); ++r) {
                rows[r].taps = drawn_taps[r];
                dense[r].taps = drawn_taps[r];
            }
        }
        for (const std::size_t length : {packet, packet - 700}) {
            const channel_config config;
            ns::util::rng row_rng(53);
            ns::util::rng dense_rng(53);
            channel_workspace row_ws;
            channel_workspace dense_ws;
            ns::obs::metrics_registry metrics;
            row_ws.obs.metrics = &metrics;
            const cvec& from_rows =
                combine(rows, std::span<const interferer_contribution>(&frame, 1), length, p,
                        config, row_rng, row_ws);
            const cvec& rendered = combine(std::span<const tx_contribution>(dense), length,
                                           p, config, dense_rng, dense_ws);
            EXPECT_TRUE(same_bits(from_rows, rendered))
                << "multipath " << multipath << " length " << length;
            EXPECT_EQ(row_rng(), dense_rng());
            EXPECT_EQ(metrics.get_counter("phy.sample_waveforms")->value(),
                      dense.size());
            EXPECT_EQ(metrics.get_histogram("phy.sample_combine_s", ns::obs::origin::host)
                          ->count(),
                      1u);
        }
    }
}

TEST(superposition, symbol_domain_single_device_spectra_match_demodulator) {
    // End-to-end fast-path check: with (near-)zero noise, the symbol
    // spectra of one packet must match dechirp + padded FFT of the
    // time-domain synthesis, symbol by symbol.
    const ns::phy::css_params p{.bandwidth_hz = 500e3, .spreading_factor = 7};
    const ns::phy::demodulator demod(p, 4);
    const std::uint32_t shift = 30;
    const std::vector<bool> bits = {true, false, true, true, false, false, true, false};
    const ns::phy::distributed_modulator mod(p, shift);
    cvec packet = mod.modulate_packet(bits);
    const double tone_hz = 95.0;
    packet = ns::dsp::frequency_shift(packet, tone_hz, p.bandwidth_hz);

    std::vector<std::uint8_t> frame_bits;
    for (bool bit : bits) frame_bits.push_back(bit ? 1 : 0);
    packet_contribution contribution;
    contribution.cyclic_shift = shift;
    contribution.frame_bits = frame_bits;
    contribution.snr_db = 200.0;  // signal streets ahead of the epsilon noise
    contribution.frequency_offset_hz = tone_hz;
    contribution.random_phase = false;

    channel_config config;
    config.noise_power = 1e-18;
    symbol_domain_params sd;
    sd.zero_padding = 4;
    sd.payload_symbols = bits.size();
    sd.kernel_radius_bins = p.num_bins() / 2;  // untruncated
    ns::util::rng gen(31);
    channel_workspace workspace;
    const std::vector<packet_contribution> packets = {contribution};
    combine_symbol_domain(packets, p, config, sd, gen, workspace);

    const double amplitude = std::sqrt(config.noise_power) * 1e10;  // 200 dB
    const std::size_t sps = p.samples_per_symbol();
    ASSERT_EQ(workspace.symbol_spectra.size(), sd.preamble_upchirps + bits.size());
    for (std::size_t g = 0; g < sd.preamble_upchirps + bits.size(); ++g) {
        // Symbol index within the full packet (downchirps skipped).
        const std::size_t packet_symbol =
            g < sd.preamble_upchirps ? g : sd.preamble_symbols + (g - sd.preamble_upchirps);
        const cvec window(packet.begin() + static_cast<std::ptrdiff_t>(
                                               packet_symbol * sps),
                          packet.begin() + static_cast<std::ptrdiff_t>(
                                               (packet_symbol + 1) * sps));
        const cvec expected = demod.symbol_spectrum(window);
        const cvec& produced = workspace.symbol_spectra[g];
        ASSERT_EQ(produced.size(), expected.size());
        double max_error = 0.0;
        for (std::size_t m = 0; m < expected.size(); ++m) {
            max_error = std::max(max_error,
                                 std::abs(produced[m] - amplitude * expected[m]));
        }
        // Relative to the peak magnitude amplitude * N.
        EXPECT_LT(max_error, 1e-6 * amplitude * static_cast<double>(p.num_bins()))
            << "symbol " << g;
    }
}

}  // namespace
