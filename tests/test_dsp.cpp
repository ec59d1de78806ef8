// Unit tests for ns::dsp — FFT, vector operations, peak detection,
// spectrogram.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "netscatter/dsp/fft.hpp"
#include "netscatter/dsp/peak.hpp"
#include "netscatter/dsp/spectrogram.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using namespace ns::dsp;

cvec make_tone(std::size_t n, double cycles, double amplitude = 1.0) {
    cvec tone(n);
    for (std::size_t i = 0; i < n; ++i) {
        tone[i] = std::polar(amplitude, 2.0 * std::numbers::pi * cycles *
                                            static_cast<double>(i) /
                                            static_cast<double>(n));
    }
    return tone;
}

cvec random_vector(std::size_t n, ns::util::rng& gen) {
    cvec v(n);
    for (auto& x : v) x = cplx{gen.gaussian(), gen.gaussian()};
    return v;
}

// ---------------------------------------------------------------- fft --

TEST(fft, power_of_two_helpers) {
    EXPECT_TRUE(is_power_of_two(1));
    EXPECT_TRUE(is_power_of_two(512));
    EXPECT_FALSE(is_power_of_two(0));
    EXPECT_FALSE(is_power_of_two(3));
    EXPECT_FALSE(is_power_of_two(514));
    EXPECT_EQ(next_power_of_two(1), 1u);
    EXPECT_EQ(next_power_of_two(5), 8u);
    EXPECT_EQ(next_power_of_two(512), 512u);
    EXPECT_EQ(next_power_of_two(513), 1024u);
}

TEST(fft, rejects_non_power_of_two) {
    cvec data(12, cplx{1.0, 0.0});
    EXPECT_THROW(fft_inplace(data), ns::util::invalid_argument);
}

TEST(fft, impulse_has_flat_spectrum) {
    cvec data(64, cplx{0.0, 0.0});
    data[0] = cplx{1.0, 0.0};
    const cvec spectrum = fft(data);
    for (const auto& bin : spectrum) {
        EXPECT_NEAR(std::abs(bin), 1.0, 1e-12);
    }
}

TEST(fft, dc_concentrates_in_bin_zero) {
    cvec data(64, cplx{1.0, 0.0});
    const cvec spectrum = fft(data);
    EXPECT_NEAR(std::abs(spectrum[0]), 64.0, 1e-9);
    for (std::size_t i = 1; i < spectrum.size(); ++i) {
        EXPECT_NEAR(std::abs(spectrum[i]), 0.0, 1e-9);
    }
}

TEST(fft, tone_lands_in_expected_bin) {
    const std::size_t n = 256;
    for (double cycles : {1.0, 17.0, 100.0, 255.0}) {
        const cvec spectrum = fft(make_tone(n, cycles));
        const std::vector<double> power = power_spectrum(spectrum);
        EXPECT_EQ(argmax(power), static_cast<std::size_t>(cycles)) << cycles;
        EXPECT_NEAR(std::abs(spectrum[static_cast<std::size_t>(cycles)]),
                    static_cast<double>(n), 1e-8);
    }
}

TEST(fft, linearity) {
    ns::util::rng gen(1);
    const cvec a = random_vector(128, gen);
    const cvec b = random_vector(128, gen);
    cvec sum(128);
    for (std::size_t i = 0; i < 128; ++i) sum[i] = a[i] + 2.0 * b[i];
    const cvec fa = fft(a);
    const cvec fb = fft(b);
    const cvec fsum = fft(sum);
    for (std::size_t i = 0; i < 128; ++i) {
        EXPECT_NEAR(std::abs(fsum[i] - (fa[i] + 2.0 * fb[i])), 0.0, 1e-9);
    }
}

TEST(fft, inverse_recovers_signal) {
    ns::util::rng gen(2);
    const cvec original = random_vector(512, gen);
    const cvec roundtrip = ifft(fft(original));
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_NEAR(std::abs(roundtrip[i] - original[i]), 0.0, 1e-9);
    }
}

TEST(fft, parseval_energy_conservation) {
    ns::util::rng gen(3);
    const cvec signal = random_vector(1024, gen);
    const cvec spectrum = fft(signal);
    const double time_energy = energy(signal);
    const double freq_energy = energy(spectrum) / 1024.0;
    EXPECT_NEAR(freq_energy / time_energy, 1.0, 1e-10);
}

TEST(fft, zero_padding_interpolates_spectrum) {
    // A tone halfway between bins splits energy when unpadded; padding
    // reveals the true fractional location.
    const std::size_t n = 128;
    const cvec tone = make_tone(n, 10.5);
    const cvec padded = fft_zero_padded(tone, n * 8);
    const std::vector<double> power = power_spectrum(padded);
    const std::size_t peak_bin = argmax(power);
    EXPECT_NEAR(static_cast<double>(peak_bin) / 8.0, 10.5, 0.1);
}

TEST(fft, zero_padding_validates_arguments) {
    cvec data(16, cplx{1.0, 0.0});
    EXPECT_THROW(fft_zero_padded(data, 8), ns::util::invalid_argument);
    EXPECT_THROW(fft_zero_padded(data, 24), ns::util::invalid_argument);
}

TEST(fft, fftshift_rotates_halves) {
    cvec spectrum = {cplx{0, 0}, cplx{1, 0}, cplx{2, 0}, cplx{3, 0}};
    const cvec shifted = fftshift(spectrum);
    EXPECT_DOUBLE_EQ(shifted[0].real(), 2.0);
    EXPECT_DOUBLE_EQ(shifted[1].real(), 3.0);
    EXPECT_DOUBLE_EQ(shifted[2].real(), 0.0);
    EXPECT_DOUBLE_EQ(shifted[3].real(), 1.0);
}

// --------------------------------------------------------- vector ops --

TEST(vector_ops, multiply_elementwise) {
    const cvec a = {cplx{1, 0}, cplx{0, 1}};
    const cvec b = {cplx{2, 0}, cplx{0, 1}};
    const cvec product = multiply(a, b);
    EXPECT_NEAR(std::abs(product[0] - cplx{2, 0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(product[1] - cplx{-1, 0}), 0.0, 1e-12);
}

TEST(vector_ops, multiply_length_mismatch_throws) {
    EXPECT_THROW(multiply(cvec(3), cvec(4)), ns::util::invalid_argument);
}

TEST(vector_ops, accumulate_adds_in_place) {
    cvec a(4, cplx{1.0, 0.0});
    const cvec b(4, cplx{0.0, 2.0});
    accumulate(a, b);
    for (const auto& x : a) {
        EXPECT_DOUBLE_EQ(x.real(), 1.0);
        EXPECT_DOUBLE_EQ(x.imag(), 2.0);
    }
}

TEST(vector_ops, accumulate_at_offset_and_truncation) {
    cvec a(4, cplx{0.0, 0.0});
    const cvec b(3, cplx{1.0, 0.0});
    accumulate_at(a, b, 2);  // last element of b falls off the end
    EXPECT_DOUBLE_EQ(a[0].real(), 0.0);
    EXPECT_DOUBLE_EQ(a[1].real(), 0.0);
    EXPECT_DOUBLE_EQ(a[2].real(), 1.0);
    EXPECT_DOUBLE_EQ(a[3].real(), 1.0);
    accumulate_at(a, b, 10);  // entirely out of range: no-op
    EXPECT_DOUBLE_EQ(a[3].real(), 1.0);
}

TEST(vector_ops, scale_real_and_complex) {
    cvec a(2, cplx{1.0, 1.0});
    scale(a, 2.0);
    EXPECT_DOUBLE_EQ(a[0].real(), 2.0);
    scale(a, cplx{0.0, 1.0});  // rotate by 90 degrees
    EXPECT_NEAR(a[0].real(), -2.0, 1e-12);
    EXPECT_NEAR(a[0].imag(), 2.0, 1e-12);
}

TEST(vector_ops, mean_power_and_energy) {
    const cvec a = {cplx{3.0, 4.0}, cplx{0.0, 0.0}};  // |a0|^2 = 25
    EXPECT_DOUBLE_EQ(energy(a), 25.0);
    EXPECT_DOUBLE_EQ(mean_power(a), 12.5);
    EXPECT_DOUBLE_EQ(mean_power(cvec{}), 0.0);
}

TEST(vector_ops, frequency_shift_moves_tone_bin) {
    const std::size_t n = 256;
    const cvec tone = make_tone(n, 10.0);
    // Shift by exactly 5 bins: fs such that one bin = fs / n.
    const double fs = 1000.0;
    const cvec shifted = frequency_shift(tone, 5.0 * fs / static_cast<double>(n), fs);
    const std::vector<double> power = power_spectrum(fft(shifted));
    EXPECT_EQ(argmax(power), 15u);
}

TEST(vector_ops, frequency_shift_matches_direct_synthesis) {
    // The phasor recurrence must agree with per-sample std::polar.
    const std::size_t n = 4096;
    const cvec ones(n, cplx{1.0, 0.0});
    const double f = 123.456, fs = 500e3;
    const cvec shifted = frequency_shift(ones, f, fs);
    for (std::size_t i = 0; i < n; i += 97) {
        const cplx expected =
            std::polar(1.0, 2.0 * std::numbers::pi * f * static_cast<double>(i) / fs);
        EXPECT_NEAR(std::abs(shifted[i] - expected), 0.0, 1e-9) << i;
    }
}

// --------------------------------------------------------------- peak --

TEST(peak, argmax_finds_maximum) {
    EXPECT_EQ(argmax({1.0, 5.0, 3.0}), 1u);
    EXPECT_THROW(argmax({}), ns::util::invalid_argument);
}

TEST(peak, find_peak_fractional_accuracy) {
    const std::size_t n = 256;
    for (double cycles : {20.0, 20.25, 20.5, 20.75}) {
        const cvec padded = fft_zero_padded(make_tone(n, cycles), n * 16);
        const ns::dsp::peak p = find_peak(power_spectrum(padded));
        EXPECT_NEAR(p.fractional_bin / 16.0, cycles, 0.05) << cycles;
    }
}

TEST(peak, find_peak_in_range_wraps) {
    std::vector<double> power(16, 0.1);
    power[1] = 5.0;
    power[14] = 9.0;
    // Range [12, 3] wraps through zero and must see both candidates.
    const ns::dsp::peak p = find_peak_in_range(power, 12, 3);
    EXPECT_EQ(p.bin, 14u);
    // Restricting to [0, 3] must pick the smaller peak.
    EXPECT_EQ(find_peak_in_range(power, 0, 3).bin, 1u);
}

TEST(peak, find_peaks_above_sorted_by_power) {
    std::vector<double> power(32, 0.01);
    power[5] = 2.0;
    power[20] = 7.0;
    power[27] = 4.0;
    const auto peaks = find_peaks_above(power, 1.0);
    ASSERT_EQ(peaks.size(), 3u);
    EXPECT_EQ(peaks[0].bin, 20u);
    EXPECT_EQ(peaks[1].bin, 27u);
    EXPECT_EQ(peaks[2].bin, 5u);
}

TEST(peak, find_peaks_above_requires_local_maximum) {
    // A plateau's interior point is not strictly greater than neighbours.
    std::vector<double> power = {0.0, 5.0, 5.0, 0.0};
    const auto peaks = find_peaks_above(power, 1.0);
    EXPECT_TRUE(peaks.empty());
}

// -------------------------------------------------------- spectrogram --

TEST(spectrogram, hann_window_shape) {
    const auto w = hann_window(64);
    EXPECT_NEAR(w.front(), 0.0, 1e-12);
    EXPECT_NEAR(w.back(), 0.0, 1e-12);
    EXPECT_NEAR(w[32], 1.0, 0.01);  // near centre
}

TEST(spectrogram, tone_energy_in_expected_column_band) {
    // A constant tone must produce the same peak bin in every column.
    const std::size_t n = 4096;
    const cvec tone = make_tone(n, 512.0);  // bin 512/4096 of fs -> bin 32 of 256
    stft_params params;
    params.window_size = 256;
    params.hop = 128;
    params.shift = false;
    const spectrogram_result grid = compute_spectrogram(tone, params);
    ASSERT_GT(grid.columns, 0u);
    for (std::size_t c = 0; c < grid.columns; ++c) {
        std::size_t best = 0;
        for (std::size_t b = 1; b < grid.bins; ++b) {
            if (grid.power_db[c * grid.bins + b] > grid.power_db[c * grid.bins + best]) {
                best = b;
            }
        }
        EXPECT_EQ(best, 32u) << "column " << c;
    }
}

TEST(spectrogram, short_signal_yields_empty_grid) {
    stft_params params;
    params.window_size = 256;
    const spectrogram_result grid = compute_spectrogram(cvec(100), params);
    EXPECT_EQ(grid.columns, 0u);
}

TEST(spectrogram, average_psd_scales_with_power) {
    // Doubling the amplitude must raise the PSD peak by ~6 dB.
    const std::size_t n = 8192;
    stft_params params;
    params.window_size = 256;
    params.shift = false;
    const auto psd1 = average_psd_db(make_tone(n, 1024.0, 1.0), params);
    const auto psd2 = average_psd_db(make_tone(n, 1024.0, 2.0), params);
    const std::size_t bin = 32;
    EXPECT_NEAR(psd2[bin] - psd1[bin], 6.02, 0.2);
}

TEST(spectrogram, rejects_bad_window) {
    stft_params params;
    params.window_size = 100;  // not a power of two
    EXPECT_THROW(compute_spectrogram(cvec(512), params), ns::util::invalid_argument);
}

}  // namespace
