#include "netscatter/dsp/fft.hpp"

#include "netscatter/engine/fft_plan.hpp"
#include "netscatter/util/error.hpp"

namespace ns::dsp {

bool is_power_of_two(std::size_t n) {
    return n != 0 && (n & (n - 1)) == 0;
}

std::size_t next_power_of_two(std::size_t n) {
    ns::util::require(n >= 1, "next_power_of_two: n must be >= 1");
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

namespace {

// All transforms run through the shared ns::engine::fft_plan for their
// size, which precomputes the bit-reversal permutation and per-stage
// twiddle tables once per process.
void transform(cvec& data, bool inverse) {
    ns::util::require(is_power_of_two(data.size()), "fft: size must be a power of two");
    const auto plan = ns::engine::get_fft_plan(data.size());
    inverse ? plan->inverse(data) : plan->forward(data);
}

}  // namespace

void fft_inplace(cvec& data) {
    transform(data, false);
}

void ifft_inplace(cvec& data) {
    transform(data, true);
}

cvec fft(cvec data) {
    fft_inplace(data);
    return data;
}

cvec ifft(cvec data) {
    ifft_inplace(data);
    return data;
}

cvec fft_zero_padded(const cvec& data, std::size_t padded_size) {
    ns::util::require(padded_size >= data.size(),
                      "fft_zero_padded: padded size smaller than data");
    ns::util::require(is_power_of_two(padded_size),
                      "fft_zero_padded: padded size must be a power of two");
    // Copy the payload once and zero-fill only the tail, instead of
    // zero-initializing the whole buffer and then overwriting the prefix.
    cvec padded;
    padded.reserve(padded_size);
    padded.assign(data.begin(), data.end());
    padded.resize(padded_size, cplx{0.0, 0.0});
    fft_inplace(padded);
    return padded;
}

std::vector<double> power_spectrum(const cvec& spectrum) {
    std::vector<double> power;
    power_spectrum_into(spectrum, power);
    return power;
}

void power_spectrum_into(const cvec& spectrum, std::vector<double>& power) {
    power.resize(spectrum.size());
    for (std::size_t i = 0; i < spectrum.size(); ++i) power[i] = std::norm(spectrum[i]);
}

cvec fftshift(cvec spectrum) {
    const std::size_t n = spectrum.size();
    cvec shifted(n);
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < n; ++i) shifted[i] = spectrum[(i + half) % n];
    return shifted;
}

}  // namespace ns::dsp
