#include "netscatter/engine/fft_plan.hpp"

#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "netscatter/util/error.hpp"

namespace ns::engine {

fft_plan::fft_plan(std::size_t n) : n_(n) {
    ns::util::require(ns::dsp::is_power_of_two(n), "fft_plan: size must be a power of two");

    // Bit-reversal permutation: br[i] = br[i >> 1] >> 1, plus the top bit
    // when i is odd.
    bit_reverse_.resize(n);
    bit_reverse_[0] = 0;
    for (std::size_t i = 1; i < n; ++i) {
        bit_reverse_[i] = static_cast<std::uint32_t>(
            (bit_reverse_[i >> 1] >> 1) | ((i & 1) ? n >> 1 : 0));
    }

    // Per-stage forward twiddles, each from std::polar directly (no
    // recurrence) so table accuracy does not degrade with k.
    twiddles_.reserve(n > 0 ? n - 1 : 0);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle_unit = -2.0 * std::numbers::pi / static_cast<double>(len);
        for (std::size_t k = 0; k < len / 2; ++k) {
            twiddles_.push_back(std::polar(1.0, angle_unit * static_cast<double>(k)));
        }
    }
}

void fft_plan::transform(ns::dsp::cvec& data, bool inverse) const {
    using ns::dsp::cplx;
    ns::util::require(data.size() == n_, "fft_plan: data size does not match plan");

    for (std::size_t i = 1; i < n_; ++i) {
        const std::size_t j = bit_reverse_[i];
        if (i < j) std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n_; len <<= 1) {
        const std::size_t half = len / 2;
        const cplx* stage = twiddles_.data() + (half - 1);
        for (std::size_t i = 0; i < n_; i += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const cplx w = inverse ? std::conj(stage[k]) : stage[k];
                const cplx even = data[i + k];
                const cplx odd = data[i + k + half] * w;
                data[i + k] = even + odd;
                data[i + k + half] = even - odd;
            }
        }
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n_);
        for (auto& value : data) value *= scale;
    }
}

void fft_plan::forward(ns::dsp::cvec& data) const {
    transform(data, false);
}

void fft_plan::inverse(ns::dsp::cvec& data) const {
    transform(data, true);
}

std::shared_ptr<const fft_plan> get_fft_plan(std::size_t n) {
    thread_local std::shared_ptr<const fft_plan> memo;
    if (memo && memo->size() == n) return memo;
    static std::mutex mutex;
    static std::unordered_map<std::size_t, std::shared_ptr<const fft_plan>> plans;
    // Built under the lock: a plan is built once per size per process, so
    // serialising the few builds costs nothing and no build is wasted.
    const std::lock_guard<std::mutex> lock(mutex);
    auto& plan = plans[n];
    if (!plan) plan = std::make_shared<const fft_plan>(n);
    memo = plan;
    return memo;
}

ns::dsp::cvec& fft_scratch(std::size_t n) {
    thread_local ns::dsp::cvec scratch;
    scratch.resize(n);
    return scratch;
}

}  // namespace ns::engine
