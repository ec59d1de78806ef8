// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library takes an explicit seed so that
// simulations, tests and benchmarks are exactly reproducible. We implement
// xoshiro256** (public domain, Blackman & Vigna) seeded via splitmix64
// rather than relying on std::mt19937, whose distributions are not
// guaranteed to be bit-identical across standard library implementations.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace ns::util {

/// splitmix64 step; used to expand a single 64-bit seed into a full
/// xoshiro256** state. Returns the next value and advances `state`.
std::uint64_t splitmix64_next(std::uint64_t& state);

namespace detail {

/// Ziggurat tables for the standard normal (Marsaglia & Tsang): 128
/// equal-area layers over f(x) = exp(-x^2/2). Built once in rng.cpp;
/// declared here so the fast path of rng::gaussian can inline.
constexpr int zig_layers = 128;
struct zig_tables {
    double x[zig_layers + 1];  // layer widths; x[zig_layers] = 0
    double y[zig_layers + 1];  // y[i] = f(x[i]); y[zig_layers] = 1
};
extern const zig_tables zig;

}  // namespace detail

/// Deterministic, portable random number generator (xoshiro256**).
///
/// Satisfies the subset of the UniformRandomBitGenerator requirements we
/// need, plus convenience samplers for the distributions used throughout
/// the simulator. All samplers are implemented on top of the raw 64-bit
/// output with fixed algorithms, so results are identical on every
/// platform and standard library.
class rng {
public:
    using result_type = std::uint64_t;

    /// Constructs the generator from a 64-bit seed. Two generators built
    /// from the same seed produce identical streams forever.
    explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /// Next raw 64-bit value.
    result_type operator()() {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1): 53 high-quality bits.
    double uniform() {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Standard normal sample (ziggurat, 128 layers). One raw 64-bit
    /// draw supplies the layer (low 7 bits), the sign (bit 7) and a
    /// 53-bit magnitude uniform (bits 11..63) — disjoint bit fields, so
    /// index and magnitude are independent. The ~97% fast path (strictly
    /// inside the next-narrower layer) is one multiply and inlines; the
    /// wedge/tail rejection runs out of line and continues from the
    /// same draw.
    double gaussian() {
        const std::uint64_t bits = (*this)();
        const std::uint64_t i = bits & 127;
        const double x =
            static_cast<double>(bits >> 11) * 0x1.0p-53 * detail::zig.x[i];
        if (x < detail::zig.x[i + 1]) [[likely]] return with_sign(x, bits);
        return gaussian_rejection(bits);
    }

    /// Normal sample with the given mean and standard deviation.
    double gaussian(double mean, double stddev) {
        return mean + stddev * gaussian();
    }

    /// Exponential sample with the given mean. Requires mean > 0.
    double exponential(double mean);

    /// Poisson sample with the given mean (Knuth's product method; meant
    /// for the small rates of the scenario traffic/churn processes).
    /// Requires mean >= 0.
    std::uint64_t poisson(double mean);

    /// Bernoulli sample: true with probability p.
    bool bernoulli(double p);

    /// Random bit vector of length n (each bit i.i.d. fair).
    std::vector<bool> bits(std::size_t n);

    /// bits() into a caller-provided vector (resized; capacity reuse
    /// makes repeated calls allocation-free). Draws the identical stream
    /// as bits(), so the two are interchangeable mid-sequence.
    void fill_bits(std::size_t n, std::vector<bool>& out);

    /// Forks an independent child generator. The child stream is decorrelated
    /// from the parent by hashing the parent's next output through splitmix64.
    rng fork();

private:
    /// Applies the draw's sign bit (bit 7) to a magnitude x >= 0 by
    /// XOR-ing it into x's sign bit: exactly -x or x, as a multiply by
    /// -1.0 or 1.0 would give (signed zero included), without a
    /// data-dependent select.
    static double with_sign(double x, std::uint64_t bits) {
        return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                     ((bits & 128) << 56));
    }

    /// The wedge/tail rejection of gaussian(), entered with the first
    /// draw `bits` that missed the fast path.
    double gaussian_rejection(std::uint64_t bits);

    std::array<std::uint64_t, 4> state_{};
};

}  // namespace ns::util
