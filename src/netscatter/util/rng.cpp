#include "netscatter/util/rng.hpp"

#include <cmath>

#include "netscatter/util/error.hpp"

namespace ns::util {

std::uint64_t splitmix64_next(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace detail {

namespace {

// --- Ziggurat tables (declared in rng.hpp) ---------------------------
// Layer i >= 1 is the rectangle [0, x[i]] x [y[i], y[i+1]]; layer 0 is
// the base rectangle [0, r] x [0, f(r)] plus the tail x > r, handled
// through the pseudo width x[0] = v/f(r). The recurrence is the
// published one; r and v are the canonical 128-layer constants.
constexpr double zig_r = 3.442619855899;       // rightmost layer edge
constexpr double zig_v = 9.91256303526217e-3;  // per-layer area

zig_tables make_zig_tables() {
    zig_tables t;
    const double f_r = std::exp(-0.5 * zig_r * zig_r);
    t.x[0] = zig_v / f_r;
    t.y[0] = 0.0;
    t.x[1] = zig_r;
    t.y[1] = f_r;
    for (int i = 1; i < zig_layers - 1; ++i) {
        t.y[i + 1] = t.y[i] + zig_v / t.x[i];
        t.x[i + 1] = std::sqrt(-2.0 * std::log(t.y[i + 1]));
    }
    t.x[zig_layers] = 0.0;
    t.y[zig_layers] = 1.0;
    return t;
}

}  // namespace

const zig_tables zig = make_zig_tables();

}  // namespace detail

rng::rng(std::uint64_t seed) {
    // Expand the seed; xoshiro requires a not-all-zero state, which
    // splitmix64 guarantees with overwhelming probability. Guard anyway.
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64_next(s);
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
        state_[0] = 1;
    }
}

double rng::uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    require(lo <= hi, "rng::uniform_int: lo must be <= hi");
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % range;
    std::uint64_t value = (*this)();
    while (value >= limit) value = (*this)();
    return lo + static_cast<std::int64_t>(value % range);
}

double rng::gaussian_rejection(std::uint64_t bits) {
    using detail::zig;
    using detail::zig_r;
    for (;;) {
        const std::uint64_t i = bits & 127;
        const double x =
            static_cast<double>(bits >> 11) * 0x1.0p-53 * zig.x[i];
        // Strictly inside the next-narrower layer: under the curve for
        // every y of this layer (and inside the base rectangle for i=0).
        if (x < zig.x[i + 1]) return with_sign(x, bits);
        if (i == 0) {
            // Tail beyond r (Marsaglia's exponential wrap); u1 in (0,1]
            // so the logs stay finite.
            for (;;) {
                const double xt = -std::log(1.0 - uniform()) / zig_r;
                const double yt = -std::log(1.0 - uniform());
                if (yt + yt >= xt * xt) return with_sign(zig_r + xt, bits);
            }
        }
        // Wedge between x[i+1] and x[i]: exact accept/reject against f.
        const double y = zig.y[i] + uniform() * (zig.y[i + 1] - zig.y[i]);
        if (y < std::exp(-0.5 * x * x)) return with_sign(x, bits);
        bits = (*this)();
    }
}

double rng::exponential(double mean) {
    require(mean > 0.0, "rng::exponential: mean must be positive");
    return -mean * std::log(1.0 - uniform());
}

std::uint64_t rng::poisson(double mean) {
    require(mean >= 0.0, "rng::poisson: mean must be >= 0");
    // Knuth's product method: O(mean) uniforms per sample, and
    // exp(-mean) underflows to 0 near mean ~745 (the loop would then cap
    // every sample at the product's underflow point — silently wrong).
    // The per-round arrival/churn rates this serves are << 100.
    require(mean <= 500.0, "rng::poisson: mean too large for the product method");
    if (mean == 0.0) return 0;
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform();
    while (product > limit) {
        ++count;
        product *= uniform();
    }
    return count;
}

bool rng::bernoulli(double p) {
    return uniform() < p;
}

std::vector<bool> rng::bits(std::size_t n) {
    std::vector<bool> out;
    fill_bits(n, out);
    return out;
}

void rng::fill_bits(std::size_t n, std::vector<bool>& out) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = bernoulli(0.5);
}

rng rng::fork() {
    return rng((*this)());
}

}  // namespace ns::util
