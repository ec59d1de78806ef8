#include "netscatter/engine/mc_runner.hpp"

#include "netscatter/util/rng.hpp"

namespace ns::engine {

std::uint64_t split_seed(std::uint64_t base, std::uint64_t stream, std::uint64_t block) {
    // Chain splitmix64 steps, folding one coordinate in per step with
    // distinct odd multipliers (injective per coordinate). The final
    // output is fully mixed, so (base, s, b) and (base, s, b+1) yield
    // uncorrelated xoshiro seed material.
    std::uint64_t state = base;
    std::uint64_t out = ns::util::splitmix64_next(state);
    state ^= out ^ (stream * 0xbf58476d1ce4e5b9ULL);
    out = ns::util::splitmix64_next(state);
    state ^= out ^ (block * 0x94d049bb133111ebULL);
    return ns::util::splitmix64_next(state);
}

}  // namespace ns::engine
