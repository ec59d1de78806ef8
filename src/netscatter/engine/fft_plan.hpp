// Reusable radix-2 FFT plans, shared process-wide.
//
// The NetScatter receiver runs one FFT per symbol for *every* symbol of
// every round of every sweep point — at SF 9 with 8x zero padding that is
// a 4096-point transform thousands of times per sweep, always over the
// same handful of sizes (2^SF, padded sizes, STFT windows, the 2*2^SF
// aggregate band). A plan precomputes what depends only on the size — the
// bit-reversal permutation and the per-stage twiddle factors — so the
// transform itself touches no trig at all. get_fft_plan shares immutable
// plans across threads (the Monte-Carlo runner decodes many rounds
// concurrently), and fft_scratch hands out per-thread buffers so hot
// paths can transform without allocating.
//
// Layer note: this header depends only on ns::dsp types; ns::dsp::fft
// routes every transform through get_fft_plan (see dsp/fft.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "netscatter/dsp/fft.hpp"

namespace ns::engine {

/// Precomputed plan for one power-of-two transform size. Immutable after
/// construction, so a single instance is safely shared across threads.
class fft_plan {
public:
    /// Builds the bit-reversal and twiddle tables for an n-point
    /// transform. Requires n to be a power of two.
    explicit fft_plan(std::size_t n);

    std::size_t size() const { return n_; }

    /// In-place forward transform (engineering convention e^{-j2πkn/N},
    /// no normalization). Requires data.size() == size().
    void forward(ns::dsp::cvec& data) const;

    /// In-place inverse transform, normalized by 1/N.
    void inverse(ns::dsp::cvec& data) const;

private:
    void transform(ns::dsp::cvec& data, bool inverse) const;

    std::size_t n_;
    std::vector<std::uint32_t> bit_reverse_;  ///< permutation table, n entries
    /// Forward twiddles for all stages, concatenated: the stage with
    /// butterfly span `len` stores w_len^k = e^{-j2πk/len} for
    /// k in [0, len/2) at offset len/2 - 1. Total n - 1 entries.
    ns::dsp::cvec twiddles_;
};

/// The shared plan for size n, built on first use and kept for the life
/// of the process. A per-thread memo of the most recent size lets
/// repeated same-size lookups (the receiver hot path) take no lock.
std::shared_ptr<const fft_plan> get_fft_plan(std::size_t n);

/// A per-thread scratch buffer resized to n complex samples. Valid until
/// the next fft_scratch call on the same thread; lets hot paths (e.g.
/// zero-padded per-symbol spectra) transform without a heap allocation
/// per call.
ns::dsp::cvec& fft_scratch(std::size_t n);

}  // namespace ns::engine
