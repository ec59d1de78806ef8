// NetScatter receiver (§3.3.1).
//
// The AP receiver processes the superposed baseband of all concurrent
// devices:
//   1. Decoding starts at the AP-triggered packet start (§3.3).
//   2. Active-device detection. A device is present when an FFT peak
//      appears at its bin in *all* preamble upchirp symbols.
//   3. Thresholding. The device's average preamble peak power becomes its
//      payload slicing threshold: payload symbol power > half the average
//      reads as '1', else '0'.
//   4. CRC validation per device.
//
// A real AP's dechirp + single FFT per symbol serves every device at
// once, so its decode cost is (nearly) independent of the number of
// devices — the property bench_micro_receiver measures on the sample
// path. The simulator's fast path instead makes only the payload bins the
// decoder asks for (phy::dechirped_round), so there the payload cost
// grows with the detected devices while the preamble stays one full
// spectrum per upchirp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netscatter/obs/metrics.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/phy/dechirped_round.hpp"
#include "netscatter/phy/demodulator.hpp"
#include "netscatter/phy/frame.hpp"
#include "netscatter/phy/modulator.hpp"

namespace ns::rx {

using ns::dsp::cvec;

/// Receiver configuration.
struct receiver_params {
    ns::phy::css_params phy{};
    std::size_t zero_padding_factor = 8;  ///< sub-bin resolution of the FFT
    double detection_factor = 4.0;        ///< peak > factor * expected noise-bin power

    /// Payload ON-OFF decision threshold as a fraction of the device's
    /// average preamble peak power. The paper slices at one half
    /// (§3.3.1); at full SKIP=2 occupancy the preamble estimate is biased
    /// high because EVERY neighbour is ON during the preamble and its
    /// main-lobe skirt adds constructively, while payload ON symbols see
    /// neighbours OFF half the time — a slightly lower threshold recovers
    /// those marginal ON symbols without admitting OFF-symbol leakage
    /// (which stays ~14 dB down at 2-bin separation, Fig. 8).
    double slicing_threshold = 0.4;

    /// Receiver noise power per complex sample (linear). A real AP
    /// calibrates this from quiet periods; the expected dechirped
    /// noise-bin power is samples_per_symbol * noise_power. Using the
    /// calibrated floor instead of a per-symbol median matters at high
    /// concurrency: with 256 devices transmitting, most FFT bins carry
    /// signal and a median would no longer estimate noise.
    double noise_power = 1.0;
    std::uint32_t skip = 2;               ///< slot spacing; peaks are credited
                                          ///< within the guard region (SKIP-1
                                          ///< empty bins tolerate +-1 bin of
                                          ///< residual displacement, Table 1)
    ns::phy::frame_format frame = ns::phy::linklayer_format();
};

/// Decode outcome for one registered device in one round.
struct device_report {
    std::uint32_t cyclic_shift = 0;
    bool detected = false;            ///< peak present in all preamble symbols
    double preamble_power = 0.0;      ///< average preamble peak power
    std::vector<bool> bits;           ///< sliced payload+CRC bits (when detected)
    bool crc_ok = false;              ///< CRC-8 matched
    std::vector<bool> payload;        ///< payload bits (when crc_ok)

    /// Per-sample SNR estimate from the preamble peak over the calibrated
    /// noise floor (what the AP uses to track device signal strength for
    /// the power-aware allocation, §3.2.3). Only meaningful when detected.
    double estimated_snr_db = 0.0;

    /// Residual tone offset (timing-induced + CFO) estimated from the
    /// phase progression of the preamble peak across symbols — the §4.2
    /// measurement. Unambiguous within +- symbol_rate/2 (~488 Hz at the
    /// deployed configuration), which covers the <=150 Hz crystal offsets
    /// of Fig. 14a. Only meaningful when detected.
    double estimated_tone_offset_hz = 0.0;
};

/// Result of one decode round.
struct decode_result {
    std::vector<device_report> reports;    ///< one per registered shift
};

/// A captured baseband round as a phy::dechirped_round: the sample
/// path's answer and the oracle. Each symbol the decoder reads is
/// dechirped and FFT'd in full (demodulator::symbol_spectrum_into), and
/// payload windows are gathered from the full spectrum.
class sampled_round final : public ns::phy::dechirped_round {
public:
    /// Points the view at the packet that starts at sample `packet_start`
    /// of `stream`: frame.preamble_symbols preamble symbols (the first
    /// preamble_upchirps of them upchirps), then one symbol per payload
    /// and CRC bit. The stream must hold the whole packet and outlive the
    /// view's use; no spectrum is made until the decoder asks.
    void bind(const ns::phy::demodulator& demod, std::span<const ns::dsp::cplx> stream,
              std::size_t packet_start, const ns::phy::frame_format& frame);

    std::span<const cvec> preamble_spectra() override;
    void payload_power(const ns::phy::power_windows& windows, std::span<double> out) override;

private:
    const ns::phy::demodulator* demod_ = nullptr;
    std::span<const ns::dsp::cplx> upchirps_;  ///< the preamble upchirps' samples
    std::span<const ns::dsp::cplx> payload_;   ///< the payload symbols' samples
    std::vector<cvec> spectra_;                ///< per-upchirp spectra
    cvec payload_spectrum_;                    ///< one payload symbol
};

/// Reusable scratch of one decode round. One instance per decoding
/// context (NOT thread-safe); with warm buffers and a stable registered
/// set, every decode entry point allocates nothing.
struct decode_workspace {
    sampled_round sampled;                    ///< decode_into(stream)'s view
    std::vector<double> power;                ///< one preamble spectrum's power
    std::vector<double> preamble_power_sum;   ///< per registered shift
    std::vector<double> offset_sum;           ///< per registered shift
    std::vector<std::size_t> detect_count;    ///< per registered shift
    std::vector<std::ptrdiff_t> locked_offset;  ///< per registered shift
    std::vector<std::uint32_t> window_first;  ///< payload request, one per detected device
    std::vector<double> payload_power;        ///< its answer, symbol-major
};

/// The NetScatter receiver.
class receiver {
public:
    explicit receiver(receiver_params params);

    /// Registers the cyclic shifts the AP has allocated; the decoder only
    /// inspects these bins (it learned them during association).
    void set_registered_shifts(std::vector<std::uint32_t> shifts);

    /// Allocation-free overload: copies into the internal buffer
    /// (capacity reuse), for callers that refresh the set every round.
    void set_registered_shifts(std::span<const std::uint32_t> shifts);

    /// Makes room for `count` registered shifts, so the overload above
    /// never allocates for a set of at most that many.
    void reserve_registered_shifts(std::size_t count) { shifts_.reserve(count); }

    /// Decodes one round from `stream` starting at `packet_start`
    /// (sample-aligned). The stream must contain the full packet
    /// (preamble + payload symbols) after that offset.
    decode_result decode(const cvec& stream, std::size_t packet_start) const;

    /// Decodes one dechirped round: the preamble spectra detect each
    /// registered device, estimate its power and tone offset and lock its
    /// peak; then one payload_power request asks for the padded bins
    /// within max(1, padding/4) of each detected device's locked peak,
    /// and the ON-OFF slicing reads only those. The form the
    /// simulator's round loop uses on both fidelities (no allocation once
    /// the buffers are warm and the registered set is stable).
    void decode_into(ns::phy::dechirped_round& round, decode_result& out,
                     decode_workspace& workspace) const;

    /// decode() into reusable result/workspace buffers, through
    /// workspace.sampled.
    void decode_into(const cvec& stream, std::size_t packet_start, decode_result& out,
                     decode_workspace& workspace) const;

    /// Decodes one round straight from precomputed per-symbol spectra.
    /// `spectra` holds the preamble upchirp spectra followed by the
    /// payload symbol spectra (preamble downchirps omitted), each of the
    /// demodulator's padded size; payload windows are gathered from them.
    void decode_spectra_into(std::span<const cvec> spectra, decode_result& out,
                             decode_workspace& workspace) const;

    /// Attaches this receiver's decode counters (rx.decode_calls,
    /// rx.symbols_processed, rx.detected, rx.crc_ok) and its host-origin
    /// decode sub-timers (rx.preamble_s: preamble power and peak search;
    /// rx.payload_power_s; rx.slice_s; rx.crc_s) to `registry`
    /// (non-owning, must outlive the receiver; nullptr detaches). The
    /// registry is thread-confined, so attach the owning replica's.
    void set_metrics(ns::obs::metrics_registry* registry);

    const receiver_params& params() const { return params_; }
    const ns::phy::demodulator& demod() const { return demod_; }

private:
    /// Expected dechirped noise-bin power from the calibrated floor.
    double expected_noise_bin_power() const;
    /// Padded-bin search radius covering the SKIP guard region.
    std::size_t guard_search_radius() const;

    receiver_params params_;
    ns::phy::demodulator demod_;
    std::vector<std::uint32_t> shifts_;
    // Decode-path counters (null until set_metrics; the pointees live in
    // the attached registry, so incrementing through them from the const
    // decode path mutates no receiver state).
    ns::obs::counter* ctr_decode_calls_ = nullptr;
    ns::obs::counter* ctr_symbols_ = nullptr;
    ns::obs::counter* ctr_detected_ = nullptr;
    ns::obs::counter* ctr_crc_ok_ = nullptr;
    ns::obs::histogram* hist_preamble_ = nullptr;
    ns::obs::histogram* hist_payload_ = nullptr;
    ns::obs::histogram* hist_slice_ = nullptr;
    ns::obs::histogram* hist_crc_ = nullptr;
};

}  // namespace ns::rx
