#include "netscatter/rx/receiver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>

#include "netscatter/dsp/fft.hpp"
#include "netscatter/util/crc.hpp"
#include "netscatter/util/error.hpp"

namespace ns::rx {

receiver::receiver(receiver_params params)
    : params_(params), demod_(params.phy, params.zero_padding_factor) {}

void receiver::set_registered_shifts(std::vector<std::uint32_t> shifts) {
    set_registered_shifts(std::span<const std::uint32_t>(shifts));
}

void receiver::set_registered_shifts(std::span<const std::uint32_t> shifts) {
    for (std::uint32_t s : shifts) {
        ns::util::require(s < params_.phy.num_bins(), "receiver: shift out of range");
    }
    shifts_.assign(shifts.begin(), shifts.end());
}

std::size_t receiver::guard_search_radius() const {
    // The guard bins (SKIP-1 empty bins each side up to the slot
    // midpoint) belong to the device: Table 1's tolerable mismatch is a
    // full bin at SKIP = 2. Stay one padded bin short of the midpoint so
    // adjacent devices' windows never overlap.
    const std::size_t padding = demod_.padding_factor();
    const std::size_t to_midpoint = padding * params_.skip / 2;
    return std::max<std::size_t>(padding / 2, to_midpoint - std::max<std::size_t>(1, padding / 8));
}

double receiver::expected_noise_bin_power() const {
    // After dechirp + FFT (any zero padding), a pure-noise bin has
    // expected power samples_per_symbol * noise_power.
    return static_cast<double>(params_.phy.samples_per_symbol()) * params_.noise_power;
}

void receiver::decode_into(ns::phy::dechirped_round& round, decode_result& out,
                           decode_workspace& ws) const {
    const std::size_t payload_symbols = params_.frame.payload_plus_crc_bits();
    const std::size_t up_symbols = ns::phy::distributed_modulator::preamble_upchirps;
    const std::size_t n_shifts = shifts_.size();
    const std::size_t padding = demod_.padding_factor();
    const std::size_t padded = demod_.padded_size();
    // Sub-timers (host origin; off unless set_metrics attached a
    // registry): each lap records the time since the previous one.
    const bool timed = hist_preamble_ != nullptr;
    std::uint64_t lap_start = timed ? ns::obs::now_ns() : 0;
    const auto lap = [&](ns::obs::histogram* hist) {
        if (!timed) return;
        const std::uint64_t now = ns::obs::now_ns();
        hist->record_ns(now - lap_start);
        lap_start = now;
    };

    // --- Preamble: detect devices, estimate power, lock peak location --
    // The residual timing/frequency displacement is constant over a
    // packet, so the preamble both detects each device (peak repeats in
    // ALL upchirps, §3.3.1) and pins its precise padded-bin location.
    // Payload slicing then reads a narrow window around the locked
    // location, which keeps neighbours' leakage out of OFF symbols.
    ws.preamble_power_sum.assign(n_shifts, 0.0);
    ws.offset_sum.assign(n_shifts, 0.0);
    ws.detect_count.assign(n_shifts, 0);
    ws.locked_offset.assign(n_shifts, 0);

    const std::span<const cvec> preamble = round.preamble_spectra();
    ns::util::require(preamble.size() == up_symbols,
                      "decode: expected one spectrum per preamble upchirp");
    for (const cvec& spectrum : preamble) {
        ns::util::require(spectrum.size() == padded, "decode: spectrum size mismatch");
        ns::dsp::power_spectrum_into(spectrum, ws.power);
        const double noise = expected_noise_bin_power();
        for (std::size_t d = 0; d < n_shifts; ++d) {
            const auto peak =
                demod_.peak_in_window(ws.power, shifts_[d], guard_search_radius());
            ws.preamble_power_sum[d] += peak.power;
            ws.offset_sum[d] += static_cast<double>(peak.offset);
            if (peak.power > params_.detection_factor * noise) ++ws.detect_count[d];
        }
    }

    // The payload request: the padded bins within slice_radius of each
    // detected device's locked peak, one window per device in shift
    // order.
    const std::size_t slice_radius = std::max<std::size_t>(1, padding / 4);
    const auto padded_signed = static_cast<std::ptrdiff_t>(padded);
    const auto wrap = [&](std::ptrdiff_t bin) {
        return static_cast<std::size_t>((bin % padded_signed + padded_signed) % padded_signed);
    };
    // A request has one window per registered shift at most, and the
    // registered set stays within the reserved capacity, so neither
    // request buffer grows in a steady-state round.
    const std::size_t width = 2 * slice_radius + 1;
    const std::size_t most_windows = std::max(n_shifts, shifts_.capacity());
    ws.window_first.reserve(most_windows);
    ws.payload_power.reserve(payload_symbols * most_windows * width);
    ws.window_first.clear();
    out.reports.resize(n_shifts);
    const double n_samples = static_cast<double>(params_.phy.samples_per_symbol());
    const double noise_bin = expected_noise_bin_power();
    for (std::size_t d = 0; d < n_shifts; ++d) {
        device_report& report = out.reports[d];
        report.cyclic_shift = shifts_[d];
        report.detected = ws.detect_count[d] == up_symbols;
        report.preamble_power =
            ws.preamble_power_sum[d] / static_cast<double>(up_symbols);
        report.bits.clear();
        report.payload.clear();
        report.crc_ok = false;
        report.estimated_snr_db = 0.0;
        report.estimated_tone_offset_hz = 0.0;
        ws.locked_offset[d] = static_cast<std::ptrdiff_t>(
            std::lround(ws.offset_sum[d] / static_cast<double>(up_symbols)));

        if (!report.detected) continue;

        // SNR estimate: a peak of power N^2*Ps rides on an N*Pn noise bin.
        const double signal_part = std::max(report.preamble_power - noise_bin, 0.0);
        report.estimated_snr_db =
            10.0 * std::log10(std::max(signal_part / (n_samples * noise_bin), 1e-12));

        // Residual tone offset: mean phase step of the locked peak across
        // consecutive preamble symbols, divided by the symbol duration.
        const auto locked =
            static_cast<std::ptrdiff_t>(static_cast<std::size_t>(shifts_[d]) * padding) +
            ws.locked_offset[d];
        const std::size_t bin_idx = wrap(locked);
        ns::dsp::cplx accumulated{0.0, 0.0};
        for (std::size_t k = 0; k + 1 < up_symbols; ++k) {
            accumulated += preamble[k + 1][bin_idx] * std::conj(preamble[k][bin_idx]);
        }
        const double phase_step = std::arg(accumulated);
        report.estimated_tone_offset_hz =
            phase_step / (2.0 * std::numbers::pi * params_.phy.symbol_duration_s());

        ws.window_first.push_back(static_cast<std::uint32_t>(
            wrap(locked - static_cast<std::ptrdiff_t>(slice_radius))));
    }
    lap(hist_preamble_);

    // --- Payload power, made only where the slicing reads it -----------
    const ns::phy::power_windows windows{.first = ws.window_first, .width = width};
    ws.payload_power.resize(payload_symbols * windows.bins());
    if (windows.bins() > 0) round.payload_power(windows, ws.payload_power);
    lap(hist_payload_);

    // --- Payload: ON-OFF slicing against the preamble average ----------
    // Device by device: each detected device's powers are one contiguous
    // run of the answer, width per payload symbol, from one base index.
    // Decisions gather branch-free into 64-bit words; only the ON bits
    // are then set in the freshly cleared report bits.
    const double* power = ws.payload_power.data();
    for (device_report& report : out.reports) {
        if (!report.detected) continue;
        const double threshold = report.preamble_power * params_.slicing_threshold;
        report.bits.assign(payload_symbols, false);
        for (std::size_t first = 0; first < payload_symbols; first += 64) {
            const std::size_t chunk = std::min<std::size_t>(64, payload_symbols - first);
            std::uint64_t on = 0;
            for (std::size_t i = 0; i < chunk; ++i, power += width) {
                double best = 0.0;
                for (std::size_t j = 0; j < width; ++j) best = std::max(best, power[j]);
                on |= std::uint64_t{best > threshold} << i;
            }
            for (; on != 0; on &= on - 1) report.bits[first + std::countr_zero(on)] = true;
        }
    }
    lap(hist_slice_);

    // --- CRC (allocation-free: prefix CRC compared against the trailing
    // bits, then the payload copied into the report's reused buffer) ----
    for (auto& report : out.reports) {
        if (!report.detected) continue;
        const std::vector<bool>& bits = report.bits;
        if (bits.size() != params_.frame.payload_plus_crc_bits() || bits.size() < 8) {
            continue;
        }
        const std::uint8_t expected = ns::util::crc8_prefix(bits, bits.size() - 8);
        std::uint8_t received_crc = 0;
        for (std::size_t i = bits.size() - 8; i < bits.size(); ++i) {
            received_crc =
                static_cast<std::uint8_t>((received_crc << 1) | (bits[i] ? 1 : 0));
        }
        report.crc_ok = received_crc == expected;
        if (report.crc_ok) {
            report.payload.assign(bits.begin(),
                                  bits.end() - static_cast<std::ptrdiff_t>(8));
        }
    }

    lap(hist_crc_);

    if (ctr_decode_calls_ != nullptr) {
        ctr_decode_calls_->add(1);
        ctr_symbols_->add(up_symbols + payload_symbols);
        std::uint64_t detected = 0;
        std::uint64_t crc_ok = 0;
        for (const auto& report : out.reports) {
            detected += report.detected ? 1 : 0;
            crc_ok += report.crc_ok ? 1 : 0;
        }
        ctr_detected_->add(detected);
        ctr_crc_ok_->add(crc_ok);
    }
}

void receiver::set_metrics(ns::obs::metrics_registry* registry) {
    ctr_decode_calls_ =
        registry ? registry->get_counter("rx.decode_calls") : nullptr;
    ctr_symbols_ =
        registry ? registry->get_counter("rx.symbols_processed") : nullptr;
    ctr_detected_ = registry ? registry->get_counter("rx.detected") : nullptr;
    ctr_crc_ok_ = registry ? registry->get_counter("rx.crc_ok") : nullptr;
    const auto timer = [&](const char* name) {
        return registry ? registry->get_histogram(name, ns::obs::origin::host) : nullptr;
    };
    hist_preamble_ = timer("rx.preamble_s");
    hist_payload_ = timer("rx.payload_power_s");
    hist_slice_ = timer("rx.slice_s");
    hist_crc_ = timer("rx.crc_s");
}

void receiver::decode_into(const cvec& stream, std::size_t packet_start,
                           decode_result& out, decode_workspace& ws) const {
    ws.sampled.bind(demod_, stream, packet_start, params_.frame);
    decode_into(ws.sampled, out, ws);
}

decode_result receiver::decode(const cvec& stream, std::size_t packet_start) const {
    decode_result result;
    decode_workspace workspace;
    decode_into(stream, packet_start, result, workspace);
    return result;
}

namespace {

/// Payload symbol `symbol`'s share of a payload_power answer over
/// `symbols` payload symbols, gathered from its full padded spectrum.
void gather_power(const cvec& spectrum, std::size_t padded,
                  const ns::phy::power_windows& windows, std::size_t symbol,
                  std::size_t symbols, std::span<double> out) {
    ns::util::require(spectrum.size() == padded, "decode: spectrum size mismatch");
    double* dst = out.data() + symbol * windows.width;
    for (const std::uint32_t first : windows.first) {
        std::size_t bin = first;
        for (std::size_t j = 0; j < windows.width; ++j, ++bin) {
            if (bin == padded) bin = 0;
            dst[j] = std::norm(spectrum[bin]);
        }
        dst += symbols * windows.width;
    }
}

/// Precomputed spectra (preamble upchirps, then payload symbols) as a
/// dechirped round.
class spectra_round final : public ns::phy::dechirped_round {
public:
    spectra_round(std::span<const cvec> spectra, std::size_t upchirps, std::size_t padded)
        : spectra_(spectra), upchirps_(upchirps), padded_(padded) {}

    std::span<const cvec> preamble_spectra() override { return spectra_.first(upchirps_); }

    void payload_power(const ns::phy::power_windows& windows,
                       std::span<double> out) override {
        const std::span<const cvec> payload = spectra_.subspan(upchirps_);
        for (std::size_t i = 0; i < payload.size(); ++i) {
            gather_power(payload[i], padded_, windows, i, payload.size(), out);
        }
    }

private:
    std::span<const cvec> spectra_;
    std::size_t upchirps_;
    std::size_t padded_;
};

}  // namespace

void receiver::decode_spectra_into(std::span<const cvec> spectra, decode_result& out,
                                   decode_workspace& ws) const {
    const std::size_t up_symbols = ns::phy::distributed_modulator::preamble_upchirps;
    const std::size_t payload_symbols = params_.frame.payload_plus_crc_bits();
    ns::util::require(spectra.size() == up_symbols + payload_symbols,
                      "decode_spectra: expected one spectrum per preamble upchirp "
                      "and payload symbol");
    spectra_round round(spectra, up_symbols, demod_.padded_size());
    decode_into(round, out, ws);
}

void sampled_round::bind(const ns::phy::demodulator& demod,
                         std::span<const ns::dsp::cplx> stream, std::size_t packet_start,
                         const ns::phy::frame_format& frame) {
    const std::size_t sps = demod.params().samples_per_symbol();
    const std::size_t payload_symbols = frame.payload_plus_crc_bits();
    ns::util::require(
        packet_start + (frame.preamble_symbols + payload_symbols) * sps <= stream.size(),
        "decode: stream too short for a full packet");
    demod_ = &demod;
    upchirps_ =
        stream.subspan(packet_start, ns::phy::distributed_modulator::preamble_upchirps * sps);
    payload_ = stream.subspan(packet_start + frame.preamble_symbols * sps,
                              payload_symbols * sps);
}

std::span<const cvec> sampled_round::preamble_spectra() {
    const std::size_t sps = demod_->params().samples_per_symbol();
    spectra_.resize(upchirps_.size() / sps);
    for (std::size_t k = 0; k < spectra_.size(); ++k) {
        demod_->symbol_spectrum_into(upchirps_.subspan(k * sps, sps), spectra_[k]);
    }
    return spectra_;
}

void sampled_round::payload_power(const ns::phy::power_windows& windows,
                                  std::span<double> out) {
    const std::size_t sps = demod_->params().samples_per_symbol();
    const std::size_t symbols = payload_.size() / sps;
    for (std::size_t i = 0; i < symbols; ++i) {
        demod_->symbol_spectrum_into(payload_.subspan(i * sps, sps), payload_spectrum_);
        gather_power(payload_spectrum_, demod_->padded_size(), windows, i, symbols, out);
    }
}

}  // namespace ns::rx
