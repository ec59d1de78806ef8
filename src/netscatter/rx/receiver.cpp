#include "netscatter/rx/receiver.hpp"

#include <algorithm>
#include <cmath>
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

template <typename SpectrumAt>
void receiver::decode_core(SpectrumAt&& spectrum_at, decode_result& out,
                           decode_workspace& ws) const {
    const std::size_t payload_symbols = params_.frame.payload_plus_crc_bits();
    const std::size_t up_symbols = ns::phy::distributed_modulator::preamble_upchirps;
    const std::size_t n_shifts = shifts_.size();

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

    for (std::size_t k = 0; k < up_symbols; ++k) {
        const cvec& spectrum = spectrum_at(k);
        ns::util::require(spectrum.size() == demod_.padded_size(),
                          "decode: spectrum size mismatch");
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
        const std::size_t padded = demod_.padded_size();
        const auto base =
            static_cast<std::ptrdiff_t>(static_cast<std::size_t>(shifts_[d]) *
                                        demod_.padding_factor()) +
            ws.locked_offset[d];
        const std::size_t bin_idx = static_cast<std::size_t>(
            ((base % static_cast<std::ptrdiff_t>(padded)) +
             static_cast<std::ptrdiff_t>(padded)) %
            static_cast<std::ptrdiff_t>(padded));
        ns::dsp::cplx accumulated{0.0, 0.0};
        for (std::size_t k = 0; k + 1 < up_symbols; ++k) {
            accumulated += spectrum_at(k + 1)[bin_idx] * std::conj(spectrum_at(k)[bin_idx]);
        }
        const double phase_step = std::arg(accumulated);
        report.estimated_tone_offset_hz =
            phase_step / (2.0 * std::numbers::pi * params_.phy.symbol_duration_s());
    }

    // --- Payload: ON-OFF slicing against half the preamble average -----
    const std::size_t slice_radius =
        std::max<std::size_t>(1, demod_.padding_factor() / 4);
    for (std::size_t i = 0; i < payload_symbols; ++i) {
        const cvec& spectrum = spectrum_at(up_symbols + i);
        ns::util::require(spectrum.size() == demod_.padded_size(),
                          "decode: spectrum size mismatch");
        ns::dsp::power_spectrum_into(spectrum, ws.power);
        for (std::size_t d = 0; d < n_shifts; ++d) {
            if (!out.reports[d].detected) continue;
            const double p = demod_.power_at_offset(ws.power, shifts_[d],
                                                    ws.locked_offset[d], slice_radius);
            out.reports[d].bits.push_back(
                p > out.reports[d].preamble_power * params_.slicing_threshold);
        }
    }

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
}

void receiver::decode_into(const cvec& stream, std::size_t packet_start,
                           decode_result& out, decode_workspace& ws) const {
    const std::size_t sps = params_.phy.samples_per_symbol();
    const std::size_t payload_symbols = params_.frame.payload_plus_crc_bits();
    const std::size_t total_symbols = params_.frame.preamble_symbols + payload_symbols;
    ns::util::require(packet_start + total_symbols * sps <= stream.size(),
                      "decode: stream too short for a full packet");

    const std::size_t up_symbols = ns::phy::distributed_modulator::preamble_upchirps;
    const std::size_t payload_begin = packet_start + params_.frame.preamble_symbols * sps;

    // Complex spectra are kept for the whole preamble so per-device
    // residual tone offsets can be estimated from phase progression;
    // payload symbols stream through one reused buffer.
    const std::span<const ns::dsp::cplx> samples(stream);
    ws.preamble_spectra.resize(up_symbols);
    for (std::size_t k = 0; k < up_symbols; ++k) {
        demod_.symbol_spectrum_into(samples.subspan(packet_start + k * sps, sps),
                                    ws.preamble_spectra[k]);
    }

    decode_core(
        [&](std::size_t g) -> const cvec& {
            if (g < up_symbols) return ws.preamble_spectra[g];
            const std::size_t i = g - up_symbols;
            demod_.symbol_spectrum_into(samples.subspan(payload_begin + i * sps, sps),
                                        ws.payload_spectrum);
            return ws.payload_spectrum;
        },
        out, ws);
}

decode_result receiver::decode(const cvec& stream, std::size_t packet_start) const {
    decode_result result;
    decode_workspace workspace;
    decode_into(stream, packet_start, result, workspace);
    return result;
}

void receiver::decode_spectra_into(std::span<const cvec> spectra, decode_result& out,
                                   decode_workspace& ws) const {
    const std::size_t up_symbols = ns::phy::distributed_modulator::preamble_upchirps;
    const std::size_t payload_symbols = params_.frame.payload_plus_crc_bits();
    ns::util::require(spectra.size() == up_symbols + payload_symbols,
                      "decode_spectra: expected one spectrum per preamble upchirp "
                      "and payload symbol");
    decode_core([&](std::size_t g) -> const cvec& { return spectra[g]; }, out, ws);
}

}  // namespace ns::rx
