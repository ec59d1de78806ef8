// Fig. 12 — near-far BER with power-aware cyclic-shift assignment.
//
// Victim at FFT bin 2, interferer at bin 258 (the §3.2.3 simulation
// setup), each with Gaussian frequency mismatch of sigma = 300 Hz. The
// interferer transmits 35/40/45 dB *stronger* than the victim; we sweep
// the victim's SNR from -20 to -10 dB and measure its ON-OFF bit error
// rate, against the single-device baseline.
//
// Paper shape: the BER curve is unaffected up to ~40 dB of power
// difference (in practice 35 dB, §4.3) and degrades at 45 dB.
#include <cmath>
#include <iostream>
#include <vector>

#include "netscatter/channel/awgn.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/demodulator.hpp"
#include "netscatter/util/rng.hpp"
#include "netscatter/util/table.hpp"

namespace {

// OOK BER of the victim for one (snr, interferer power) point.
double measure_ber(double victim_snr_db, double interferer_offset_db,
                   bool interferer_present, std::size_t symbols, ns::util::rng& rng) {
    const ns::phy::css_params phy = ns::phy::deployed_params();
    const ns::phy::demodulator demod(phy, 4);
    const std::uint32_t victim_bin = 2, interferer_bin = 258;

    const double victim_amplitude = std::sqrt(std::pow(10.0, victim_snr_db / 10.0));
    const double interferer_amplitude =
        victim_amplitude * std::pow(10.0, interferer_offset_db / 20.0);
    const double n = static_cast<double>(phy.num_bins());
    // Clean peak power of the victim after dechirp+FFT: (N * A)^2;
    // slice at half of that (the receiver's preamble-average threshold).
    const double threshold = 0.5 * (n * victim_amplitude) * (n * victim_amplitude);

    std::size_t errors = 0;
    for (std::size_t s = 0; s < symbols; ++s) {
        const bool bit = rng.bernoulli(0.5);
        ns::dsp::cvec rx(phy.samples_per_symbol(), ns::dsp::cplx{0.0, 0.0});
        if (bit) {
            // Victim chirp with its per-symbol frequency mismatch.
            const double df = rng.gaussian(0.0, 300.0);
            ns::dsp::cvec chirp = ns::phy::make_upchirp(
                phy, static_cast<double>(victim_bin) +
                         phy.bins_from_frequency_offset(df));
            ns::dsp::scale(chirp, ns::dsp::cplx{victim_amplitude, 0.0});
            ns::dsp::accumulate(rx, chirp);
        }
        if (interferer_present && rng.bernoulli(0.5)) {
            const double df = rng.gaussian(0.0, 300.0);
            ns::dsp::cvec chirp = ns::phy::make_upchirp(
                phy, static_cast<double>(interferer_bin) +
                         phy.bins_from_frequency_offset(df));
            ns::dsp::scale(chirp,
                           std::polar(interferer_amplitude, rng.uniform(0.0, 6.2831)));
            ns::dsp::accumulate(rx, chirp);
        }
        ns::channel::add_noise(rx, 1.0, rng);

        const auto power = demod.symbol_power_spectrum(rx);
        const bool decided =
            demod.power_at_offset(power, victim_bin, 0, demod.padding_factor() / 2) > threshold;
        if (decided != bit) ++errors;
    }
    return static_cast<double>(errors) / static_cast<double>(symbols);
}

}  // namespace

int main() {
    ns::util::rng rng(12);
    const std::size_t symbols = 2000;

    ns::util::text_table table(
        "Fig 12: victim BER vs SNR for interferer power offsets (bins 2 vs 258)",
        {"SNR [dB]", "one device", "+35 dB", "+40 dB", "+45 dB"});

    for (double snr = -20.0; snr <= -10.0; snr += 2.0) {
        std::vector<std::string> row{ns::util::format_double(snr, 0)};
        row.push_back(
            ns::util::format_double(measure_ber(snr, 0.0, false, symbols, rng), 4));
        for (double offset : {35.0, 40.0, 45.0}) {
            row.push_back(
                ns::util::format_double(measure_ber(snr, offset, true, symbols, rng), 4));
        }
        table.add_row(row);
    }
    table.print(std::cout);
    std::cout << "\npaper shape: +35/+40 dB curves hug the single-device curve; "
                 "+45 dB departs. BER ~1e-1 at -20 dB falling below 1e-3 by "
                 "-14..-12 dB.\n(" << symbols << " symbols per point)\n";
    return 0;
}
