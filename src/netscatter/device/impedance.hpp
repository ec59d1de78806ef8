// Backscatter impedance switch network (§3.2.3, Fig. 7).
//
// A backscatter transmitter conveys bits by toggling its antenna between
// two impedances Z0 and Z1; the radiated power gain is
//     Gain = |Γ0 - Γ1|^2 / 4,   Γ = (Z - Z_ant) / (Z + Z_ant).
// Classic designs switch 0 <-> inf for |(-1) - 1|^2/4 = 1 (0 dB). NetScatter
// instead switches from intermediate Z0 values to realize multiple power
// levels — the hardware implements 0, -4 and -10 dB (Fig. 16) with a
// cascade of RF switches (Fig. 7b). We model the same physics with real
// impedances (reactive parts omitted; they only rotate Γ's phase, which
// the magnitude-based gain does not see).
#pragma once

#include <complex>
#include <vector>

namespace ns::device {

/// Antenna reference impedance (ohms).
inline constexpr double antenna_impedance_ohm = 50.0;

/// Reflection coefficient Γ = (Z - Z_ant)/(Z + Z_ant) for a real load.
/// An open circuit (Z = +inf) is represented by Γ = +1; pass
/// std::numeric_limits<double>::infinity().
double reflection_coefficient(double impedance_ohm,
                              double reference_ohm = antenna_impedance_ohm);

/// Backscatter power gain |Γ0 - Γ1|^2 / 4 (linear) for switching between
/// loads Z0 and Z1.
double backscatter_power_gain(double z0_ohm, double z1_ohm,
                              double reference_ohm = antenna_impedance_ohm);

/// Same, in dB (relative to the 0 dB maximum of a 0 <-> inf switch).
double backscatter_power_gain_db(double z0_ohm, double z1_ohm,
                                 double reference_ohm = antenna_impedance_ohm);

/// Finds the real Z0 (with Z1 = inf) that realizes `target_gain_db`
/// (<= 0). Closed form: |Γ0 - 1| = 2*sqrt(gain) with Γ0 = (Z0-50)/(Z0+50).
double z0_for_gain_db(double target_gain_db,
                      double reference_ohm = antenna_impedance_ohm);

/// A configured switch network: a set of discrete gain levels, each
/// backed by the impedance that realizes it.
class switch_network {
public:
    /// Builds a network for the given gain levels (dB, each <= 0).
    explicit switch_network(std::vector<double> gain_levels_db);

    /// Number of selectable power levels.
    std::size_t num_levels() const { return gains_db_.size(); }

    /// Gain of level `index` in dB (level 0 is the strongest).
    double gain_db(std::size_t index) const;

    /// Impedance Z0 used for level `index` (Z1 is an open circuit).
    double z0_ohm(std::size_t index) const;

    /// Index of the strongest level (maximum gain).
    std::size_t max_level() const { return 0; }

    /// Index of the middle level (the association default for high-RSSI
    /// devices, §3.2.3).
    std::size_t middle_level() const { return gains_db_.size() / 2; }

    /// Index whose gain is closest to `target_db`.
    std::size_t nearest_level(double target_db) const;

private:
    std::vector<double> gains_db_;   // sorted descending (0 dB first)
    std::vector<double> z0_ohms_;
};

/// The NetScatter hardware's network — 0, -4 and -10 dB (Fig. 16) —
/// built once and shared by every device.
const switch_network& hardware_switch_network();

}  // namespace ns::device
