// Unit conversions used throughout the library: decibel <-> linear power
// ratios, dBm <-> watts, and a few physical constants.
#pragma once

#include <cmath>

namespace ns::util {

/// Speed of light in metres per second.
inline constexpr double speed_of_light_mps = 299'792'458.0;

/// Thermal noise power spectral density at 290 K, in dBm/Hz.
inline constexpr double thermal_noise_dbm_per_hz = -174.0;

/// Converts a power ratio in dB to a linear ratio.
inline double db_to_linear(double db) {
    return std::pow(10.0, db / 10.0);
}

/// Converts a linear power ratio to dB. Requires linear > 0.
inline double linear_to_db(double linear) {
    return 10.0 * std::log10(linear);
}

/// Converts power in dBm to watts.
inline double dbm_to_watt(double dbm) {
    return std::pow(10.0, (dbm - 30.0) / 10.0);
}

/// Converts power in watts to dBm. Requires watt > 0.
inline double watt_to_dbm(double watt) {
    return 10.0 * std::log10(watt) + 30.0;
}

/// Thermal noise floor in dBm for the given bandwidth (Hz) and receiver
/// noise figure (dB): -174 + 10*log10(BW) + NF.
inline double noise_floor_dbm(double bandwidth_hz, double noise_figure_db = 6.0) {
    return thermal_noise_dbm_per_hz + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

}  // namespace ns::util
