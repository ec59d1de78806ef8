#include "netscatter/device/impedance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "netscatter/util/error.hpp"
#include "netscatter/util/units.hpp"

namespace ns::device {

double reflection_coefficient(double impedance_ohm, double reference_ohm) {
    ns::util::require(reference_ohm > 0.0, "reflection_coefficient: bad reference");
    if (std::isinf(impedance_ohm)) return 1.0;
    ns::util::require(impedance_ohm >= 0.0, "reflection_coefficient: negative impedance");
    return (impedance_ohm - reference_ohm) / (impedance_ohm + reference_ohm);
}

double backscatter_power_gain(double z0_ohm, double z1_ohm, double reference_ohm) {
    const double g0 = reflection_coefficient(z0_ohm, reference_ohm);
    const double g1 = reflection_coefficient(z1_ohm, reference_ohm);
    const double diff = g0 - g1;
    return diff * diff / 4.0;
}

double backscatter_power_gain_db(double z0_ohm, double z1_ohm, double reference_ohm) {
    const double gain = backscatter_power_gain(z0_ohm, z1_ohm, reference_ohm);
    return ns::util::linear_to_db(std::max(gain, 1e-30));
}

double z0_for_gain_db(double target_gain_db, double reference_ohm) {
    ns::util::require(target_gain_db <= 0.0, "z0_for_gain_db: gain must be <= 0 dB");
    // With Z1 = inf (Γ1 = 1) and real Z0 in [0, inf), Γ0 in [-1, 1), so
    // |Γ0 - 1| = 1 - Γ0 and gain = (1 - Γ0)^2 / 4.
    const double gain = ns::util::db_to_linear(target_gain_db);
    const double gamma0 = 1.0 - 2.0 * std::sqrt(gain);
    // Γ0 = (Z-R)/(Z+R)  =>  Z = R (1+Γ0)/(1-Γ0).
    return reference_ohm * (1.0 + gamma0) / (1.0 - gamma0);
}

switch_network::switch_network(std::vector<double> gain_levels_db)
    : gains_db_(std::move(gain_levels_db)) {
    ns::util::require(!gains_db_.empty(), "switch_network: need at least one level");
    std::sort(gains_db_.begin(), gains_db_.end(), std::greater<>());
    z0_ohms_.reserve(gains_db_.size());
    for (double g : gains_db_) z0_ohms_.push_back(z0_for_gain_db(g));
}

double switch_network::gain_db(std::size_t index) const {
    ns::util::require(index < gains_db_.size(), "switch_network: level out of range");
    return gains_db_[index];
}

double switch_network::z0_ohm(std::size_t index) const {
    ns::util::require(index < z0_ohms_.size(), "switch_network: level out of range");
    return z0_ohms_[index];
}

const switch_network& hardware_switch_network() {
    static const switch_network network({0.0, -4.0, -10.0});
    return network;
}

std::size_t switch_network::nearest_level(double target_db) const {
    std::size_t best = 0;
    double best_err = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < gains_db_.size(); ++i) {
        const double err = std::abs(gains_db_[i] - target_db);
        if (err < best_err) {
            best_err = err;
            best = i;
        }
    }
    return best;
}

}  // namespace ns::device
