#include "netscatter/device/envelope_detector.hpp"

#include <cmath>

namespace ns::device {

envelope_detector::envelope_detector(const envelope_detector_params& params,
                                     ns::util::rng rng)
    : params_(&params), rng_(rng) {}

bool envelope_detector::can_decode(double rx_power_dbm) const {
    return rx_power_dbm >= params_->sensitivity_dbm;
}

double envelope_detector::measure_rssi_dbm(double rx_power_dbm) {
    const double noisy = rx_power_dbm + rng_.gaussian(0.0, params_->rssi_noise_sigma_db);
    if (params_->rssi_step_db <= 0.0) return noisy;
    return std::round(noisy / params_->rssi_step_db) * params_->rssi_step_db;
}

}  // namespace ns::device
