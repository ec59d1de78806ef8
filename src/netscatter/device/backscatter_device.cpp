#include "netscatter/device/backscatter_device.hpp"

#include <cmath>

#include "netscatter/util/error.hpp"

namespace ns::device {

backscatter_device::backscatter_device(const device_params& params, std::uint64_t seed)
    : params_(&params),
      rng_(seed),
      detector_(params.detector, rng_.fork()) {
    static_cfo_hz_ = params_->crystal.sample_static_offset_hz(rng_);
}

void backscatter_device::force_associate(std::uint32_t shift,
                                         double baseline_query_rssi_dbm,
                                         std::size_t gain_level) {
    ns::util::require(shift < params_->phy.num_bins(),
                      "force_associate: shift out of range");
    ns::util::require(gain_level < hardware_switch_network().num_levels(),
                      "force_associate: gain level out of range");
    state_ = device_state::associated;
    assigned_shift_ = shift;
    gain_level_ = static_cast<std::uint8_t>(gain_level);
    baseline_rssi_dbm_ = baseline_query_rssi_dbm;
    baseline_gain_db_ = current_gain_db();
    consecutive_skips_ = 0;
}

transmit_intent backscatter_device::handle_query(
    double query_rx_power_dbm, const std::optional<shift_assignment>& assignment) {
    transmit_intent intent;
    if (!detector_.can_decode(query_rx_power_dbm)) {
        intent.action = device_action::none;
        return intent;
    }
    const double measured_rssi = detector_.measure_rssi_dbm(query_rx_power_dbm);

    // Per-packet impairments are sampled for every actual transmission.
    const auto stamp_impairments = [&](transmit_intent& out) {
        out.hardware_delay_s = params_->delay_model.sample_s(rng_);
        out.frequency_offset_hz = static_cfo_hz_ + params_->crystal.sample_drift_hz(rng_);
    };

    switch (state_) {
        case device_state::unassociated: {
            // §3.3.2: pick the association region and the initial power
            // gain from the query strength. A weak query implies a far /
            // low-SNR device: max gain, low-SNR region. A strong query
            // implies a near device: middle gain (leaving headroom both
            // ways), high-SNR region.
            const bool weak = measured_rssi < params_->low_rssi_threshold_dbm;
            gain_level_ = static_cast<std::uint8_t>(association_gain_level(measured_rssi));
            pending_region_ = weak ? snr_region::low : snr_region::high;
            baseline_rssi_dbm_ = measured_rssi;
            baseline_gain_db_ = current_gain_db();

            intent.action = device_action::association_request;
            intent.association_region = pending_region_;
            intent.gain_db = baseline_gain_db_;
            stamp_impairments(intent);
            state_ = device_state::awaiting_ack;
            return intent;
        }
        case device_state::awaiting_ack: {
            if (!assignment.has_value()) {
                // AP has not (yet) answered; keep waiting. The AP repeats
                // the association response in following queries (§3.3.4).
                intent.action = device_action::skip;
                return intent;
            }
            assigned_shift_ = assignment->cyclic_shift;
            state_ = device_state::associated;
            consecutive_skips_ = 0;
            intent.action = device_action::association_ack;
            intent.cyclic_shift = assigned_shift_;
            intent.gain_db = current_gain_db();
            stamp_impairments(intent);
            return intent;
        }
        case device_state::associated: {
            intent = respond_associated(measured_rssi);
            if (intent.action == device_action::transmit_data ||
                intent.action == device_action::association_request) {
                stamp_impairments(intent);
            }
            return intent;
        }
    }
    return intent;  // unreachable
}

transmit_intent backscatter_device::respond_associated(double measured_rssi_dbm) {
    const switch_network& network = hardware_switch_network();
    transmit_intent intent;

    // Fine-grained self-aware power adjustment (§3.2.3): if the downlink
    // query strengthened by d dB, reciprocity implies the round-trip
    // uplink strengthened by about 2d dB, so the device *lowers* its gain
    // by 2d (and raises it when the query weakens).
    const double downlink_delta_db = measured_rssi_dbm - baseline_rssi_dbm_;
    const double desired_gain_db = baseline_gain_db_ - 2.0 * downlink_delta_db;
    const std::size_t level = network.nearest_level(desired_gain_db);
    const double achieved_gain_db = network.gain_db(level);

    // Residual uplink deviation from the association-time operating point
    // after the best available compensation.
    const double residual_db = (achieved_gain_db + 2.0 * downlink_delta_db) - baseline_gain_db_;

    if (std::abs(residual_db) > params_->snr_tolerance_db) {
        ++consecutive_skips_;
        if (consecutive_skips_ >= params_->max_skips) {
            // Re-initiate association so the AP reassigns the shift for the
            // new, significantly different power value (§3.2.3).
            state_ = device_state::unassociated;
            consecutive_skips_ = 0;
            const bool weak = measured_rssi_dbm < params_->low_rssi_threshold_dbm;
            gain_level_ = static_cast<std::uint8_t>(association_gain_level(measured_rssi_dbm));
            pending_region_ = weak ? snr_region::low : snr_region::high;
            baseline_rssi_dbm_ = measured_rssi_dbm;
            baseline_gain_db_ = current_gain_db();
            intent.action = device_action::association_request;
            intent.association_region = pending_region_;
            intent.gain_db = baseline_gain_db_;
            state_ = device_state::awaiting_ack;
            return intent;
        }
        intent.action = device_action::skip;
        return intent;
    }

    consecutive_skips_ = 0;
    gain_level_ = static_cast<std::uint8_t>(level);
    intent.action = device_action::transmit_data;
    intent.cyclic_shift = assigned_shift_;
    intent.gain_db = achieved_gain_db;
    return intent;
}

}  // namespace ns::device
