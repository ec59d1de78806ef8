#include "netscatter/device/backscatter_device.hpp"

#include <cmath>

#include "netscatter/util/error.hpp"

namespace ns::device {

std::size_t association_gain_level(const device_params& params, double query_rssi_dbm) {
    const switch_network& network = hardware_switch_network();
    return query_rssi_dbm < params.low_rssi_threshold_dbm ? network.max_level()
                                                          : network.middle_level();
}

void device_association::force(const device_params& params, std::uint32_t shift,
                               double baseline_query_rssi_dbm, std::size_t level) {
    ns::util::require(shift < params.phy.num_bins(),
                      "force_associate: shift out of range");
    ns::util::require(level < hardware_switch_network().num_levels(),
                      "force_associate: gain level out of range");
    state = device_state::associated;
    assigned_shift = shift;
    gain_level = static_cast<std::uint8_t>(level);
    baseline_rssi_dbm = baseline_query_rssi_dbm;
    baseline_gain_level = gain_level;
    consecutive_skips = 0;
}

snr_region device_association::begin(const device_params& params, double measured_rssi_dbm) {
    // §3.3.2: a weak query implies a far / low-SNR device: max gain,
    // low-SNR region. A strong query implies a near device: middle gain
    // (leaving headroom both ways), high-SNR region.
    gain_level = static_cast<std::uint8_t>(association_gain_level(params, measured_rssi_dbm));
    baseline_rssi_dbm = measured_rssi_dbm;
    baseline_gain_level = gain_level;
    return measured_rssi_dbm < params.low_rssi_threshold_dbm ? snr_region::low
                                                             : snr_region::high;
}

namespace {

/// An associated device's response to a query it measured at
/// `measured_rssi_dbm`; draws nothing.
transmit_intent respond_associated(const device_params& params,
                                   device_association& association,
                                   double measured_rssi_dbm) {
    const switch_network& network = hardware_switch_network();
    const double baseline_gain_db = network.gain_db(association.baseline_gain_level);
    transmit_intent intent;

    // Fine-grained self-aware power adjustment (§3.2.3): if the downlink
    // query strengthened by d dB, reciprocity implies the round-trip
    // uplink strengthened by about 2d dB, so the device *lowers* its gain
    // by 2d (and raises it when the query weakens).
    const double downlink_delta_db = measured_rssi_dbm - association.baseline_rssi_dbm;
    const double desired_gain_db = baseline_gain_db - 2.0 * downlink_delta_db;
    const std::size_t level = network.nearest_level(desired_gain_db);
    const double achieved_gain_db = network.gain_db(level);

    // Residual uplink deviation from the association-time operating point
    // after the best available compensation.
    const double residual_db = (achieved_gain_db + 2.0 * downlink_delta_db) - baseline_gain_db;

    if (std::abs(residual_db) > params.snr_tolerance_db) {
        ++association.consecutive_skips;
        if (association.consecutive_skips >= params.max_skips) {
            // Re-initiate association so the AP reassigns the shift for the
            // new, significantly different power value (§3.2.3).
            association.consecutive_skips = 0;
            intent.action = device_action::association_request;
            intent.association_region = association.begin(params, measured_rssi_dbm);
            intent.gain_db = association.current_gain_db();
            association.state = device_state::awaiting_ack;
            return intent;
        }
        intent.action = device_action::skip;
        return intent;
    }

    association.consecutive_skips = 0;
    association.gain_level = static_cast<std::uint8_t>(level);
    intent.action = device_action::transmit_data;
    intent.cyclic_shift = association.assigned_shift;
    intent.gain_db = achieved_gain_db;
    return intent;
}

}  // namespace

device_radio::device_radio(const device_params& params, std::uint64_t seed)
    : params_(&params),
      rng_(seed),
      detector_(params.detector, rng_.fork()) {
    static_cfo_hz_ = params_->crystal.sample_static_offset_hz(rng_);
}

transmit_intent device_radio::handle_query(
    device_association& association, double query_rx_power_dbm,
    const std::optional<shift_assignment>& assignment) {
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

    switch (association.state) {
        case device_state::unassociated: {
            // §3.3.2: pick the association region and the initial power
            // gain from the query strength.
            intent.action = device_action::association_request;
            intent.association_region = association.begin(*params_, measured_rssi);
            intent.gain_db = association.current_gain_db();
            stamp_impairments(intent);
            association.state = device_state::awaiting_ack;
            return intent;
        }
        case device_state::awaiting_ack: {
            if (!assignment.has_value()) {
                // AP has not (yet) answered; keep waiting. The AP repeats
                // the association response in following queries (§3.3.4).
                intent.action = device_action::skip;
                return intent;
            }
            association.assigned_shift = assignment->cyclic_shift;
            association.state = device_state::associated;
            association.consecutive_skips = 0;
            intent.action = device_action::association_ack;
            intent.cyclic_shift = association.assigned_shift;
            intent.gain_db = association.current_gain_db();
            stamp_impairments(intent);
            return intent;
        }
        case device_state::associated: {
            intent = respond_associated(*params_, association, measured_rssi);
            if (intent.action == device_action::transmit_data ||
                intent.action == device_action::association_request) {
                stamp_impairments(intent);
            }
            return intent;
        }
    }
    return intent;  // unreachable
}

}  // namespace ns::device
