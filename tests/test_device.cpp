// Unit tests for ns::device — impedance network, envelope detector,
// backscatter device state machine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "netscatter/device/backscatter_device.hpp"
#include "netscatter/device/envelope_detector.hpp"
#include "netscatter/device/impedance.hpp"
#include "netscatter/util/error.hpp"

namespace {

using namespace ns::device;
constexpr double inf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------- impedance --

TEST(impedance, reflection_coefficient_reference_points) {
    EXPECT_DOUBLE_EQ(reflection_coefficient(0.0), -1.0);   // short
    EXPECT_DOUBLE_EQ(reflection_coefficient(inf), 1.0);    // open
    EXPECT_DOUBLE_EQ(reflection_coefficient(50.0), 0.0);   // matched
    EXPECT_NEAR(reflection_coefficient(100.0), 1.0 / 3.0, 1e-12);
}

TEST(impedance, reflection_rejects_negative) {
    EXPECT_THROW(reflection_coefficient(-1.0), ns::util::invalid_argument);
}

TEST(impedance, short_to_open_is_zero_db) {
    // §3.2.3: switching 0 <-> inf maximizes |Γ0 - Γ1|^2/4 = 1 (0 dB).
    EXPECT_NEAR(backscatter_power_gain(0.0, inf), 1.0, 1e-12);
    EXPECT_NEAR(backscatter_power_gain_db(0.0, inf), 0.0, 1e-9);
}

TEST(impedance, matched_to_open_is_minus_six_db) {
    // Γ0 = 0, Γ1 = 1 -> gain = 1/4 = -6.02 dB.
    EXPECT_NEAR(backscatter_power_gain_db(50.0, inf), -6.0206, 1e-3);
}

TEST(impedance, gain_decreases_with_z0) {
    // The Fig. 7a curve: monotonically decreasing gain as Z0 grows.
    double previous = backscatter_power_gain_db(0.0, inf);
    for (double z0 = 50.0; z0 <= 1000.0; z0 += 50.0) {
        const double gain = backscatter_power_gain_db(z0, inf);
        EXPECT_LT(gain, previous) << "z0 " << z0;
        previous = gain;
    }
    // At 1000 ohm the gain is down tens of dB (Fig. 7a shows about -26).
    EXPECT_NEAR(backscatter_power_gain_db(1000.0, inf), -26.4, 1.0);
}

TEST(impedance, z0_for_gain_inverts_gain) {
    for (double target : {0.0, -4.0, -10.0, -20.0}) {
        const double z0 = z0_for_gain_db(target);
        EXPECT_NEAR(backscatter_power_gain_db(z0, inf), target, 1e-9) << target;
    }
    // 0 dB requires a short; positive targets are invalid.
    EXPECT_NEAR(z0_for_gain_db(0.0), 0.0, 1e-9);
    EXPECT_THROW(z0_for_gain_db(1.0), ns::util::invalid_argument);
}

TEST(impedance, hardware_levels_are_paper_values) {
    const switch_network& network = hardware_switch_network();
    ASSERT_EQ(network.num_levels(), 3u);
    EXPECT_DOUBLE_EQ(network.gain_db(0), 0.0);
    EXPECT_DOUBLE_EQ(network.gain_db(1), -4.0);
    EXPECT_DOUBLE_EQ(network.gain_db(2), -10.0);
}

TEST(switch_network, levels_sorted_strongest_first) {
    const switch_network network({-10.0, 0.0, -4.0});
    EXPECT_DOUBLE_EQ(network.gain_db(0), 0.0);
    EXPECT_DOUBLE_EQ(network.gain_db(1), -4.0);
    EXPECT_DOUBLE_EQ(network.gain_db(2), -10.0);
    EXPECT_EQ(network.max_level(), 0u);
    EXPECT_EQ(network.middle_level(), 1u);
}

TEST(switch_network, impedances_realize_gains) {
    const switch_network& network = hardware_switch_network();
    for (std::size_t level = 0; level < network.num_levels(); ++level) {
        EXPECT_NEAR(backscatter_power_gain_db(network.z0_ohm(level), inf),
                    network.gain_db(level), 1e-9);
    }
}

TEST(switch_network, nearest_level) {
    const switch_network& network = hardware_switch_network();  // {0, -4, -10}
    EXPECT_EQ(network.nearest_level(0.5), 0u);
    EXPECT_EQ(network.nearest_level(-3.0), 1u);
    EXPECT_EQ(network.nearest_level(-8.0), 2u);
    EXPECT_EQ(network.nearest_level(-40.0), 2u);
}

TEST(switch_network, rejects_empty) {
    EXPECT_THROW(switch_network(std::vector<double>{}), ns::util::invalid_argument);
}

// --------------------------------------------------- envelope detector --

TEST(envelope_detector, sensitivity_threshold) {
    const envelope_detector_params params{.sensitivity_dbm = -49.0};
    envelope_detector detector(params, ns::util::rng(1));
    EXPECT_TRUE(detector.can_decode(-48.0));
    EXPECT_TRUE(detector.can_decode(-49.0));
    EXPECT_FALSE(detector.can_decode(-50.0));
}

TEST(envelope_detector, rssi_quantized) {
    const envelope_detector_params params{
        .sensitivity_dbm = -49.0, .rssi_noise_sigma_db = 0.0, .rssi_step_db = 2.0};
    envelope_detector detector(params, ns::util::rng(2));
    const double rssi = detector.measure_rssi_dbm(-33.3);
    EXPECT_DOUBLE_EQ(std::fmod(rssi, 2.0), 0.0);
    EXPECT_NEAR(rssi, -33.3, 1.0);
}

TEST(envelope_detector, rssi_noise_spread) {
    const envelope_detector_params params{
        .sensitivity_dbm = -49.0, .rssi_noise_sigma_db = 1.0, .rssi_step_db = 0.0};
    envelope_detector detector(params, ns::util::rng(3));
    double min = 0.0, max = -100.0;
    for (int i = 0; i < 1000; ++i) {
        const double r = detector.measure_rssi_dbm(-30.0);
        min = std::min(min, r);
        max = std::max(max, r);
    }
    EXPECT_LT(min, -30.5);
    EXPECT_GT(max, -29.5);
}

// --------------------------------------------------- backscatter device --

/// Noise-free configuration shared by the devices below (a device reads
/// its params without owning them).
const device_params& quiet_params() {
    static const device_params params = [] {
        device_params p;
        p.detector.rssi_noise_sigma_db = 0.0;
        p.detector.rssi_step_db = 0.0;
        p.crystal.tolerance_ppm = 0.0;
        p.crystal.drift_sigma_hz = 0.0;
        return p;
    }();
    return params;
}

TEST(backscatter_device, silent_below_detector_sensitivity) {
    backscatter_device device(quiet_params(), 1);
    const auto intent = device.handle_query(-60.0, std::nullopt);
    EXPECT_EQ(intent.action, device_action::none);
    EXPECT_EQ(device.state(), device_state::unassociated);
}

TEST(backscatter_device, association_request_strong_query_middle_gain) {
    backscatter_device device(quiet_params(), 2);
    const auto intent = device.handle_query(-25.0, std::nullopt);
    EXPECT_EQ(intent.action, device_action::association_request);
    EXPECT_EQ(intent.association_region, snr_region::high);
    EXPECT_DOUBLE_EQ(intent.gain_db, -4.0);  // middle level, §3.2.3
    EXPECT_EQ(device.state(), device_state::awaiting_ack);
}

TEST(backscatter_device, association_request_weak_query_max_gain) {
    backscatter_device device(quiet_params(), 3);
    const auto intent = device.handle_query(-45.0, std::nullopt);
    EXPECT_EQ(intent.action, device_action::association_request);
    EXPECT_EQ(intent.association_region, snr_region::low);
    EXPECT_DOUBLE_EQ(intent.gain_db, 0.0);  // maximum level
}

TEST(backscatter_device, ack_follows_assignment) {
    backscatter_device device(quiet_params(), 4);
    device.handle_query(-30.0, std::nullopt);
    // No assignment yet: the device waits.
    auto intent = device.handle_query(-30.0, std::nullopt);
    EXPECT_EQ(intent.action, device_action::skip);
    // Assignment arrives: the device ACKs on the assigned shift.
    intent = device.handle_query(-30.0, shift_assignment{.network_id = 7, .cyclic_shift = 84});
    EXPECT_EQ(intent.action, device_action::association_ack);
    EXPECT_EQ(intent.cyclic_shift, 84u);
    EXPECT_EQ(device.state(), device_state::associated);
    EXPECT_EQ(device.cyclic_shift(), 84u);
}

TEST(backscatter_device, transmits_data_when_associated) {
    backscatter_device device(quiet_params(), 5);
    device.force_associate(100, -30.0, 1);  // middle gain baseline
    const auto intent = device.handle_query(-30.0, std::nullopt);
    EXPECT_EQ(intent.action, device_action::transmit_data);
    EXPECT_EQ(intent.cyclic_shift, 100u);
    EXPECT_DOUBLE_EQ(intent.gain_db, -4.0);
}

TEST(backscatter_device, stronger_query_lowers_gain) {
    // Downlink up 3 dB => uplink up ~6 dB => desired gain -4-6 = -10 dB.
    backscatter_device device(quiet_params(), 6);
    device.force_associate(100, -30.0, 1);
    const auto intent = device.handle_query(-27.0, std::nullopt);
    EXPECT_EQ(intent.action, device_action::transmit_data);
    EXPECT_DOUBLE_EQ(intent.gain_db, -10.0);
}

TEST(backscatter_device, weaker_query_raises_gain) {
    backscatter_device device(quiet_params(), 7);
    device.force_associate(100, -30.0, 1);
    const auto intent = device.handle_query(-32.0, std::nullopt);  // down 2 dB
    EXPECT_EQ(intent.action, device_action::transmit_data);
    EXPECT_DOUBLE_EQ(intent.gain_db, 0.0);  // -4 + 4 = 0
}

TEST(backscatter_device, out_of_tolerance_skips_then_reassociates) {
    // Downlink up 10 dB => uplink up 20 dB; even the -10 dB floor leaves
    // +14 dB of residual — the device must skip, and after max_skips
    // consecutive skips re-initiate association (§3.2.3).
    backscatter_device device(quiet_params(), 8);
    device.force_associate(100, -30.0, 1);
    auto intent = device.handle_query(-20.0, std::nullopt);
    EXPECT_EQ(intent.action, device_action::skip);
    intent = device.handle_query(-20.0, std::nullopt);
    EXPECT_EQ(intent.action, device_action::association_request);
    EXPECT_EQ(device.state(), device_state::awaiting_ack);
}

TEST(backscatter_device, recovers_after_single_skip) {
    backscatter_device device(quiet_params(), 9);
    device.force_associate(100, -30.0, 1);
    auto intent = device.handle_query(-20.0, std::nullopt);  // skip 1
    EXPECT_EQ(intent.action, device_action::skip);
    intent = device.handle_query(-30.0, std::nullopt);  // back to baseline
    EXPECT_EQ(intent.action, device_action::transmit_data);
    EXPECT_EQ(device.state(), device_state::associated);
}

TEST(backscatter_device, per_packet_impairments_sampled) {
    device_params params = quiet_params();
    params.crystal.tolerance_ppm = 50.0;
    params.crystal.operating_frequency_hz = 3e6;
    params.crystal.drift_sigma_hz = 10.0;
    backscatter_device device(params, 10);
    device.force_associate(10, -30.0, 1);
    const auto a = device.handle_query(-30.0, std::nullopt);
    const auto b = device.handle_query(-30.0, std::nullopt);
    // Hardware delay and CFO drift differ packet to packet.
    EXPECT_NE(a.hardware_delay_s, b.hardware_delay_s);
    EXPECT_NE(a.frequency_offset_hz, b.frequency_offset_hz);
    // Static CFO bounded by the crystal tolerance (150 Hz at 3 MHz/50 ppm).
    EXPECT_LE(std::abs(device.static_frequency_offset_hz()), 150.0);
}

TEST(backscatter_device, force_associate_validates) {
    backscatter_device device(quiet_params(), 11);
    EXPECT_THROW(device.force_associate(512, -30.0, 0), ns::util::invalid_argument);
    EXPECT_THROW(device.force_associate(10, -30.0, 9), ns::util::invalid_argument);
}

}  // namespace
