// Behavioural model of one NetScatter backscatter device.
//
// This is the control-plane state machine of §3.2.3 and §3.3.4:
//
//   unassociated --query heard--> sends Association Request on one of the
//        reserved association shifts (region chosen from the query RSSI);
//        initial power gain: max if the query is weak, middle otherwise.
//   awaiting_ack --query carries my assignment--> stores the cyclic shift
//        and replies with an Association ACK on that shift.
//   associated --every query--> fine-grained self-aware power adjustment:
//        the query RSSI is compared with the association baseline; if the
//        downlink strengthened by d dB the uplink strengthened ~2d dB
//        (reciprocity, round-trip), so the device lowers its gain
//        accordingly (and vice versa). If no available level can bring the
//        uplink back within tolerance, the device skips the round; after
//        `max_skips` consecutive skips it re-initiates association so the
//        AP can reassign its cyclic shift (§3.2.3).
//
// Per packet the device also samples its hardware delay (MCU + envelope
// detector + FPGA latency jitter, §3.2.1) and its residual frequency
// offset (static crystal offset + packet-to-packet drift, §3.2.2), which
// the channel model turns into FFT-bin displacement.
#pragma once

#include <cstdint>
#include <optional>

#include "netscatter/channel/impairments.hpp"
#include "netscatter/device/envelope_detector.hpp"
#include "netscatter/device/impedance.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::device {

/// What the device decides to do in response to one AP query.
enum class device_action {
    none,                 ///< query not heard (below detector sensitivity)
    association_request,  ///< transmit on a reserved association shift
    association_ack,      ///< confirm a received assignment
    transmit_data,        ///< normal concurrent data transmission
    skip,                 ///< stay silent this round (power out of tolerance)
};

/// Association-region choice for an incoming device (§3.3.2): the device
/// picks the high- or low-SNR association shift from the query RSSI.
enum class snr_region : std::uint8_t { high, low };

/// A cyclic-shift assignment delivered in the AP query (Fig. 11).
struct shift_assignment {
    std::uint8_t network_id = 0;
    std::uint32_t cyclic_shift = 0;
};

/// The device's full response to one query.
struct transmit_intent {
    device_action action = device_action::none;
    std::uint32_t cyclic_shift = 0;      ///< shift used for this transmission
    snr_region association_region = snr_region::high;  ///< for association requests
    double gain_db = 0.0;                ///< selected transmit power gain
    double hardware_delay_s = 0.0;       ///< sampled per-packet timing offset
    double frequency_offset_hz = 0.0;    ///< sampled per-packet CFO
};

/// Static configuration of a device.
struct device_params {
    ns::phy::css_params phy{};
    envelope_detector_params detector{};
    ns::channel::hardware_delay_model delay_model{};
    ns::channel::crystal_model crystal{};

    /// Query RSSI below which an associating device picks max gain and the
    /// low-SNR association region (§3.2.3 / §3.3.2).
    double low_rssi_threshold_dbm = -38.0;

    /// Maximum deviation of the compensated uplink power from the
    /// association baseline before the device skips the round, dB. Must
    /// comfortably exceed the combined RSSI measurement noise and the
    /// coarseness of the three gain levels; the SKIP=2 allocation has an
    /// in-built ~5 dB resilience to channel variation (§4.3) and the
    /// power-aware assignment tolerates far more for distant bins.
    double snr_tolerance_db = 6.0;

    /// Consecutive skips before re-initiating association ("more than
    /// twice" in §3.2.3 — two skips trigger re-association).
    int max_skips = 2;
};

/// Association lifecycle state.
enum class device_state : std::uint8_t { unassociated, awaiting_ack, associated };

/// Gain level an association at `query_rssi_dbm` starts from (§3.2.3):
/// max when the query is weak, middle otherwise.
std::size_t association_gain_level(const device_params& params, double query_rssi_dbm);

/// The association half of a device: its lifecycle state, its assigned
/// shift and the gain operating point its power adjustment holds. It
/// draws nothing, so an AP's control plane can read and rewrite it for a
/// device whose radio (device_radio) does not exist yet.
struct device_association {
    double baseline_rssi_dbm = 0.0;        ///< query RSSI at association
    std::uint32_t assigned_shift = 0;      ///< only meaningful when associated
    std::int32_t consecutive_skips = 0;
    std::uint8_t gain_level = 0;           ///< index into the switch network's levels
    std::uint8_t baseline_gain_level = 0;  ///< gain level selected at association
    device_state state = device_state::unassociated;

    /// Currently selected power gain in dB.
    double current_gain_db() const { return hardware_switch_network().gain_db(gain_level); }

    /// Forces the associated state with the given shift (see
    /// backscatter_device::force_associate); `params` bound the shift and
    /// the gain level.
    void force(const device_params& params, std::uint32_t shift,
               double baseline_query_rssi_dbm, std::size_t level);

    /// Starts an association at the measured query RSSI (§3.3.2): selects
    /// the association gain, takes the measurement as the new baseline and
    /// returns the association region. The state is left to the caller.
    snr_region begin(const device_params& params, double measured_rssi_dbm);
};

/// The draw-bearing half of a device: its generator, its envelope
/// detector (with a generator forked from the first) and the static
/// crystal offset drawn at construction. Every draw depends only on the
/// seed and the queries answered so far, so a radio built late from a
/// seed answers exactly as one built early from it that answered nothing
/// in between. Like the device, it reads `params` without owning them.
class device_radio {
public:
    device_radio(const device_params& params, std::uint64_t seed);
    /// A temporary would dangle: keep the params alive elsewhere.
    device_radio(device_params&& params, std::uint64_t seed) = delete;

    /// Processes one AP query for the device whose association state is
    /// `association` (see backscatter_device::handle_query).
    transmit_intent handle_query(device_association& association, double query_rx_power_dbm,
                                 const std::optional<shift_assignment>& assignment);

    /// Static crystal frequency offset of this device, Hz.
    double static_frequency_offset_hz() const { return static_cfo_hz_; }

    const device_params& params() const { return *params_; }

private:
    const device_params* params_;
    ns::util::rng rng_;
    envelope_detector detector_;
    double static_cfo_hz_ = 0.0;
};

/// One backscatter device: its radio and its association state.
///
/// A device holds only its own state; it reads its static configuration
/// from a `device_params` it does not own, so a fleet of devices shares
/// one copy. The params must outlive the device.
class backscatter_device {
public:
    /// `seed` makes the device's stochastic behaviour (delays, CFO, RSSI
    /// noise) reproducible. The caller identifies the device by where it
    /// keeps it (the simulator: its slot index).
    backscatter_device(const device_params& params, std::uint64_t seed)
        : radio_(params, seed) {}
    /// A temporary would dangle: keep the params alive elsewhere.
    backscatter_device(device_params&& params, std::uint64_t seed) = delete;

    /// Processes one AP query. `query_rx_power_dbm` is the true received
    /// downlink power at the device (the detector adds measurement noise);
    /// `assignment` carries this device's shift when the AP piggybacked
    /// one (Fig. 11 optional fields).
    transmit_intent handle_query(double query_rx_power_dbm,
                                 const std::optional<shift_assignment>& assignment) {
        return radio_.handle_query(association_, query_rx_power_dbm, assignment);
    }

    /// Current lifecycle state.
    device_state state() const { return association_.state; }

    /// Assigned cyclic shift; only meaningful when associated.
    std::uint32_t cyclic_shift() const { return association_.assigned_shift; }

    /// Currently selected power gain in dB.
    double current_gain_db() const { return association_.current_gain_db(); }

    /// Gain level an association at `query_rssi_dbm` starts from
    /// (§3.2.3): max when the query is weak, middle otherwise.
    std::size_t association_gain_level(double query_rssi_dbm) const {
        return ns::device::association_gain_level(params(), query_rssi_dbm);
    }

    /// Static crystal frequency offset of this device, Hz.
    double static_frequency_offset_hz() const { return radio_.static_frequency_offset_hz(); }

    const device_params& params() const { return radio_.params(); }

    /// Forces the associated state with the given shift — used by tests
    /// and by experiments that bypass the association handshake (the
    /// deployment in §3.3.2 associates devices one at a time up front).
    void force_associate(std::uint32_t shift, double baseline_query_rssi_dbm,
                         std::size_t gain_level) {
        association_.force(params(), shift, baseline_query_rssi_dbm, gain_level);
    }

private:
    device_radio radio_;
    device_association association_;
};

}  // namespace ns::device
