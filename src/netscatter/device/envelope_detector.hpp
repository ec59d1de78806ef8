// Envelope detector model (§4.1).
//
// The device's RF receive side is a passive envelope detector that
// demodulates the AP's ASK query. The COTS hardware achieves -49 dBm
// sensitivity; since the query experiences only one-way path loss, the
// required sensitivity is just -44 dBm (footnote 1). The detector also
// provides the coarse RSSI estimate the device uses for its
// zero-overhead power adaptation (§3.2.3): reciprocity lets the device
// infer its uplink SNR from the query's downlink strength.
#pragma once

#include "netscatter/util/rng.hpp"

namespace ns::device {

/// Envelope detector configuration.
struct envelope_detector_params {
    double sensitivity_dbm = -49.0;   ///< weakest decodable query
    double rssi_noise_sigma_db = 0.5; ///< measurement noise on RSSI estimates
                                      ///< (the query is long enough to average)
    double rssi_step_db = 1.0;        ///< RSSI quantization step (coarse ADC)
};

/// Behavioural envelope detector: decides whether a query is heard and
/// produces a noisy, quantized RSSI estimate. It reads `params` without
/// owning them (every device of a fleet shares one copy), so the params
/// must outlive the detector.
class envelope_detector {
public:
    envelope_detector(const envelope_detector_params& params, ns::util::rng rng);
    /// A temporary would dangle: keep the params alive elsewhere.
    envelope_detector(envelope_detector_params&& params, ns::util::rng rng) = delete;

    /// True when a query at `rx_power_dbm` is strong enough to decode.
    bool can_decode(double rx_power_dbm) const;

    /// Noisy, quantized RSSI estimate of a query at `rx_power_dbm`.
    double measure_rssi_dbm(double rx_power_dbm);

    const envelope_detector_params& params() const { return *params_; }

private:
    const envelope_detector_params* params_;
    ns::util::rng rng_;
};

}  // namespace ns::device
