// Association walkthrough: a narrated run of the NetScatter network
// protocol (Fig. 10) — queries, association requests on reserved shifts,
// piggybacked assignments, ACKs, power adaptation and re-association.
//
// Usage: ./build/examples/association_walkthrough
#include <iomanip>
#include <iostream>

#include "netscatter/netscatter.hpp"

namespace {

const char* action_name(ns::device::device_action action) {
    switch (action) {
        case ns::device::device_action::none: return "silent (query not heard)";
        case ns::device::device_action::association_request: return "ASSOCIATION REQUEST";
        case ns::device::device_action::association_ack: return "ASSOCIATION ACK";
        case ns::device::device_action::transmit_data: return "DATA";
        case ns::device::device_action::skip: return "skip (power out of tolerance)";
    }
    return "?";
}

}  // namespace

int main() {
    const ns::mac::allocation_params alloc{.phy = ns::phy::deployed_params(),
                                           .skip = 2,
                                           .num_association_slots = 2};
    // Each device's request strength at the AP, and the shift it gets.
    ns::mac::vector_device_table table(3);
    table.powers = {0.0, -90.0, -108.0};
    ns::mac::access_point ap(alloc, std::nullopt, table, 3);

    ns::device::device_params dev_params;
    dev_params.detector.rssi_noise_sigma_db = 0.0;
    dev_params.detector.rssi_step_db = 0.0;

    // Device 1 is near the AP (strong query), device 2 far (weak query).
    ns::device::backscatter_device device1(dev_params, 11);
    ns::device::backscatter_device device2(dev_params, 22);
    const double rssi1 = -25.0, rssi2 = -45.0;

    std::cout << "== NetScatter association walkthrough (Fig. 10) ==\n";
    std::cout << "reserved association shifts: high-SNR region -> "
              << ap.allocator().association_shift(ns::device::snr_region::high)
              << ", low-SNR region -> "
              << ap.allocator().association_shift(ns::device::snr_region::low) << "\n\n";

    auto narrate = [&](int round, const char* who, const ns::device::transmit_intent& i) {
        std::cout << "  round " << round << " | " << who << ": " << action_name(i.action);
        if (i.action == ns::device::device_action::association_request) {
            std::cout << " (region "
                      << (i.association_region == ns::device::snr_region::high ? "high"
                                                                               : "low")
                      << ", gain " << i.gain_db << " dB)";
        }
        if (i.action == ns::device::device_action::transmit_data ||
            i.action == ns::device::device_action::association_ack) {
            std::cout << " on shift " << i.cyclic_shift << " at gain " << i.gain_db
                      << " dB";
        }
        std::cout << "\n";
    };

    // Round 1: both devices hear the first query and request association.
    std::cout << "AP broadcasts query 1 (" << ap.build_query().length_bits()
              << " bits on the 160 kbps ASK downlink)\n";
    auto intent1 = device1.handle_query(rssi1, std::nullopt);
    auto intent2 = device2.handle_query(rssi2, std::nullopt);
    narrate(1, "device 1 (near)", intent1);
    narrate(1, "device 2 (far) ", intent2);

    // The AP admits device 1 first (deployment turns devices on one at a
    // time, §3.3.2), then device 2.
    const auto response1 = ap.handle_association_request({1, intent1.association_region}).value();
    std::cout << "AP assigns device 1 -> slot " << int{response1.shift_slot}
              << " (shift " << response1.shift_slot * alloc.skip << ")\n";

    intent1 = device1.handle_query(
        rssi1, ns::device::shift_assignment{
                   .network_id = response1.network_id,
                   .cyclic_shift = static_cast<std::uint32_t>(response1.shift_slot *
                                                              alloc.skip)});
    narrate(2, "device 1 (near)", intent1);
    ap.handle_association_ack(1);

    const auto response2 = ap.handle_association_request({2, intent2.association_region}).value();
    std::cout << "AP assigns device 2 -> slot " << int{response2.shift_slot}
              << " (shift " << response2.shift_slot * alloc.skip << ")\n";
    intent2 = device2.handle_query(
        rssi2, ns::device::shift_assignment{
                   .network_id = response2.network_id,
                   .cyclic_shift = static_cast<std::uint32_t>(response2.shift_slot *
                                                              alloc.skip)});
    narrate(2, "device 2 (far) ", intent2);
    ap.handle_association_ack(2);

    // Rounds 3-5: steady-state data with power adaptation. The channel to
    // device 1 strengthens, so it dials its gain down (§3.2.3).
    std::cout << "\nsteady state: both devices transmit concurrently; device 1's "
                 "channel improves by 2 dB\n";
    for (int round = 3; round <= 5; ++round) {
        const double drift = (round - 2) * 1.0;  // downlink strengthens 1 dB/round
        intent1 = device1.handle_query(rssi1 + drift, std::nullopt);
        intent2 = device2.handle_query(rssi2, std::nullopt);
        narrate(round, "device 1 (near)", intent1);
        narrate(round, "device 2 (far) ", intent2);
    }

    // A drastic channel change forces device 1 to re-associate.
    std::cout << "\ndevice 1 moves next to the AP (+10 dB downlink): tolerance "
                 "exceeded -> skip, skip, re-associate (§3.2.3)\n";
    for (int round = 6; round <= 8; ++round) {
        intent1 = device1.handle_query(rssi1 + 10.0, std::nullopt);
        narrate(round, "device 1 (near)", intent1);
    }
    return 0;
}
