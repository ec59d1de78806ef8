// Per-round injection points of the network simulator.
//
// The simulator's default behaviour is the paper's deployment: a fixed,
// fully-associated population in which every device is saturated with
// data. A scenario (scenario/) varies every one of those axes — which
// devices are members (churn), who has data (traffic), what each link
// budget is (mobility) and what else occupies the band (interference) —
// by implementing this hook interface. The simulator stays ignorant of
// the models behind the hooks; it only applies their per-round plan, so
// any combination of dynamics runs through the same association,
// allocation and decode machinery.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netscatter/channel/superposition.hpp"

namespace ns::sim {

/// Mobility-driven update of one device's link budget for a round. The
/// scenario re-derives path loss, walls and Doppler from the device's
/// new position and hands the simulator the resulting budget.
struct link_update {
    std::uint32_t device_id = 0;
    double query_rssi_dbm = 0.0;  ///< downlink power at the device
    double uplink_rx_dbm = 0.0;   ///< backscatter power at the AP, 0 dB gain
    double tof_s = 0.0;           ///< one-way propagation time of flight
    double doppler_hz = 0.0;      ///< radial Doppler shift this round
};

/// Everything a scenario may inject into one simulator round.
struct round_plan {
    /// Devices (re)entering the network this round. The AP assigns each a
    /// cyclic-shift slot incrementally, falling back to a full
    /// reassignment when the incremental allocator cannot fit it.
    std::vector<std::uint32_t> joins;
    /// Devices leaving this round; their slots are freed.
    std::vector<std::uint32_t> leaves;
    /// Per-device link-budget updates (mobility).
    std::vector<link_update> link_updates;
    /// Extra in-band transmissions (tones, foreign CSS frames) summed
    /// into the superposition channel before the receiver runs.
    /// Non-owning: the descriptions and the symbol values they view must
    /// stay valid until the round completes (the producing source owns
    /// them per round).
    std::span<const ns::channel::interferer_contribution> interference;
    /// Co-channel NetScatter packets: a second AP's network (distinct
    /// network_id) sharing the band. Being standard packets they are
    /// described symbolically and superposed on either synthesis path:
    /// the sample path renders each one's samples like an own row, the
    /// fast path sums their Dirichlet kernels.
    /// frame_bits/taps spans must stay valid until the round completes
    /// (the producing source typically owns the storage per round).
    std::vector<ns::channel::packet_contribution> cochannel;
};

/// Why a device lost its association mid-run (control-plane faults).
enum class member_loss_reason {
    reboot,          ///< brownout/reboot: device lost shift + group state
    missed_queries,  ///< device-side missed-query counter tripped
    lease_eviction,  ///< AP-side membership lease evicted a silent device
    ack_timeout,     ///< association handshake abandoned (ACK retry cap)
};

/// Hook interface the simulator consults every round. All methods have
/// neutral defaults, so a default-constructed hooks object reproduces
/// the static, saturated simulator, with one difference: when power
/// adaptation sends a device back to association, a hooked simulator
/// re-places it with the incremental allocator (possibly on another
/// shift), while the hook-less one keeps its slot. Outcomes are equal
/// until the first such re-association; fading well above the default
/// 1.5 dB makes them diverge (12 devices placed with seed 13, 40 rounds,
/// fading_sigma_db = 4, seed 1: 416 packets delivered without hooks, 411
/// with). Ids outside the deployment are ignored.
class round_hooks {
public:
    virtual ~round_hooks() = default;

    /// Device ids associated before round 0. std::nullopt (default)
    /// associates the whole deployment, matching the historic behaviour.
    virtual std::optional<std::vector<std::uint32_t>> initial_active() {
        return std::nullopt;
    }

    /// Called at the start of every round, before devices are queried.
    virtual round_plan plan_round(std::size_t round) {
        (void)round;
        return {};
    }

    /// Traffic gating: whether `device_id` has data to send in `round`.
    /// A device with nothing to send sits the round out (it is neither a
    /// transmission nor a power-adaptation skip).
    virtual bool offers_traffic(std::size_t round, std::uint32_t device_id) {
        (void)round;
        (void)device_id;
        return true;
    }

    /// Fault notification: `device_id` lost its association in `round`
    /// (see member_loss_reason) and must rejoin through the association
    /// path. A scenario driver re-queues the device with its churn
    /// process so the rejoin contends like any other association request;
    /// the default ignores the loss (the device stays gone until the
    /// scenario happens to re-join it).
    virtual void on_member_lost(std::size_t round, std::uint32_t device_id,
                                member_loss_reason reason) {
        (void)round;
        (void)device_id;
        (void)reason;
    }
};

}  // namespace ns::sim
