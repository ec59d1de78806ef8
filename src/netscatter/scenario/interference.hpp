// In-band interference injection.
//
// The paper deploys in the 900 MHz ISM band, which NetScatter shares
// with everything else that lives there. This injector draws the two
// interferer families that matter for a CSS receiver and hands them to
// the superposition channel as channel::interferer_contribution rows:
//  * narrowband tones (periodic or bursty) — a tone lands in a handful
//    of dechirped FFT bins and raids whoever is parked nearby;
//  * classic-CSS (LoRa) frames — same chirp slope as NetScatter, so a
//    misaligned foreign frame dechirps into moving peaks that sweep
//    across the registered shifts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netscatter/channel/impairments.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/phy/frame.hpp"
#include "netscatter/scenario/scenario_spec.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::scenario {

/// Deterministic per-round interference source.
class interference_source {
public:
    /// `packet_samples` is the AP capture-window length a LoRa frame
    /// must cover (the simulator's per-round window).
    interference_source(interference_spec spec, ns::phy::css_params phy,
                        std::size_t packet_samples, std::uint64_t seed);

    /// Interferers to sum into `round`'s channel (possibly empty). The
    /// span and the symbol values it views are owned by this source; they
    /// stay valid until the next step() call, which refills them without
    /// allocating once warm.
    std::span<const ns::channel::interferer_contribution> step(std::size_t round);

    std::size_t total_events() const { return total_events_; }

private:
    ns::channel::interferer_contribution make_tone(double tone_hz) const;
    ns::channel::interferer_contribution make_lora_frame();

    interference_spec spec_;
    ns::phy::css_params phy_;
    std::size_t packet_samples_;
    ns::util::rng rng_;
    std::size_t total_events_ = 0;
    /// Storage behind step()'s span, reused at each step(): the
    /// interferers and a LoRa frame's symbol values (a step raises at
    /// most one event).
    std::vector<ns::channel::interferer_contribution> contributions_;
    std::vector<std::uint32_t> symbol_values_;
};

/// A second NetScatter network sharing the band (cochannel_spec): the
/// foreign AP runs its own §3.3.3 grouped schedule — its population is
/// partitioned into signal-strength groups by the same group_scheduler
/// the victim AP uses, shifts are allocated power-aware per group, and
/// one group is addressed per round (round-robin on the foreign AP's own
/// phase). The scheduled members' packets are produced as symbolic
/// packet_contributions (round_plan::cochannel), which the victim
/// simulator superposes on either synthesis path.
class cochannel_source {
public:
    /// `skip`/`frame`/`crystal`/`delay` mirror the victim sim's
    /// configuration: both networks deploy the same protocol stack.
    cochannel_source(cochannel_spec spec, ns::phy::css_params phy,
                     std::uint32_t skip, ns::phy::frame_format frame,
                     ns::channel::crystal_model crystal,
                     ns::channel::hardware_delay_model delay, std::uint64_t seed);

    /// Foreign packets to superpose into `round` (possibly empty).
    /// frame_bits spans view storage owned by this source; they stay
    /// valid until the next step() call.
    std::span<const ns::channel::packet_contribution> step(std::size_t round);

    std::size_t total_tx() const { return total_tx_; }
    std::size_t num_groups() const { return num_groups_; }
    std::uint32_t network_id() const { return spec_.network_id; }

private:
    struct foreign_device {
        std::uint32_t shift = 0;
        std::size_t group = 0;
        double snr_db = 0.0;       ///< at the victim AP
        double cfo_hz = 0.0;       ///< crystal offset + inter-AP carrier offset
    };

    cochannel_spec spec_;
    ns::phy::frame_format frame_;
    ns::channel::hardware_delay_model delay_;
    ns::util::rng rng_;
    std::vector<foreign_device> devices_;  ///< grouped, strongest first
    std::size_t num_groups_ = 1;
    std::size_t schedule_phase_ = 0;  ///< the foreign AP's round-robin phase
    std::size_t total_tx_ = 0;
    /// Per-round storage behind the returned spans.
    std::vector<std::uint8_t> bits_store_;
    std::vector<ns::channel::packet_contribution> contribs_;
};

}  // namespace ns::scenario
