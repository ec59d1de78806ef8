#include "netscatter/scenario/interference.hpp"

#include <algorithm>
#include <span>

#include "netscatter/mac/allocator.hpp"
#include "netscatter/mac/scheduler.hpp"
#include "netscatter/util/error.hpp"

namespace ns::scenario {

interference_source::interference_source(interference_spec spec,
                                         ns::phy::css_params phy,
                                         std::size_t packet_samples,
                                         std::uint64_t seed)
    : spec_(spec), phy_(phy), packet_samples_(packet_samples), rng_(seed) {
    ns::util::require(packet_samples_ > 0, "interference: empty capture window");
    ns::util::require(spec_.period_rounds >= 1,
                      "interference: period_rounds must be >= 1");
}

ns::channel::interferer_contribution interference_source::make_tone(double tone_hz) const {
    ns::channel::interferer_contribution tone;
    tone.snr_db = spec_.snr_db;
    tone.tone_hz = tone_hz;
    return tone;
}

ns::channel::interferer_contribution interference_source::make_lora_frame() {
    // A foreign classic-CSS frame: same (BW, SF) chirps carrying random
    // symbol values, misaligned by a random integer + fractional sample
    // offset, so its dechirped peaks are neither slot- nor bin-aligned.
    const std::size_t sps = phy_.samples_per_symbol();
    symbol_values_.resize(packet_samples_ / sps + 1);
    for (auto& value : symbol_values_) {
        value = static_cast<std::uint32_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(phy_.num_bins()) - 1));
    }
    ns::channel::interferer_contribution frame;
    frame.type = ns::channel::interferer_contribution::kind::lora_frame;
    frame.snr_db = spec_.snr_db;
    frame.symbols = symbol_values_;
    frame.timing_offset_s = rng_.uniform(0.0, phy_.symbol_duration_s());
    frame.sample_delay = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(sps) - 1));
    return frame;
}

std::span<const ns::channel::interferer_contribution> interference_source::step(std::size_t round) {
    contributions_.clear();
    switch (spec_.kind) {
        case interference_kind::none:
            break;
        case interference_kind::periodic_tone:
            if (round % spec_.period_rounds == 0) {
                contributions_.push_back(make_tone(spec_.tone_hz));
            }
            break;
        case interference_kind::bursty_tone:
            if (rng_.bernoulli(spec_.burst_probability)) {
                contributions_.push_back(make_tone(
                    rng_.uniform(-phy_.bandwidth_hz / 2.0, phy_.bandwidth_hz / 2.0)));
            }
            break;
        case interference_kind::lora_frame:
            if (rng_.bernoulli(spec_.burst_probability)) {
                contributions_.push_back(make_lora_frame());
            }
            break;
    }
    total_events_ += contributions_.size();
    return contributions_;
}

cochannel_source::cochannel_source(cochannel_spec spec, ns::phy::css_params phy,
                                   std::uint32_t skip, ns::phy::frame_format frame,
                                   ns::channel::crystal_model crystal,
                                   ns::channel::hardware_delay_model delay,
                                   std::uint64_t seed)
    : spec_(spec), frame_(frame), delay_(delay), rng_(seed) {
    ns::util::require(spec_.num_devices > 0,
                      "cochannel: num_devices must be > 0 when enabled");
    ns::util::require(spec_.min_snr_db <= spec_.max_snr_db,
                      "cochannel: min_snr_db must be <= max_snr_db");
    ns::util::require(spec_.duty_cycle >= 0.0 && spec_.duty_cycle <= 1.0,
                      "cochannel: duty_cycle must be in [0, 1]");
    ns::util::require(spec_.max_round_offset_s >= 0.0,
                      "cochannel: max_round_offset_s must be >= 0");

    // The inter-AP carrier offset is common to every foreign packet seen
    // by the victim (one oscillator pair), drawn once.
    const double network_cfo_hz =
        rng_.uniform(-spec_.carrier_offset_hz, spec_.carrier_offset_hz);

    // Draw the foreign population's link budgets at the victim AP plus
    // each device's own crystal offset.
    std::vector<ns::mac::device_power> powers;
    powers.reserve(spec_.num_devices);
    std::vector<double> cfos(spec_.num_devices);
    for (std::size_t i = 0; i < spec_.num_devices; ++i) {
        const double snr_db = rng_.uniform(spec_.min_snr_db, spec_.max_snr_db);
        cfos[i] = crystal.sample_static_offset_hz(rng_) + network_cfo_hz;
        powers.push_back({static_cast<std::uint32_t>(i), snr_db});
    }

    // The foreign AP's own §3.3.3 machinery: signal-strength partition,
    // then a power-aware per-group shift allocation on the same slot
    // geometry (identical PHY/SKIP — both networks deploy NetScatter).
    const ns::mac::shift_allocator allocator(
        ns::mac::allocation_params{.phy = phy, .skip = skip,
                                   .num_association_slots = 0});
    const ns::mac::group_scheduler scheduler(ns::mac::scheduler_params{
        .group_capacity =
            std::min(spec_.group_capacity, allocator.num_data_slots())});
    std::vector<ns::mac::group_span> spans;
    scheduler.partition_in_place(powers, spans);
    num_groups_ = std::max<std::size_t>(1, spans.size());
    schedule_phase_ = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(num_groups_) - 1));

    devices_.reserve(spec_.num_devices);
    std::vector<std::uint32_t> shifts;
    ns::mac::allocation_workspace ws;
    std::size_t first = 0;
    for (std::size_t g = 0; g < spans.size(); ++g) {
        // `powers` is in partition order: group g is one contiguous run.
        const std::span<const ns::mac::device_power> members(powers.data() + first,
                                                             spans[g].members);
        first += members.size();
        allocator.allocate(members, shifts, ws);
        for (std::size_t k = 0; k < members.size(); ++k) {
            devices_.push_back({.shift = shifts[k],
                                .group = g,
                                .snr_db = members[k].rx_power_dbm,
                                .cfo_hz = cfos[members[k].device_id]});
        }
    }
    bits_store_.reserve(spec_.num_devices * frame_.payload_plus_crc_bits());
}

std::span<const ns::channel::packet_contribution> cochannel_source::step(
    std::size_t round) {
    contribs_.clear();
    bits_store_.clear();
    const std::size_t scheduled = (round + schedule_phase_) % num_groups_;
    // The APs are unsynchronized: this round's offset of the foreign
    // query relative to the victim's, common to the scheduled group.
    const double round_offset_s = rng_.uniform(0.0, spec_.max_round_offset_s);
    const std::size_t frame_bits = frame_.payload_plus_crc_bits();

    for (const foreign_device& device : devices_) {
        if (device.group != scheduled) continue;
        if (!rng_.bernoulli(spec_.duty_cycle)) continue;
        ns::channel::packet_contribution packet;
        packet.cyclic_shift = device.shift;
        packet.snr_db = device.snr_db;
        packet.timing_offset_s = round_offset_s + delay_.sample_s(rng_);
        packet.frequency_offset_hz = device.cfo_hz;
        // The foreign payload is opaque data to the victim: i.i.d. bits.
        for (std::size_t b = 0; b < frame_bits; ++b) {
            bits_store_.push_back(rng_.bernoulli(0.5) ? 1 : 0);
        }
        contribs_.push_back(packet);
    }
    // Attach the bit spans once the store is final (reserve() in the
    // constructor makes growth here impossible, but stay defensive).
    for (std::size_t row = 0; row < contribs_.size(); ++row) {
        contribs_[row].frame_bits = std::span<const std::uint8_t>(
            bits_store_.data() + row * frame_bits, frame_bits);
    }
    total_tx_ += contribs_.size();
    return contribs_;
}

}  // namespace ns::scenario
