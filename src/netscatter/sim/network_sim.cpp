#include "netscatter/sim/network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "netscatter/channel/superposition.hpp"
#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/util/bits.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/stats.hpp"
#include "netscatter/util/units.hpp"

namespace ns::sim {

void sim_config::validate() const {
    ns::util::require(rounds > 0, "sim_config: rounds must be > 0");
    ns::util::require(skip >= 1, "sim_config: skip must be >= 1");
    ns::util::require(skip < phy.num_bins(),
                      "sim_config: skip must be < the number of FFT bins");
    ns::util::require(detection_factor > 0.0,
                      "sim_config: detection_factor must be > 0");
    ns::util::require(zero_padding >= 1, "sim_config: zero_padding must be >= 1");
    ns::util::require(fading_sigma_db >= 0.0,
                      "sim_config: fading_sigma_db must be >= 0");
    ns::util::require(fading_rho >= 0.0 && fading_rho < 1.0,
                      "sim_config: fading_rho must be in [0, 1)");
    ns::util::require(frame.payload_bits > 0, "sim_config: payload_bits must be > 0");
    ns::util::require(symbol_kernel_radius_bins >= 1,
                      "sim_config: symbol_kernel_radius_bins must be >= 1");
    ns::util::require(intra_round_threads >= 1,
                      "sim_config: intra_round_threads must be >= 1");
    ns::util::require(multipath_rho >= 0.0 && multipath_rho < 1.0,
                      "sim_config: multipath_rho must be in [0, 1)");
    if (model_multipath) {
        ns::util::require(multipath.num_taps >= 0,
                          "sim_config: multipath.num_taps must be >= 0");
    }
    if (grouping.enabled) {
        ns::util::require(grouping.group_capacity >= 1,
                          "sim_config: grouping.group_capacity must be >= 1");
        ns::util::require(grouping.max_dynamic_range_db > 0.0,
                          "sim_config: grouping.max_dynamic_range_db must be > 0");
        if (grouping.policy == regroup_policy::periodic) {
            ns::util::require(grouping.regroup_period_rounds >= 1,
                              "sim_config: regroup_period_rounds must be >= 1");
        }
        if (grouping.policy == regroup_policy::load_triggered) {
            ns::util::require(grouping.load_trigger_misfits >= 1,
                              "sim_config: load_trigger_misfits must be >= 1");
        }
    }
    faults.validate();
}

void sim_result::merge(const sim_result& other) {
    rounds.insert(rounds.end(), other.rounds.begin(), other.rounds.end());
    for (const outcome_counter& counter : outcome_counters) {
        this->*counter.total += other.*counter.total;
    }
    devices_down_at_end += other.devices_down_at_end;
    fast_path_rounds += other.fast_path_rounds;
    metrics.merge(other.metrics);
    trace.insert(trace.end(), other.trace.begin(), other.trace.end());
    trace_dropped += other.trace_dropped;
    if (groups.size() < other.groups.size()) groups.resize(other.groups.size());
    for (std::size_t g = 0; g < other.groups.size(); ++g) {
        group_metrics& mine = groups[g];
        const group_metrics& theirs = other.groups[g];
        if (theirs.members > 0) {
            mine.min_power_dbm = mine.members > 0
                                     ? std::min(mine.min_power_dbm, theirs.min_power_dbm)
                                     : theirs.min_power_dbm;
            mine.max_power_dbm = mine.members > 0
                                     ? std::max(mine.max_power_dbm, theirs.max_power_dbm)
                                     : theirs.max_power_dbm;
        }
        mine.members += theirs.members;
        mine.scheduled_rounds += theirs.scheduled_rounds;
        mine.transmitting += theirs.transmitting;
        mine.delivered += theirs.delivered;
        mine.bits_sent += theirs.bits_sent;
        mine.bit_errors += theirs.bit_errors;
    }
    num_groups = std::max(num_groups, other.num_groups);
}

double sim_result::delivery_rate() const {
    if (total_transmitting == 0) return 0.0;
    return static_cast<double>(total_delivered) / static_cast<double>(total_transmitting);
}

double sim_result::ber() const {
    if (total_bits == 0) return 0.0;
    return static_cast<double>(total_bit_errors) / static_cast<double>(total_bits);
}

double sim_result::mean_delivered_per_round() const {
    ns::util::running_stats stats;
    for (const auto& r : rounds) stats.add(static_cast<double>(r.delivered));
    return stats.mean();
}

double sim_result::skip_rate() const {
    if (total_active_rounds == 0) return 0.0;
    return static_cast<double>(total_skipped) / static_cast<double>(total_active_rounds);
}

double sim_result::idle_rate() const {
    if (total_active_rounds == 0) return 0.0;
    return static_cast<double>(total_idle) / static_cast<double>(total_active_rounds);
}

double sim_result::recovery_ratio() const {
    if (total_down_events == 0) return 1.0;
    return static_cast<double>(total_recoveries) /
           static_cast<double>(total_down_events);
}

round_wall_split wall_split(const ns::obs::metrics_snapshot& metrics) {
    return {.synth_s = metrics.histogram_sum("round.synth_s") +
                       metrics.histogram_sum("round.superpose_s"),
            .decode_s = metrics.histogram_sum("round.decode_s")};
}

namespace {

ns::device::device_params make_device_params(const sim_config& config) {
    ns::device::device_params params;
    params.phy = config.phy;
    params.delay_model = config.delay_model;
    if (!config.model_timing_jitter) {
        params.delay_model.mean_us = 0.0;
        params.delay_model.sigma_us = 0.0;
        params.delay_model.max_us = 0.0;
    }
    params.crystal = config.crystal;
    if (!config.model_cfo) {
        params.crystal.tolerance_ppm = 0.0;
        params.crystal.drift_sigma_hz = 0.0;
    }
    return params;
}

/// `config` once validated, so that no member is built from an invalid
/// configuration.
sim_config validated(sim_config config) {
    config.validate();
    return config;
}

/// Uplink power at the AP of a device at the gain an association at
/// `query_rssi_dbm` starts from (§3.3.2).
double association_power_dbm(const ns::device::device_params& params,
                             double uplink_rx_dbm, double query_rssi_dbm) {
    return uplink_rx_dbm + ns::device::hardware_switch_network().gain_db(
                               ns::device::association_gain_level(params, query_rssi_dbm));
}

}  // namespace

network_simulator::network_simulator(const deployment& dep, sim_config config,
                                     round_hooks* hooks)
    : deployment_(&dep),
      config_(validated(config)),
      hooks_(hooks),
      rng_(config.seed),
      device_params_(make_device_params(config)),
      fading_params_{.sigma_db = config.fading_sigma_db, .rho = config.fading_rho},
      ap_(ns::mac::allocation_params{
              .phy = config.phy, .skip = config.skip, .num_association_slots = 0},
          config.grouping.enabled
              ? std::optional(ns::mac::scheduler_params{
                    .group_capacity = config.grouping.group_capacity,
                    .max_dynamic_range_db = config.grouping.max_dynamic_range_db})
              : std::nullopt,
          *this, dep.devices().size()),
      receiver_(ns::rx::receiver_params{.phy = config.phy,
                                        .zero_padding_factor = config.zero_padding,
                                        .detection_factor = config.detection_factor,
                                        .skip = config.skip,
                                        .frame = config.frame}) {
    // Set-up sub-timers (host origin; the clock is read only with runtime
    // metrics on): marks[k]..marks[k+1] is set-up step k, recorded below
    // once the registry is wired.
    const bool timed = config_.obs.metrics;
    std::array<std::uint64_t, ctor_timer_names.size() + 1> marks{};
    const auto mark = [&](std::size_t k) {
        if (timed) marks[k] = ns::obs::now_ns();
    };
    mark(0);
    if (config_.faults.enabled()) {
        // Dedicated fault seed stream, split off the replica seed with
        // its own tag so enabling faults never perturbs the channel /
        // traffic draws of the shared rng_ chain.
        fault_injector_.emplace(config_.faults,
                                ns::engine::split_seed(config_.seed, 0xfa17, 0));
    }
    const auto& placed = dep.devices();

    // Which devices start associated: the hooks' initial set (a scenario
    // may deploy a larger universe than fits one concurrency group and
    // rotate membership through churn), or everyone.
    std::vector<bool> initially_active(placed.size(), true);
    if (hooks_) {
        if (const auto initial = hooks_->initial_active()) {
            std::fill(initially_active.begin(), initially_active.end(), false);
            for (std::uint32_t id : *initial) {
                if (id < placed.size()) initially_active[id] = true;
            }
        }
    }

    // --- Instantiate devices -------------------------------------------
    // One pass builds each slot and an active device's association-time
    // uplink power. Per device the draws are rng_() for the device, then
    // the word behind a fork for its fading, then a fork for its taps.
    // The first two only seed generators, so they are stored and the
    // radio is built from them when the device is first scheduled.
    slots_.reserve(placed.size());
    // A grouped round builds at most one group's radios, and a group
    // never holds more than the scheduler's capacity (see radios_).
    radios_.reserve(ap_.grouped()
                        ? std::min(placed.size(), config_.rounds * ap_.group_capacity())
                        : placed.size());
    if (fault_injector_) fault_slots_.resize(placed.size());
    if (config_.model_multipath) {
        tap_profile_.emplace(config_.multipath, config_.phy.bandwidth_hz,
                             config_.multipath_rho);
        taps_.reserve(placed.size());
    }
    std::vector<ns::mac::device_power> powers;  // the initially-active devices
    powers.reserve(placed.size());
    for (std::size_t i = 0; i < placed.size(); ++i) {
        const placed_device& where = placed[i];
        slots_.push_back(device_slot{
            .query_rssi_dbm = where.query_rssi_dbm,
            .uplink_rx_dbm = where.uplink_rx_dbm,
            .tof_s = where.distance_m / ns::util::speed_of_light_mps,
            .association = {},
            .device_seed = rng_(),
            .fading_seed = rng_(),
        });
        if (config_.model_multipath) {
            taps_.emplace_back(*tap_profile_, rng_.fork());
        }
        if (initially_active[i]) {
            powers.push_back({static_cast<std::uint32_t>(i),
                              association_power_dbm(device_params_, where.uplink_rx_dbm,
                                                    where.query_rssi_dbm)});
        }
    }

    // No registered set ever exceeds the data slots: an ungrouped
    // network turns joins away at that size and a group never outgrows
    // them.
    const std::size_t data_slots = ap_.allocator().num_data_slots();
    shift_scratch_.reserve(data_slots);
    receiver_.reserve_registered_shifts(data_slots);

    // --- Association phase (devices join one at a time, §3.3.2) ---------
    // The AP assigns the shifts it would have converged to over the
    // initially-active population (§3.3.3: per group when grouped).
    mark(1);
    ap_.assign(powers, config_.power_aware_allocation);
    track_groups();
    mark(2);
    ap_.associate_members();
    // A grouped round registers its scheduled group's shifts itself.
    if (!ap_.grouped()) register_active_shifts();
    mark(3);

    // --- Observability --------------------------------------------------
    // Handles fetched once; the round loop only dereferences them. With
    // runtime metrics off they stay null, which also keeps every probe
    // from reading the clock.
    if (config_.obs.metrics) {
        // Phase timers read the host clock: registered as host data.
        constexpr ns::obs::origin host = ns::obs::origin::host;
        for (std::size_t k = 0; k < ctor_timer_names.size(); ++k) {
            metrics_.get_histogram(ctor_timer_names[k], host)
                ->record_ns(marks[k + 1] - marks[k]);
        }
        probes_.round_total = metrics_.get_histogram("round.total_s", host);
        for (std::size_t p = 0; p < phase_names.size(); ++p) {
            probes_.phases[p].hist = metrics_.get_histogram(
                std::string("round.") + phase_names[p] + "_s", host);
        }
        probes_.round_allocs = metrics_.get_histogram("round.allocs");
        probes_.rounds = metrics_.get_counter("sim.rounds");
        probes_.fast_rounds = metrics_.get_counter("sim.fast_path_rounds");
        // Warm-up rounds grow the fan-out scratch to the round-thread
        // count, so the warm-up allocation count is host data too.
        probes_.alloc_warmup_count = metrics_.get_counter("alloc.warmup_count", host);
        probes_.alloc_steady_count = metrics_.get_counter("alloc.steady_count");
        probes_.alloc_steady_bytes = metrics_.get_counter("alloc.steady_bytes");
        probes_.alloc_steady_rounds = metrics_.get_counter("alloc.steady_rounds");
        probes_.active_devices = metrics_.get_gauge("sim.active_devices");
        probes_.num_groups = metrics_.get_gauge("sim.num_groups");
        // fault.* instruments exist only when a fault process is active,
        // so fault-free runs publish the exact metric set they always
        // have (snapshot bit-identity).
        const bool faults_on = config_.faults.enabled();
        for (std::size_t i = 0; i < outcome_counters.size(); ++i) {
            const outcome_counter& counter = outcome_counters[i];
            if (counter.metric == nullptr || (counter.fault_only && !faults_on)) {
                continue;
            }
            probes_.outcomes[i] = metrics_.get_counter(counter.metric);
        }
        if (faults_on) {
            probes_.fault_recovery_rounds =
                metrics_.get_histogram("fault.recovery_rounds");
            probes_.fault_resync_rounds =
                metrics_.get_histogram("fault.resync_rounds");
        }
        chan_ws_.obs.metrics = &metrics_;
        receiver_.set_metrics(&metrics_);
        if (config_.obs.perf) {
            // Hardware counters for phase attribution. Opened here, on
            // the replica's thread (the Monte-Carlo runner constructs
            // each simulator inside its task). The availability gauge is
            // a host fact, like every perf metric, so scenario JSON and
            // determinism diffs leave it out; a denied perf_event_open
            // shows up as available=0 instead of silently-zero counters.
            const bool opened = perf_group_.open();
            metrics_.get_gauge("perf.available", host)->set(opened ? 1.0 : 0.0);
            if (opened) {
                for (std::size_t p = 0; p < phase_names.size(); ++p) {
                    probes_.phases[p].perf =
                        ns::obs::perf_phase_counters::from_registry(
                            metrics_, phase_names[p]);
                }
                chan_ws_.obs = ns::obs::obs_sink::wire(&metrics_, &perf_group_);
            }
        }
    }
    if (config_.obs.trace) {
        trace_.arm(config_.obs.trace_max_events, config_.obs.trace_track);
    }
    // Only the symbol-domain combine fans out; a sample-fidelity pool
    // would park idle threads.
    if (symbol_domain() && config_.intra_round_threads > 1) {
        round_pool_.emplace(config_.intra_round_threads);
        chan_ws_.block_pool = &*round_pool_;
    }
}

void network_simulator::register_active_shifts(std::optional<std::size_t> group) {
    shift_scratch_.clear();
    for (const std::uint32_t i : ap_.members(group)) shift_scratch_.push_back(shift(i));
    receiver_.set_registered_shifts(std::span<const std::uint32_t>(shift_scratch_));
    membership_dirty_ = false;
}

std::vector<double> network_simulator::association_snrs_db() const {
    const double noise_floor = deployment_->noise_floor_dbm(config_.phy.bandwidth_hz);
    std::vector<double> snrs;
    snrs.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const placed_device& where = deployment_->devices()[i];
        snrs.push_back(association_power_dbm(device_params_, where.uplink_rx_dbm,
                                             where.query_rssi_dbm) -
                       noise_floor);
    }
    return snrs;
}

void network_simulator::track_groups() {
    if (group_acc_.size() < ap_.num_groups()) group_acc_.resize(ap_.num_groups());
}

void network_simulator::regroup(round_outcome& outcome, std::size_t round) {
    if (fault_injector_) {
        // The shift each member last learned, kept by a member that
        // misses this round's ordering query.
        for (const std::uint32_t i : ap_.members()) {
            fault_slot& faults = fault_slots_[i];
            if (!faults.desynced) faults.stale_shift = shift(i);
        }
    }
    outcome.realloc_events += ap_.regroup();
    ++outcome.regroups;
    membership_dirty_ = true;
    track_groups();
    if (!fault_injector_) return;
    // Every member took its freshly-allocated shift, but one that misses
    // the ordering query keeps transmitting on the shift it last learned
    // (§3.3.3 stale-schedule desync) until the next regroup broadcast it
    // hears resynchronizes it, or the lease evicts it as silent. The
    // stateless query-loss hash guarantees the device loop sees the same
    // heard/missed answer this round.
    for (const std::uint32_t i : ap_.members()) {
        fault_slot& faults = fault_slots_[i];
        if (faults.down) continue;
        if (!fault_injector_->query_lost(i, slots_[i].query_rssi_dbm)) {
            if (faults.desynced) resync(faults, round, outcome);
        } else if (!faults.desynced && shift(i) != faults.stale_shift) {
            faults.desynced = true;
            faults.desync_round = round;
            ++outcome.desyncs;
        }
    }
}

double network_simulator::power_dbm(std::uint32_t id) const {
    const device_slot& slot = slots_[id];
    return slot.uplink_rx_dbm + slot.association.current_gain_db();
}

std::uint32_t network_simulator::shift(std::uint32_t id) const {
    return slots_[id].association.assigned_shift;
}

void network_simulator::associate(std::uint32_t id, std::uint32_t shift) {
    associate_slot(id, shift, slots_[id].query_rssi_dbm);
}

void network_simulator::associate_slot(std::size_t slot_index, std::uint32_t shift,
                                       double baseline_rssi_dbm) {
    slots_[slot_index].association.force(
        device_params_, shift, baseline_rssi_dbm,
        ns::device::association_gain_level(device_params_, baseline_rssi_dbm));
}

void network_simulator::build_radios(std::optional<std::size_t> group) {
    for (const std::uint32_t i : ap_.members(group)) {
        device_slot& slot = slots_[i];
        if (slot.radio_index != no_radio) continue;
        slot.radio_index = static_cast<std::uint32_t>(radios_.size());
        radios_.push_back(slot_radio{
            .device = ns::device::device_radio(device_params_, slot.device_seed),
            .fading = ns::channel::gauss_markov_fading(fading_params_,
                                                       ns::util::rng(slot.fading_seed)),
        });
    }
}

void network_simulator::deactivate_slot(std::size_t slot_index) {
    ap_.leave(static_cast<std::uint32_t>(slot_index));
    membership_dirty_ = true;
}

void network_simulator::go_down(std::size_t slot_index, std::size_t round,
                                member_loss_reason reason, round_outcome& outcome) {
    fault_slot& faults = fault_slots_[slot_index];
    if (faults.down) return;  // an episode is already in progress
    faults.down = true;
    faults.down_round = round;
    faults.desynced = false;
    faults.missed_queries = 0;
    ++outcome.down_events;
    if (hooks_) {
        hooks_->on_member_lost(round, static_cast<std::uint32_t>(slot_index), reason);
    }
}

void network_simulator::resync(fault_slot& faults, std::size_t round,
                               round_outcome& outcome) {
    ++outcome.resyncs;
    if (probes_.fault_resync_rounds != nullptr) {
        probes_.fault_resync_rounds->record(
            static_cast<double>(round - faults.desync_round));
    }
    faults.desynced = false;
}

bool network_simulator::hears_query(round_state& state, std::size_t slot_index) {
    fault_slot& faults = fault_slots_[slot_index];
    if (faults.down) {
        // Zombie: the AP still schedules this device but the
        // rebooted/evicted radio answers nothing. Its silence accrues
        // toward the lease (paused during a blackout, when the AP itself
        // transmitted no query).
        if (!state.blackout) ++faults.silent_rounds;
        return false;
    }
    if (!state.blackout) {
        // The stateless per-(round, device) draw — keyed on the unfaded
        // downlink RSSI so regroup() saw the same answer.
        if (!fault_injector_->query_lost(static_cast<std::uint32_t>(slot_index),
                                         slots_[slot_index].query_rssi_dbm)) {
            faults.missed_queries = 0;
            // Provisional: the AP hears nothing unless the device
            // responds on its assigned shift (a desynced device's
            // stale-shift response does not count).
            ++faults.silent_rounds;
            return true;
        }
        ++state.outcome.query_losses;
        ++faults.silent_rounds;
    }
    // A lost query, or none on the air during a blackout (the AP cannot
    // hold that silence against the device), counts toward the device's
    // own re-association trip.
    ++faults.missed_queries;
    if (config_.faults.missed_query_limit > 0 &&
        faults.missed_queries >= config_.faults.missed_query_limit) {
        go_down(slot_index, state.round, member_loss_reason::missed_queries,
                state.outcome);
    }
    return false;
}

void network_simulator::apply_ack_faults(std::vector<std::uint32_t>& joins,
                                         std::size_t round, round_outcome& outcome) {
    // Each granted join needs its association ACK through; every loss
    // delays the handshake one round (the AP replays the piggybacked
    // response, §3.3.4) up to the bounded retry window.
    std::size_t kept = 0;
    for (const std::uint32_t id : joins) {
        std::size_t losses = 0;
        while (losses < config_.faults.ack_retry_limit &&
               fault_injector_->ack_lost()) {
            ++losses;
        }
        outcome.ack_losses += losses;
        if (losses >= config_.faults.ack_retry_limit) {
            // Every replay lost: the AP abandons the handshake and the
            // joiner must contend again through the Aloha path.
            ++outcome.ack_timeouts;
            if (id < slots_.size()) {
                go_down(id, round, member_loss_reason::ack_timeout, outcome);
            }
        } else if (losses > 0) {
            pending_acks_.push_back({id, round + losses});
        } else {
            joins[kept++] = id;
        }
    }
    joins.resize(kept);
    // Handshakes whose replayed response finally lands this round.
    std::size_t kept_pending = 0;
    for (const auto& pending : pending_acks_) {
        if (pending.second <= round) {
            joins.push_back(pending.first);
        } else {
            pending_acks_[kept_pending++] = pending;
        }
    }
    pending_acks_.resize(kept_pending);
}

void network_simulator::apply_lease(std::optional<std::size_t> scheduled_group,
                                    std::size_t round, round_outcome& outcome) {
    if (config_.faults.lease_rounds == 0) return;
    // Collect first: deactivate_slot mutates the member lists mid-walk.
    fault_scratch_.clear();
    for (const std::uint32_t i : ap_.members(scheduled_group)) {
        if (fault_slots_[i].silent_rounds >= config_.faults.lease_rounds) {
            fault_scratch_.push_back(i);
        }
    }
    for (const std::uint32_t i : fault_scratch_) {
        deactivate_slot(i);
        fault_slots_[i].silent_rounds = 0;
        ++outcome.lease_evictions;
        // A live device evicted here is disassociated without knowing it
        // — from its side this starts a down episode it must rejoin from.
        // For a zombie (already down) the episode simply continues; the
        // eviction is what reclaims its shift for reuse.
        go_down(i, round, member_loss_reason::lease_eviction, outcome);
    }
}

void network_simulator::apply_round_plan(const round_plan& plan, round_outcome& outcome,
                                         std::size_t round, bool blackout) {
    // Mobility first: joins below must see this round's link budget.
    for (const link_update& update : plan.link_updates) {
        if (update.device_id >= slots_.size()) continue;
        device_slot& slot = slots_[update.device_id];
        slot.query_rssi_dbm = update.query_rssi_dbm;
        slot.uplink_rx_dbm = update.uplink_rx_dbm;
        slot.tof_s = update.tof_s;
        slot.doppler_hz = update.doppler_hz;
    }

    for (std::uint32_t id : plan.leaves) {
        if (id >= slots_.size() || !ap_.is_member(id)) continue;
        deactivate_slot(id);
        ++outcome.leaves;
    }

    // Fault plumbing of the join stream: a blacked-out AP transmits no
    // grants (joins are parked until it returns), and with ACK loss on,
    // completed contentions still need the handshake's ACK through.
    const std::vector<std::uint32_t>* joins = &plan.joins;
    if (fault_injector_) {
        join_scratch_.assign(plan.joins.begin(), plan.joins.end());
        if (blackout) {
            deferred_joins_.insert(deferred_joins_.end(), join_scratch_.begin(),
                                   join_scratch_.end());
            join_scratch_.clear();
        } else {
            if (!deferred_joins_.empty()) {
                join_scratch_.insert(join_scratch_.begin(), deferred_joins_.begin(),
                                     deferred_joins_.end());
                deferred_joins_.clear();
            }
            if (config_.faults.ack_loss > 0.0) {
                apply_ack_faults(join_scratch_, round, outcome);
            }
        }
        joins = &join_scratch_;
    }

    for (std::uint32_t id : *joins) {
        if (id >= slots_.size()) continue;
        const device_slot& slot = slots_[id];
        fault_slot* const faults = fault_injector_ ? &fault_slots_[id] : nullptr;
        if (ap_.is_member(id)) {
            if (!faults || !faults->down) continue;
            // §3.3.4 re-association of a device the AP still lists as a
            // member: drop the stale entry (reclaiming its old shift)
            // and re-admit it like any joiner.
            deactivate_slot(id);
        }
        const ns::mac::admission admitted = ap_.admit(
            id, association_power_dbm(device_params_, slot.uplink_rx_dbm,
                                      slot.query_rssi_dbm));
        track_groups();
        if (admitted.placed == 0) {
            ++outcome.rejected_joins;
            continue;
        }
        outcome.realloc_events += admitted.placed;
        if (admitted.full_reassignment) ++outcome.full_reassignments;
        ++outcome.joins;
        membership_dirty_ = true;
        if (faults && faults->down) {
            // The re-association completed: the down episode ends and its
            // length (in rounds) is the protocol's recovery latency.
            ++outcome.recoveries;
            if (probes_.fault_recovery_rounds != nullptr) {
                probes_.fault_recovery_rounds->record(
                    static_cast<double>(round - faults->down_round));
            }
            faults->down = false;
            faults->desynced = false;
            faults->missed_queries = 0;
            faults->silent_rounds = 0;
        }
    }
}

class network_simulator::phase_scope {
public:
    phase_scope(network_simulator& sim, round_phase phase, std::size_t round)
        : span_(phase_names[index(phase)], &sim.trace_,
                sim.probes_.phases[index(phase)].hist,
                static_cast<std::int64_t>(round)),
          perf_(&sim.perf_group_, &sim.probes_.phases[index(phase)].perf) {}

private:
    static std::size_t index(round_phase phase) {
        return static_cast<std::size_t>(phase);
    }
    ns::obs::trace_span span_;  // opened first, closed last
    ns::obs::perf_scope perf_;
};

sim_result network_simulator::run() {
    sim_result result;
    result.rounds.reserve(config_.rounds);
    sent_row_of_shift_.assign(config_.phy.num_bins(), -1);

    for (std::size_t round = 0; round < config_.rounds; ++round) {
        const ns::obs::alloc_counters allocs_before = ns::obs::thread_allocations();
        // Outermost probe: constructed first, destroyed last, so its span
        // covers every phase below (and the round's bookkeeping).
        ns::obs::trace_span round_span("round", &trace_, probes_.round_total,
                                       static_cast<std::int64_t>(round));
        round_state state = begin_round(round);
        plan_phase(state);
        grouping_phase(state);
        synth_phase(state);
        superpose_phase(state);
        decode_phase(state);
        account_round(state, allocs_before, result);
    }

    if (fault_injector_) {
        // Down episodes still open when the run ended. Closes the books:
        // total_down_events == total_recoveries + devices_down_at_end.
        for (const fault_slot& faults : fault_slots_) {
            if (faults.down) ++result.devices_down_at_end;
        }
    }

    if (ap_.grouped()) {
        const std::span<const ns::mac::group_span> spans = ap_.groups();
        for (std::size_t g = 0; g < spans.size() && g < group_acc_.size(); ++g) {
            group_acc_[g].members = spans[g].members;
            group_acc_[g].min_power_dbm = spans[g].min_power_dbm;
            group_acc_[g].max_power_dbm = spans[g].max_power_dbm;
        }
        result.groups = group_acc_;
        result.num_groups = spans.size();
    }

    if (config_.obs.metrics) result.metrics = metrics_.snapshot();
    if (trace_.armed()) {
        result.trace_dropped = trace_.dropped();
        result.trace = trace_.take();
    }
    return result;
}

network_simulator::round_state network_simulator::begin_round(std::size_t round) {
    round_state state;
    state.round = round;
    if (fault_injector_) {
        // Advance the fault schedule. Every draw below derives from the
        // replica's fault seed stream, so the schedule is a pure
        // function of (spec, replica) at any thread count.
        fault_injector_->begin_round(round);
        state.blackout = fault_injector_->blackout();
        state.outcome.blackout = state.blackout ? 1 : 0;
    }
    return state;
}

void network_simulator::plan_phase(round_state& state) {
    const phase_scope scope(*this, round_phase::plan, state.round);
    const std::size_t round = state.round;
    round_outcome& outcome = state.outcome;
    if (hooks_) state.plan = hooks_->plan_round(round);
    apply_round_plan(state.plan, outcome, round, state.blackout);
    if (fault_injector_ && config_.faults.reboot_rate_per_round > 0.0) {
        // Brownouts strike uniformly among the live members; a
        // victim loses its shift + group state and must rejoin
        // through the Aloha path while the AP's entry lingers.
        std::size_t reboots = fault_injector_->reboots();
        if (reboots > 0) {
            fault_scratch_.clear();
            for (const std::uint32_t i : ap_.members()) {
                if (!fault_slots_[i].down) fault_scratch_.push_back(i);
            }
            for (; reboots > 0 && !fault_scratch_.empty(); --reboots) {
                const std::size_t pick =
                    fault_injector_->pick(fault_scratch_.size());
                const std::uint32_t victim = fault_scratch_[pick];
                fault_scratch_[pick] = fault_scratch_.back();
                fault_scratch_.pop_back();
                go_down(victim, round, member_loss_reason::reboot, outcome);
                ++outcome.reboots;
            }
        }
    }
}

void network_simulator::grouping_phase(round_state& state) {
    const phase_scope scope(*this, round_phase::grouping, state.round);
    const std::size_t round = state.round;
    round_outcome& outcome = state.outcome;
    const bool round_blackout = state.blackout;
    // §3.3.3 adaptive control: recompute the partition when the
    // policy says the current one has drifted from the population.
    if (ap_.grouped()) {
        const auto& grouping = config_.grouping;
        const bool periodic_due =
            grouping.policy == regroup_policy::periodic && round > 0 &&
            round % grouping.regroup_period_rounds == 0;
        const bool load_due =
            grouping.policy == regroup_policy::load_triggered &&
            ap_.misfits_since_regroup() >= grouping.load_trigger_misfits;
        // A blacked-out AP broadcasts no ordering query: a due
        // regroup waits for the next round it is back on the air
        // (load_triggered re-fires on the persisted misfit count;
        // a periodic edge that falls inside a blackout is skipped).
        if ((periodic_due || load_due) && !round_blackout) {
            regroup(outcome, round);
        }
    }

    // One group transmits per query, round-robin (§3.3.3); the
    // receiver only watches the scheduled group's shifts.
    state.scheduled = ap_.scheduled_group(round);
    if (state.scheduled) {
        const std::size_t scheduled_group = *state.scheduled;
        outcome.scheduled_group = static_cast<int>(scheduled_group);
        register_active_shifts(scheduled_group);
        if (scheduled_group < group_acc_.size()) {
            ++group_acc_[scheduled_group].scheduled_rounds;
        }
    } else if (membership_dirty_) {
        register_active_shifts();
    }
    // A device's radio is built when it is first scheduled.
    build_radios(state.scheduled);
    outcome.active = ap_.active_count();
}

void network_simulator::synth_phase(round_state& state) {
    const phase_scope scope(*this, round_phase::synth, state.round);
    const std::size_t round = state.round;
    round_outcome& outcome = state.outcome;
    const bool round_blackout = state.blackout;
    const std::optional<std::size_t> scheduled = state.scheduled;
    const double noise_floor =
        deployment_->noise_floor_dbm(config_.phy.bandwidth_hz);
    // Reset the round workspaces (buffers keep their capacity — the
    // steady-state loop performs zero per-device heap allocations on the
    // fast path).
    packet_contribs_.clear();
    frame_bits_store_.clear();
    for (std::uint32_t shift : tx_row_shift_) sent_row_of_shift_[shift] = -1;
    tx_row_shift_.clear();

    // Only the scheduled group hears this round's query.
    for (const std::uint32_t slot_idx : ap_.members(scheduled)) {
        device_slot& slot = slots_[slot_idx];
        slot_radio& radio = radios_[slot.radio_index];
        fault_slot* const faults = fault_injector_ ? &fault_slots_[slot_idx] : nullptr;
        // Fading (and multipath) advance lazily: an unobserved
        // device (inactive, or outside the scheduled group) is not
        // touched at all; when it reaches this point again it
        // catches up to the simulation clock through the exact
        // k-step AR(1) transition — one draw instead of one per
        // skipped round, so neither the 100k-device universe nor
        // the unscheduled groups sit on the round loop's critical
        // path, while the observed time series stays distributed
        // exactly as the step-by-step process.
        const std::uint64_t clock = static_cast<std::uint64_t>(round);
        ns::channel::tap_delay_line* const taps =
            taps_.empty() ? nullptr : &taps_[slot_idx];
        if (clock > radio.fading_rounds) {
            radio.fading.skip(clock - radio.fading_rounds);
            if (taps) taps->skip(clock - radio.fading_rounds);
        }
        const double fade_db = radio.fading.next_db();
        if (taps) taps->next();
        radio.fading_rounds = clock + 1;
        if (ap_.grouped()) ++outcome.scheduled;
        const double query_rssi = slot.query_rssi_dbm + fade_db;

        if (faults && !hears_query(state, slot_idx)) continue;

        if (hooks_ && !hooks_->offers_traffic(round, slot_idx)) {
            ++outcome.idle;
            continue;
        }

        ns::device::transmit_intent intent;
        if (config_.power_adaptation) {
            intent = radio.device.handle_query(slot.association, query_rssi, std::nullopt);
            if (intent.action == ns::device::device_action::association_request) {
                // The device fell persistently out of tolerance and
                // re-initiated association (§3.2.3 / §3.3.4). Under a
                // scenario the AP re-places it within its group — the
                // same slot when its neighbourhood is still the best
                // fit, a different one when the network drifted; the
                // static simulator keeps the historic same-slot
                // reassignment so seed results are stable.
                std::optional<std::uint32_t> moved;
                if (hooks_) moved = ap_.reposition(slot_idx, power_dbm(slot_idx));
                const std::uint32_t shift =
                    moved ? *moved : slot.association.assigned_shift;
                associate_slot(slot_idx, shift, query_rssi);
                ++outcome.reassociations;
                ++outcome.realloc_events;
                membership_dirty_ = true;
                ++outcome.skipped;
                if (faults) {
                    // The request reaches the AP in the reserved
                    // association slots: not silence. It also hands
                    // the device a fresh shift, ending any desync.
                    faults->silent_rounds = 0;
                    if (faults->desynced) resync(*faults, round, outcome);
                }
                continue;
            }
            if (intent.action == ns::device::device_action::skip) {
                ++outcome.skipped;
                continue;
            }
            if (intent.action != ns::device::device_action::transmit_data) continue;
        } else {
            // Ablation: always transmit at maximum gain.
            intent.action = ns::device::device_action::transmit_data;
            intent.cyclic_shift = slot.association.assigned_shift;
            intent.gain_db = 0.0;
            intent.hardware_delay_s = config_.model_timing_jitter
                                          ? config_.delay_model.sample_s(rng_)
                                          : 0.0;
            intent.frequency_offset_hz =
                config_.model_cfo ? radio.device.static_frequency_offset_hz() : 0.0;
        }

        // A desynced device answers on the shift it last learned —
        // the schedule moved on without it (§3.3.3 desync).
        const std::uint32_t tx_shift =
            (faults && faults->desynced) ? faults->stale_shift : intent.cyclic_shift;

        // Build this device's frame bits into the flat per-round
        // store (one fixed-width 0/1 row per transmitter).
        rng_.fill_bits(config_.frame.payload_bits, payload_scratch_);
        ns::phy::build_frame_bits_into(config_.frame, payload_scratch_,
                                       frame_scratch_);
        if (fault_injector_ && sent_row_of_shift_[tx_shift] >= 0) {
            // A stale-schedule transmitter landed on a shift another
            // device already answered on this round: the earlier row
            // is buried under the collision and will score as orphan.
            ++outcome.orphan_collisions;
        }
        sent_row_of_shift_[tx_shift] =
            static_cast<std::int32_t>(tx_row_shift_.size());
        tx_row_shift_.push_back(tx_shift);
        for (const bool bit : frame_scratch_) {
            frame_bits_store_.push_back(bit ? 1 : 0);
        }

        const double uplink_dbm = slot.uplink_rx_dbm + intent.gain_db + 2.0 * fade_db;
        // The AP's preamble synchronization absorbs the fleet-common
        // latency; only the deviation from the mean hardware delay
        // (plus this device's round-trip flight time) is residual
        // (§3.2.1 / Fig. 14b).
        const double sync_point_s =
            config_.model_timing_jitter ? config_.delay_model.mean_us * 1e-6 : 0.0;
        const double timing_offset_s =
            intent.hardware_delay_s - sync_point_s + 2.0 * slot.tof_s;
        const double frequency_offset_hz =
            intent.frequency_offset_hz + slot.doppler_hz;

        packet_contribs_.push_back(
            {.cyclic_shift = tx_shift,
             .frame_bits = {},  // attached once the flat store is final
             .snr_db = uplink_dbm - noise_floor,
             .timing_offset_s = timing_offset_s,
             .frequency_offset_hz = frequency_offset_hz,
             .taps = taps ? taps->current() : std::span<const ns::dsp::cplx>()});
        ++outcome.transmitting;
        if (faults && !faults->desynced) {
            // The AP decoded activity on this device's assigned
            // shift: its lease is refreshed. A stale-shift response
            // does NOT refresh it — from the AP's view the assigned
            // slot stayed empty, which is exactly how a desynced
            // device eventually gets lease-evicted and recovered.
            faults->silent_rounds = 0;
        }
    }

    // Membership lease: evict the scheduled members whose silence
    // just crossed the lease, reclaiming their shifts through the
    // allocator. Skipped during a blackout (the AP asked nothing).
    if (fault_injector_ && !round_blackout) {
        apply_lease(scheduled, round, outcome);
    }

    // Re-associations may have moved shifts; refresh before decoding.
    if (membership_dirty_) {
        register_active_shifts(scheduled);
    }
}

void network_simulator::superpose_phase(round_state& state) {
    const phase_scope scope(*this, round_phase::superpose, state.round);
    const round_plan& plan = state.plan;
    round_outcome& outcome = state.outcome;
    const std::size_t frame_bits = config_.frame.payload_plus_crc_bits();

    // Cross-network accounting: a foreign packet's dechirped peak
    // lands at its shift plus the displacement of the inter-AP
    // misalignment; when that falls inside the guard region of a slot
    // one of OUR transmitters used this round, the two packets
    // collide at the receiver.
    outcome.cross_tx = plan.cochannel.size();
    row_collided_.assign(plan.cochannel.empty() ? 0 : tx_row_shift_.size(), 0);
    if (!plan.cochannel.empty()) {
        const double n_bins = static_cast<double>(config_.phy.num_bins());
        const double guard = static_cast<double>(config_.skip) / 2.0;
        for (const auto& foreign : plan.cochannel) {
            double pos = static_cast<double>(foreign.cyclic_shift) +
                         config_.phy.bins_from_time_offset(foreign.timing_offset_s) +
                         config_.phy.bins_from_frequency_offset(
                             foreign.frequency_offset_hz);
            pos -= std::floor(pos / n_bins) * n_bins;
            const auto lo = static_cast<std::ptrdiff_t>(std::ceil(pos - guard));
            const auto hi = static_cast<std::ptrdiff_t>(std::floor(pos + guard));
            for (std::ptrdiff_t b = lo; b <= hi; ++b) {
                const auto n_signed = static_cast<std::ptrdiff_t>(config_.phy.num_bins());
                const std::size_t bin =
                    static_cast<std::size_t>(((b % n_signed) + n_signed) % n_signed);
                const std::int32_t row = sent_row_of_shift_[bin];
                if (row >= 0) row_collided_[static_cast<std::size_t>(row)] = 1;
            }
        }
        for (const std::uint8_t hit : row_collided_) {
            outcome.cross_collisions += hit;
        }
    }

    // One row per packet on the air, on both paths: our rows in transmit
    // order, then the co-channel rows, then the injected interferers.
    // The order fixes the phase and noise draws.
    for (std::size_t row = 0; row < tx_row_shift_.size(); ++row) {
        packet_contribs_[row].frame_bits = std::span<const std::uint8_t>(
            frame_bits_store_.data() + row * frame_bits, frame_bits);
    }
    for (const auto& foreign : plan.cochannel) {
        packet_contribs_.push_back(foreign);
    }

    ns::channel::channel_config chan;
    chan.noise_power = 1.0;
    if (symbol_domain()) {
        ns::channel::symbol_domain_params sd;
        sd.zero_padding = config_.zero_padding;
        sd.preamble_upchirps = ns::phy::distributed_modulator::preamble_upchirps;
        sd.preamble_symbols = config_.frame.preamble_symbols;
        sd.payload_symbols = frame_bits;
        sd.kernel_radius_bins = config_.symbol_kernel_radius_bins;
        // Preamble spectra now; payload bins when decode asks for them.
        ns::channel::superpose_symbol_domain(packet_contribs_, config_.phy, chan, sd, rng_,
                                             chan_ws_, plan.interference);
        state.received = &symbol_round_;
        return;
    }

    // Sample path (the oracle): each row is rendered and added as a
    // dense waveform (§3.1), a stale shift included; decode dechirps and
    // FFTs the capture.
    const std::size_t packet_samples =
        (config_.frame.preamble_symbols + frame_bits) *
        config_.phy.samples_per_symbol();
    const ns::dsp::cvec& received =
        ns::channel::combine(packet_contribs_, plan.interference, packet_samples, config_.phy,
                             chan, rng_, chan_ws_);
    decode_ws_.sampled.bind(receiver_.demod(), received, 0, config_.frame);
    state.received = &decode_ws_.sampled;
}

void network_simulator::decode_phase(round_state& state) {
    const phase_scope scope(*this, round_phase::decode, state.round);
    round_outcome& outcome = state.outcome;
    const std::size_t frame_bits = config_.frame.payload_plus_crc_bits();
    receiver_.decode_into(*state.received, decoded_, decode_ws_);

    row_scored_.assign(fault_injector_ ? tx_row_shift_.size() : 0, 0);
    for (const auto& report : decoded_.reports) {
        const std::int32_t row = sent_row_of_shift_[report.cyclic_shift];
        if (row < 0) continue;  // device did not transmit
        if (!row_scored_.empty()) {
            row_scored_[static_cast<std::size_t>(row)] = 1;
        }
        const std::span<const std::uint8_t> sent(
            frame_bits_store_.data() +
                static_cast<std::size_t>(row) * frame_bits,
            frame_bits);
        if (report.detected) {
            ++outcome.detected;
            outcome.bits_sent += sent.size();
            outcome.bit_errors += ns::util::hamming_distance(report.bits, sent);
            if (report.crc_ok && ns::util::bits_equal(report.bits, sent)) {
                ++outcome.delivered;
                if (static_cast<std::size_t>(row) < row_collided_.size() &&
                    row_collided_[static_cast<std::size_t>(row)] != 0) {
                    ++outcome.cross_collided_delivered;
                }
            }
        } else {
            // Missed preamble: every bit of the packet is lost.
            outcome.bits_sent += sent.size();
            outcome.bit_errors += ns::util::count_ones(sent);
        }
    }
    // Orphaned transmissions: rows no decode report consumed. A
    // desynced device's stale shift is outside the registered
    // schedule (or buried under a same-shift collision), so the AP
    // never even looks there — every bit it sent is lost.
    for (std::size_t row = 0; row < row_scored_.size(); ++row) {
        if (row_scored_[row] != 0) continue;
        ++outcome.orphan_tx;
        const std::span<const std::uint8_t> sent(
            frame_bits_store_.data() + row * frame_bits, frame_bits);
        outcome.bits_sent += sent.size();
        outcome.bit_errors += ns::util::count_ones(sent);
    }
}

void network_simulator::account_round(const round_state& state,
                                      const ns::obs::alloc_counters& allocs_before,
                                      sim_result& result) {
    const round_outcome& outcome = state.outcome;
    if (state.scheduled && *state.scheduled < group_acc_.size()) {
        group_metrics& acc = group_acc_[*state.scheduled];
        acc.transmitting += outcome.transmitting;
        acc.delivered += outcome.delivered;
        acc.bits_sent += outcome.bits_sent;
        acc.bit_errors += outcome.bit_errors;
    }

    result.rounds.push_back(outcome);
    for (const outcome_counter& counter : outcome_counters) {
        result.*counter.total += outcome.*counter.round;
    }
    if (symbol_domain()) ++result.fast_path_rounds;

    if (probes_.rounds == nullptr) return;
    probes_.rounds->add(1);
    if (symbol_domain()) probes_.fast_rounds->add(1);
    for (std::size_t i = 0; i < outcome_counters.size(); ++i) {
        if (probes_.outcomes[i] != nullptr) {
            probes_.outcomes[i]->add(outcome.*outcome_counters[i].round);
        }
    }
    probes_.active_devices->set(static_cast<double>(ap_.active_count()));
    probes_.num_groups->set(static_cast<double>(ap_.num_groups()));
    // Per-round allocation delta (thread-local, so the numbers
    // are this replica's own regardless of pool concurrency).
    // Rounds inside the warmup window grow workspace capacity by
    // design (by how much follows the round-thread count); the
    // steady-state counters and round.allocs start after it.
    const ns::obs::alloc_counters allocs_now = ns::obs::thread_allocations();
    const std::uint64_t alloc_delta = allocs_now.count - allocs_before.count;
    if (state.round < config_.obs.alloc_warmup_rounds) {
        probes_.alloc_warmup_count->add(alloc_delta);
    } else {
        probes_.round_allocs->record(static_cast<double>(alloc_delta));
        probes_.alloc_steady_count->add(alloc_delta);
        probes_.alloc_steady_bytes->add(allocs_now.bytes - allocs_before.bytes);
        probes_.alloc_steady_rounds->add(1);
    }
}

}  // namespace ns::sim
