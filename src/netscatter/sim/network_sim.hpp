// End-to-end network simulator.
//
// Drives the full pipeline the paper's deployment exercises: the AP
// queries, every associated device responds concurrently through the
// superposition channel (with per-packet hardware delay jitter, CFO,
// power adaptation and fading), and the NetScatter receiver decodes all
// devices with one FFT per symbol. Rounds synthesize post-dechirp spectra
// directly by default (phy_fidelity, §3.2); the sample path synthesizes
// the time-domain baseband. Decode success feeds the analytic timeline
// models (timeline.hpp) to produce the Figs. 17-19 series.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netscatter/channel/fading.hpp"
#include "netscatter/channel/impairments.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/device/backscatter_device.hpp"
#include "netscatter/engine/block_runner.hpp"
#include "netscatter/faults/fault_injector.hpp"
#include "netscatter/faults/fault_spec.hpp"
#include "netscatter/mac/ap.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/obs/perf_counters.hpp"
#include "netscatter/obs/trace.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/phy/frame.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/rx/receiver.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/round_hooks.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::sim {

/// PHY synthesis fidelity of the simulator's channel (§3.2 fast path),
/// chosen once per run.
///
/// The dechirp-to-tone identity makes every row of a round analytic in
/// the receiver's post-dechirp spectrum (packets, multipath, interferers),
/// so the symbol path skips time-domain synthesis, the per-device
/// forward FFTs and every intermediate buffer.
enum class phy_fidelity {
    /// Synthesize time-domain waveforms and decode from samples: the
    /// oracle. Bit-identical to the historic simulator.
    sample,
    /// Synthesize the receiver's per-symbol spectra directly (default).
    symbol,
};

/// Mid-scenario adaptive control of the group partition (§3.3.3).
enum class regroup_policy {
    none,            ///< the partition stays as computed at construction
    periodic,        ///< full regroup every regroup_period_rounds
    load_triggered,  ///< full regroup once enough admissions misfit
};

/// §3.3.3 group scheduling. When enabled, the AP partitions the
/// population into signal-strength-homogeneous groups (group_scheduler)
/// and addresses ONE group per query, round-robin; cyclic shifts are
/// allocated per group, so devices in different groups may share a
/// shift. Latency multiplies by the group count, but every group's
/// near-far spread fits the decoder's dynamic range. With grouping
/// enabled the allocation is always power-aware (grouping subsumes the
/// power_aware_allocation ablation switch).
struct grouping_config {
    bool enabled = false;
    /// Devices per group, clamped to the allocator's slot count.
    std::size_t group_capacity = 256;
    double max_dynamic_range_db = 35.0;  ///< Fig. 15b per-group limit
    regroup_policy policy = regroup_policy::none;
    std::size_t regroup_period_rounds = 16;  ///< periodic cadence
    /// load_triggered: regroup after this many admissions since the last
    /// regroup failed to fit any existing group's span (each such misfit
    /// opened a fresh group — the partition has drifted).
    std::size_t load_trigger_misfits = 8;
};

/// Simulator configuration. The boolean switches support the ablation
/// benches (power-aware allocation off, power adaptation off, jitter off).
struct sim_config {
    ns::phy::css_params phy = ns::phy::deployed_params();
    ns::phy::frame_format frame = ns::phy::phy_format();
    std::uint32_t skip = 2;
    std::size_t zero_padding = 8;
    double detection_factor = 4.0;

    bool power_aware_allocation = true;  ///< §3.2.3 coarse-grained assignment
    bool power_adaptation = true;        ///< §3.2.3 fine-grained adjustment
    bool model_timing_jitter = true;     ///< hardware delay variation (§3.2.1)
    bool model_cfo = true;               ///< crystal offsets (§3.2.2)

    /// Channel synthesis fidelity (see phy_fidelity). `sample` keeps
    /// historic bit-identical results; the default symbol-domain fast
    /// path is statistically equivalent (enforced by tests) and an order
    /// of magnitude cheaper per device.
    phy_fidelity fidelity = phy_fidelity::symbol;
    /// Dirichlet kernel truncation radius of the fast path, in chip bins.
    std::size_t symbol_kernel_radius_bins = 16;

    /// Frequency-selective multipath: every device gets a persistent
    /// tapped delay line (channel::tap_delay_line) whose scattered taps
    /// decorrelate round to round with coefficient multipath_rho.
    /// Representable on BOTH synthesis paths — the sample path convolves
    /// the taps, the fast path folds them into a spectral envelope on
    /// the Dirichlet window — so multipath rounds stay symbol-domain.
    bool model_multipath = false;
    ns::channel::multipath_model multipath{};
    double multipath_rho = 0.9;  ///< round-to-round tap correlation

    /// This AP's network identifier. Co-channel deployments give each AP
    /// a distinct id; packets of other networks reach this receiver only
    /// as structured interference (round_plan::cochannel).
    std::uint32_t network_id = 0;

    double fading_sigma_db = 1.5;        ///< per-device one-way fading std dev
    double fading_rho = 0.9;             ///< round-to-round correlation

    /// §3.3.3 group scheduling (off by default: one concurrency group).
    grouping_config grouping{};

    /// Control-plane fault injection + recovery (faults/fault_spec.hpp).
    /// All-zero by default: no injector is built, no draws happen and
    /// results are bit-identical to a fault-free build.
    ns::faults::fault_spec faults{};

    std::size_t rounds = 10;
    std::uint64_t seed = 1;

    /// Intra-round fan-out of the symbol-domain sweep: symbol blocks of
    /// one round run across this many threads (1 = fully serial; 0 is
    /// invalid; sample fidelity runs serially at any value). Spectra are bit-identical at any value — noise is
    /// seeded per symbol, kernel order is fixed per symbol — so this is
    /// purely a latency knob for big rounds (e.g. field-100k's SF12
    /// spectra). The simulator owns a dedicated block_runner, distinct
    /// from any Monte-Carlo pool its replica runs on, so nested
    /// parallelism cannot deadlock. Note each simulator (replica) spawns
    /// its own workers: combining many replicas with many intra-round
    /// threads oversubscribes the host.
    std::size_t intra_round_threads = 1;

    /// Observability (metrics registry + trace ring). Metrics are on by
    /// default and deterministic apart from the phase-timer histograms,
    /// which are registered as ns::obs::origin::host and so stay out of
    /// determinism comparisons; tracing is opt-in (--trace).
    ns::obs::options obs{};

    ns::channel::hardware_delay_model delay_model{};
    ns::channel::crystal_model crystal{};

    /// Throws ns::util::invalid_argument when a field is outside its
    /// documented domain (rounds == 0, skip outside [1, bins), a
    /// non-positive detection factor, ...). network_simulator calls this
    /// on construction, so a bad configuration fails loudly instead of
    /// producing undefined or garbage results.
    void validate() const;
};

/// Outcome counters of one round. Every field but scheduled_group and
/// scheduled is an outcome counter with a row in `outcome_counters`
/// below, which is where its total, registry metric and JSON keys live.
struct round_outcome {
    std::size_t active = 0;        ///< devices associated this round
    std::size_t transmitting = 0;  ///< devices that sent this round
    std::size_t skipped = 0;       ///< devices that sat out (power adaptation)
    std::size_t idle = 0;          ///< devices with no data (traffic gating)
    std::size_t detected = 0;      ///< preamble detected
    std::size_t delivered = 0;     ///< CRC passed
    std::size_t bit_errors = 0;    ///< payload+CRC bit errors across devices
    std::size_t bits_sent = 0;

    // Churn / control-plane counters (zero without hooks).
    std::size_t joins = 0;             ///< devices that joined this round
    std::size_t leaves = 0;            ///< devices that left this round
    std::size_t rejected_joins = 0;    ///< joins refused (network full)
    std::size_t reassociations = 0;    ///< in-tolerance re-association events
    std::size_t realloc_events = 0;    ///< per-device slot (re)assignments
    std::size_t full_reassignments = 0;///< whole-group reallocation runs

    // Group scheduling (§3.3.3; -1/0 when grouping is off).
    int scheduled_group = -1;  ///< group this round's query addressed
    std::size_t scheduled = 0; ///< active devices in the scheduled group
    std::size_t regroups = 0;  ///< full-partition regroups this round

    // Co-channel interference (zero without a second network).
    std::size_t cross_tx = 0;          ///< foreign packets superposed
    std::size_t cross_collisions = 0;  ///< own transmitters whose slot
                                       ///< guard region a foreign peak hit
    std::size_t cross_collided_delivered = 0;  ///< collided yet delivered

    // Control-plane faults + recovery (all zero with faults off).
    std::size_t query_losses = 0;     ///< downlink queries lost this round
    std::size_t ack_losses = 0;       ///< association-ACK transmissions lost
    std::size_t ack_timeouts = 0;     ///< handshakes abandoned (retry cap)
    std::size_t reboots = 0;          ///< devices rebooted this round
    std::size_t down_events = 0;      ///< devices that lost association
                                      ///< (reboot, missed-query trip, eviction)
    std::size_t lease_evictions = 0;  ///< silent members evicted by the lease
    std::size_t desyncs = 0;          ///< devices that missed a regroup and
                                      ///< kept a stale shift
    std::size_t resyncs = 0;          ///< stale devices that re-heard a query
    std::size_t recoveries = 0;       ///< down devices re-associated
    std::size_t orphan_tx = 0;        ///< transmissions no decode report
                                      ///< consumed (stale/unregistered shift)
    std::size_t orphan_collisions = 0;///< same-shift transmitter pairs
    std::size_t blackout = 0;         ///< 1 when this round fell in an AP
                                      ///< blackout (sums to blackout rounds)
};

/// Per-group accumulators of a grouped run (§3.3.3), keyed by group id
/// — i.e. by scheduling slot. The counters cover every round the slot
/// was addressed over the whole run; a regroup re-populates the slots,
/// so after one the counters span more than one device partition while
/// `members` and the power span describe only the final partition.
struct group_metrics {
    std::size_t members = 0;          ///< membership at the end of the run
    std::size_t scheduled_rounds = 0; ///< rounds this group was addressed
    std::size_t transmitting = 0;
    std::size_t delivered = 0;
    std::size_t bits_sent = 0;
    std::size_t bit_errors = 0;
    double min_power_dbm = 0.0;  ///< final power span (0/0 when empty)
    double max_power_dbm = 0.0;

    double delivery_rate() const {
        return transmitting == 0 ? 0.0
                                 : static_cast<double>(delivered) /
                                       static_cast<double>(transmitting);
    }
};

/// Aggregated simulation result.
struct sim_result {
    std::vector<round_outcome> rounds;
    std::size_t total_transmitting = 0;
    std::size_t total_delivered = 0;
    std::size_t total_detected = 0;
    std::size_t total_bit_errors = 0;
    std::size_t total_bits = 0;
    std::size_t total_skipped = 0;
    std::size_t total_idle = 0;
    std::size_t total_active_rounds = 0;  ///< sum of per-round active counts
    std::size_t total_joins = 0;
    std::size_t total_leaves = 0;
    std::size_t total_rejected_joins = 0;
    std::size_t total_reassociations = 0;
    std::size_t total_realloc_events = 0;
    std::size_t total_full_reassignments = 0;
    std::size_t total_regroups = 0;
    std::size_t total_cross_tx = 0;
    std::size_t total_cross_collisions = 0;
    std::size_t total_cross_collided_delivered = 0;
    // Fault/recovery totals (zero with faults off).
    std::size_t total_query_losses = 0;
    std::size_t total_ack_losses = 0;
    std::size_t total_ack_timeouts = 0;
    std::size_t total_reboots = 0;
    std::size_t total_down_events = 0;
    std::size_t total_lease_evictions = 0;
    std::size_t total_desyncs = 0;
    std::size_t total_resyncs = 0;
    std::size_t total_recoveries = 0;
    std::size_t total_orphan_tx = 0;
    std::size_t total_orphan_collisions = 0;
    std::size_t total_blackout_rounds = 0;
    /// Devices still disassociated (down, awaiting rejoin) when the run
    /// ended; total_down_events == total_recoveries + devices_down_at_end.
    std::size_t devices_down_at_end = 0;

    /// Rounds served by the symbol-domain fast path (== rounds.size()
    /// under phy_fidelity::symbol, 0 under ::sample).
    std::size_t fast_path_rounds = 0;

    /// Full metrics snapshot of this replica's registry (counters,
    /// gauges, per-phase histograms — see README "Observability" for the
    /// catalogue). merge() folds name-wise in task order, preserving the
    /// Monte-Carlo runner's determinism contract: every non-timing entry
    /// is bit-identical across thread counts.
    ns::obs::metrics_snapshot metrics;
    /// Trace spans recorded when config.obs.trace is set; replicas
    /// concatenate in task order. Host timestamps — never written into
    /// scenario reports, only via --trace.
    std::vector<ns::obs::trace_event> trace;
    /// Spans dropped because the bounded trace ring filled up.
    std::uint64_t trace_dropped = 0;

    /// Per-group accumulators, indexed by group id; empty when grouping
    /// is off. merge() sums entries index-wise, so after a replica merge
    /// each entry aggregates that group id across all replicas (members
    /// included — interpret per-replica members as members / replicas).
    /// May hold more rows than num_groups: a regroup that shrinks the
    /// partition retires the trailing slots (members 0) but their
    /// counters are kept so per-group sums still decompose the totals.
    std::vector<group_metrics> groups;
    /// Final scheduled-group count (max across merged replicas; 0 when
    /// grouping is off).
    std::size_t num_groups = 0;

    /// Appends another result's rounds and adds its totals (every
    /// `outcome_counters` total, run-level fields and metrics). Used to
    /// combine independent Monte-Carlo replicas (scenario runner, sweep
    /// engine); merging in replica order keeps the combined statistics
    /// identical regardless of execution order.
    void merge(const sim_result& other);

    /// Fraction of transmitted packets that passed CRC.
    double delivery_rate() const;
    /// Bit error rate over every transmitted payload+CRC bit.
    double ber() const;
    /// Mean devices delivered per round.
    double mean_delivered_per_round() const;
    /// Fraction of active device-rounds spent in a power-adaptation skip.
    double skip_rate() const;
    /// Fraction of active device-rounds with no data to send.
    double idle_rate() const;
    /// Fraction of association losses that re-associated before the run
    /// ended (1 when no device went down).
    double recovery_ratio() const;
};

/// Where an outcome counter's key sits in the scenario JSON
/// (apps/scenario_report.hpp). The report interleaves counter keys with
/// derived fields and its key order is part of the output contract, so
/// it emits each block at one fixed place, rows in table order.
enum class json_block : std::uint8_t {
    none,          ///< no key
    membership,    ///< scalars after "join_requests"
    cochannel,     ///< scalars after "network_id"
    grouping,      ///< scalars after "num_groups"
    faults,        ///< scalars after "decode_wall_s"
    round_head,    ///< per-round fields after "round"
    round_body,    ///< per-round fields after "scheduled"
    round_faults,  ///< per-round fields after "loss_rate"
};

/// One scenario-JSON key and its block (no key when `name` is null).
struct json_key {
    const char* name = nullptr;
    json_block block = json_block::none;
};

/// One outcome counter: its per-round field, its run total and where it
/// is published. `outcome_counters` is the one list of them — the
/// per-round accumulate, merge(), the registry publish, the scenario
/// JSON and the determinism fingerprints all iterate it, so adding a
/// counter is one row plus its two field declarations.
struct outcome_counter {
    std::size_t round_outcome::*round;
    std::size_t sim_result::*total;
    json_key scalar;     ///< scenario-JSON scalar carrying the total
    json_key point;      ///< scenario-JSON per-round field
    const char* metric;  ///< registry counter fed per round, or nullptr
    /// Keys and metric exist only when the spec injects faults, so a
    /// fault-free run publishes exactly what it did before faults existed.
    bool fault_only;
};

inline constexpr auto outcome_counters = std::to_array<outcome_counter>({
    // round field, run total,
    //   {scalar key, block}, {per-round key, block}, registry metric, fault_only
    {&round_outcome::active, &sim_result::total_active_rounds,
     {}, {"active", json_block::round_head}, nullptr, false},
    {&round_outcome::transmitting, &sim_result::total_transmitting,
     {}, {"transmitting", json_block::round_body}, "sim.tx_packets", false},
    {&round_outcome::delivered, &sim_result::total_delivered,
     {}, {"delivered", json_block::round_body}, "sim.delivered", false},
    {&round_outcome::detected, &sim_result::total_detected,
     {}, {}, "sim.detected", false},
    {&round_outcome::bit_errors, &sim_result::total_bit_errors,
     {}, {}, nullptr, false},
    {&round_outcome::bits_sent, &sim_result::total_bits,
     {}, {}, nullptr, false},
    {&round_outcome::skipped, &sim_result::total_skipped,
     {}, {"skipped", json_block::round_body}, nullptr, false},
    {&round_outcome::idle, &sim_result::total_idle,
     {}, {"idle", json_block::round_body}, nullptr, false},
    {&round_outcome::joins, &sim_result::total_joins,
     {"joins", json_block::membership}, {"joins", json_block::round_body},
     nullptr, false},
    {&round_outcome::leaves, &sim_result::total_leaves,
     {"leaves", json_block::membership}, {"leaves", json_block::round_body},
     nullptr, false},
    {&round_outcome::rejected_joins, &sim_result::total_rejected_joins,
     {"rejected_joins", json_block::membership}, {}, nullptr, false},
    {&round_outcome::reassociations, &sim_result::total_reassociations,
     {"reassociations", json_block::membership}, {}, nullptr, false},
    {&round_outcome::realloc_events, &sim_result::total_realloc_events,
     {"realloc_events", json_block::membership},
     {"realloc_events", json_block::round_body}, nullptr, false},
    {&round_outcome::full_reassignments, &sim_result::total_full_reassignments,
     {"full_reassignments", json_block::membership}, {}, nullptr, false},
    {&round_outcome::regroups, &sim_result::total_regroups,
     {"regroups", json_block::grouping}, {"regroups", json_block::round_body},
     nullptr, false},
    {&round_outcome::cross_tx, &sim_result::total_cross_tx,
     {"cross_tx", json_block::cochannel}, {"cross_tx", json_block::round_body},
     "sim.cross_tx", false},
    {&round_outcome::cross_collisions, &sim_result::total_cross_collisions,
     {"cross_collisions", json_block::cochannel},
     {"cross_collisions", json_block::round_body}, "sim.cross_collisions", false},
    {&round_outcome::cross_collided_delivered,
     &sim_result::total_cross_collided_delivered,
     {"cross_collided_delivered", json_block::cochannel}, {}, nullptr, false},
    {&round_outcome::query_losses, &sim_result::total_query_losses,
     {"fault_query_losses", json_block::faults},
     {"query_losses", json_block::round_faults}, "fault.query_losses", true},
    {&round_outcome::ack_losses, &sim_result::total_ack_losses,
     {"fault_ack_losses", json_block::faults},
     {"ack_losses", json_block::round_faults}, "fault.ack_losses", true},
    {&round_outcome::ack_timeouts, &sim_result::total_ack_timeouts,
     {"fault_ack_timeouts", json_block::faults}, {}, "fault.ack_timeouts", true},
    {&round_outcome::reboots, &sim_result::total_reboots,
     {"fault_reboots", json_block::faults},
     {"reboots", json_block::round_faults}, "fault.reboots", true},
    {&round_outcome::down_events, &sim_result::total_down_events,
     {"fault_down_events", json_block::faults},
     {"down_events", json_block::round_faults}, "fault.down_events", true},
    {&round_outcome::lease_evictions, &sim_result::total_lease_evictions,
     {"fault_lease_evictions", json_block::faults},
     {"lease_evictions", json_block::round_faults}, "fault.lease_evictions", true},
    {&round_outcome::desyncs, &sim_result::total_desyncs,
     {"fault_desyncs", json_block::faults},
     {"desyncs", json_block::round_faults}, "fault.desyncs", true},
    {&round_outcome::resyncs, &sim_result::total_resyncs,
     {"fault_resyncs", json_block::faults},
     {"resyncs", json_block::round_faults}, "fault.resyncs", true},
    {&round_outcome::recoveries, &sim_result::total_recoveries,
     {"fault_recoveries", json_block::faults},
     {"recoveries", json_block::round_faults}, "fault.recoveries", true},
    {&round_outcome::orphan_tx, &sim_result::total_orphan_tx,
     {"fault_orphan_tx", json_block::faults},
     {"orphan_tx", json_block::round_faults}, "fault.orphan_tx", true},
    {&round_outcome::orphan_collisions, &sim_result::total_orphan_collisions,
     {"fault_orphan_collisions", json_block::faults}, {},
     "fault.orphan_collisions", true},
    {&round_outcome::blackout, &sim_result::total_blackout_rounds,
     {"fault_blackout_rounds", json_block::faults},
     {"blackout", json_block::round_faults}, "fault.blackout_rounds", true},
});

/// Host wall-clock split of the round loop read from a metrics snapshot,
/// summed over every recorded round: transmit side (the synth and
/// superpose phases) vs receiver decode. Zero with metrics off.
struct round_wall_split {
    double synth_s = 0.0;
    double decode_s = 0.0;
};
round_wall_split wall_split(const ns::obs::metrics_snapshot& metrics);

/// The simulator.
///
/// Without hooks it behaves exactly as it always has: every placed
/// device is associated up front (batch power-aware allocation) and
/// transmits every round. With hooks (see round_hooks.hpp) the active
/// set, per-round traffic, link budgets and in-band interference are all
/// injectable, and the AP (ns::mac::access_point, whose device table
/// the simulator is) makes every membership and allocation decision.
/// That includes a device that power adaptation sends back to
/// association: with hooks the AP re-places it, without hooks it keeps
/// its slot, so even default-constructed hooks change outcomes once such
/// a device exists.
class network_simulator final : private ns::mac::device_table {
public:
    /// `hooks` (optional, non-owning, may be nullptr) must outlive the
    /// simulator.
    network_simulator(const deployment& dep, sim_config config,
                      round_hooks* hooks = nullptr);
    /// The device slots point into the simulator's shared parameters, so
    /// a simulator stays where it was built.
    network_simulator(const network_simulator&) = delete;
    network_simulator& operator=(const network_simulator&) = delete;

    /// Runs the configured number of rounds.
    sim_result run();

    /// The uplink SNR (dB, at the association-time gain) per device, from
    /// its deployed link budget.
    std::vector<double> association_snrs_db() const;

    /// The AP: the current members, their groups and shifts.
    const ns::mac::access_point& ap() const { return ap_; }

private:
    /// The round loop's phases, in execution order; each owns a trace
    /// span, a round.<phase>_s histogram and perf.<phase>.* counters.
    enum class round_phase : std::uint8_t { plan, grouping, synth, superpose, decode };
    static constexpr std::array<const char*, 5> phase_names = {
        "plan", "grouping", "synth", "superpose", "decode"};
    /// The constructor's set-up steps, in execution order, each timed
    /// once per simulator: the slot pass, the partition and shift
    /// allocation, and the association of every active device.
    static constexpr std::array<const char*, 3> ctor_timer_names = {
        "sim.ctor.slots_s", "sim.ctor.partition_s", "sim.ctor.associate_s"};

    /// State one round hands from phase to phase.
    struct round_state {
        std::size_t round = 0;
        round_outcome outcome;
        round_plan plan;
        bool blackout = false;   ///< the AP is dark this round (faults)
        /// Group this round's query addresses (grouped runs with at least
        /// one group; unset otherwise).
        std::optional<std::size_t> scheduled;
        /// The superposed round as the decoder reads it, on either
        /// fidelity (set by superpose_phase).
        ns::phy::dechirped_round* received = nullptr;
    };

    /// RAII scope of one phase: opens its trace span (feeding the phase
    /// histogram) and its perf counter scope together, closes both on
    /// exit.
    class phase_scope;

    /// Starts a round: advances the fault schedule.
    round_state begin_round(std::size_t round);
    /// Hooks' round plan, membership changes and injected reboots.
    void plan_phase(round_state& state);
    /// Adaptive regroup and the scheduled group's registered shifts.
    void grouping_phase(round_state& state);
    /// Device MAC decisions and per-transmitter frame bits / packets,
    /// then the membership lease.
    void synth_phase(round_state& state);
    /// Cross-network collision marks and channel superposition; hands
    /// decode the round's dechirped view (state.received).
    void superpose_phase(round_state& state);
    /// Whether rounds synthesize spectra directly (phy_fidelity::symbol).
    bool symbol_domain() const { return config_.fidelity == phy_fidelity::symbol; }
    /// Receiver decode and scoring of every report against the sent bits.
    void decode_phase(round_state& state);
    /// Per-group and run totals, registry publish and allocation deltas.
    void account_round(const round_state& state,
                       const ns::obs::alloc_counters& allocs_before,
                       sim_result& result);

    /// device_slot::radio_index of a device never scheduled yet.
    static constexpr std::uint32_t no_radio = static_cast<std::uint32_t>(-1);

    /// Per-device state the control plane reads for every device, built
    /// at set-up and holding only what differs between devices. The
    /// static device configuration is device_params_, the fading
    /// statistics fading_params_ and the multipath profile tap_profile_
    /// (one copy each, shared by every slot); the fixed placement (id =
    /// slot index, position, path loss) stays in the deployment; the
    /// radio lives in radios_ once built, tap lines in taps_, fault state
    /// in fault_slots_ and membership in the AP.
    struct device_slot {
        // --- Link budget: a round plan's link_updates rewrite these ------
        double query_rssi_dbm = 0.0;  ///< downlink power at the device
        double uplink_rx_dbm = 0.0;   ///< backscatter power at the AP, 0 dB gain
        double tof_s = 0.0;           ///< propagation time of flight
        double doppler_hz = 0.0;      ///< mobility-induced Doppler this round
        ns::device::device_association association;
        /// The set-up chain's words for this device, read once, when its
        /// radio is built: its generator's seed and the raw word behind
        /// the fork that seeds its fading.
        std::uint64_t device_seed = 0;
        std::uint64_t fading_seed = 0;
        std::uint32_t radio_index = no_radio;  ///< into radios_
    };

    /// The state only a scheduled device draws from or advances, built
    /// the first time the device is scheduled (build_radios) from its
    /// slot's chain words. Nothing draws from an unbuilt device's
    /// streams, so a late build is bit-identical to one at set-up.
    struct slot_radio {
        ns::device::device_radio device;
        ns::channel::gauss_markov_fading fading;
        /// AR steps the fading (and multipath) processes have taken so
        /// far; 0 at build, as an unbuilt radio's processes never moved.
        /// Unobserved devices are not touched at all per round; when
        /// next scheduled they catch up to the simulation clock through
        /// the exact k-step AR(1) transition.
        std::uint64_t fading_rounds = 0;
    };

    /// Fault/recovery state of one device (faults on only).
    struct fault_slot {
        /// Round the current down episode began (recovery latency base).
        std::size_t down_round = 0;
        std::size_t desync_round = 0;  ///< round the desync began
        std::uint32_t stale_shift = 0; ///< shift a desynced device still uses
        /// Consecutive queries the device failed to hear (device side).
        std::uint32_t missed_queries = 0;
        /// Consecutive scheduled rounds the AP heard nothing (lease).
        std::uint32_t silent_rounds = 0;
        /// Device lost its association (reboot, missed-query trip or
        /// lease eviction) and is rejoining through the Aloha path. While
        /// the AP still lists it as a member the device is a zombie:
        /// scheduled but silent.
        bool down = false;
        /// Device missed a regroup query: it keeps transmitting on
        /// `stale_shift` while the AP's schedule moved on (§3.3.3 desync).
        bool desynced = false;
    };

    /// Applies a scenario's round plan: link updates, leaves, then joins
    /// (the AP admits or refuses each). `round` timestamps fault recovery
    /// events; `blackout` defers joins.
    void apply_round_plan(const round_plan& plan, round_outcome& outcome,
                          std::size_t round, bool blackout);
    /// The AP's regroup (§3.3.3 adaptive control). With faults on,
    /// devices that miss `round`'s query keep their old shift
    /// (stale-schedule desync).
    void regroup(round_outcome& outcome, std::size_t round);
    /// Grows group_acc_ to the AP's group count.
    void track_groups();
    /// Associates the device in `slot_index` on `shift` with the
    /// association-time gain rule, using `baseline_rssi_dbm` as the
    /// device's fresh downlink baseline.
    void associate_slot(std::size_t slot_index, std::uint32_t shift,
                        double baseline_rssi_dbm);
    /// Refreshes the receiver's registered shifts from the AP's members
    /// (of `group` when set).
    void register_active_shifts(std::optional<std::size_t> group = std::nullopt);

    // --- The AP's device table (ns::mac::device_table) ------------------
    /// Uplink power at the AP at the device's current gain.
    double power_dbm(std::uint32_t id) const override;
    std::uint32_t shift(std::uint32_t id) const override;
    /// associate_slot with the device's downlink power as its baseline.
    void associate(std::uint32_t id, std::uint32_t shift) override;

    /// Builds the radio of every member of `group` (every member when
    /// unset) that has none yet, in member order, from its slot's chain
    /// words.
    void build_radios(std::optional<std::size_t> group);

    // --- Fault injection / protocol recovery (faults/) -----------------
    /// Drops `slot_index` from the AP's members. The shared leave /
    /// eviction path.
    void deactivate_slot(std::size_t slot_index);
    /// Marks the device disassociated (reboot / missed-query trip /
    /// lease eviction): it falls silent and must rejoin via the Aloha
    /// path. Notifies the hooks so the scenario's churn re-queues it.
    void go_down(std::size_t slot_index, std::size_t round,
                 member_loss_reason reason, round_outcome& outcome);
    /// Ends a desync episode: the stale device re-learned its shift.
    void resync(fault_slot& faults, std::size_t round, round_outcome& outcome);
    /// Whether a scheduled device hears this round's query and may
    /// respond; otherwise it stays silent (down, AP blackout or lost
    /// query) and its missed-query and lease bookkeeping advance.
    bool hears_query(round_state& state, std::size_t slot_index);
    /// Diverts ACK-delayed joiners out of `joins` into pending_acks_ and
    /// reinserts the ones whose handshake completes this round.
    void apply_ack_faults(std::vector<std::uint32_t>& joins,
                          std::size_t round, round_outcome& outcome);
    /// Membership-lease sweep over this round's scheduled members.
    void apply_lease(std::optional<std::size_t> scheduled_group,
                     std::size_t round, round_outcome& outcome);

    const deployment* deployment_;
    sim_config config_;
    round_hooks* hooks_ = nullptr;
    ns::util::rng rng_;
    /// The one device_params and fading statistics every slot reads.
    const ns::device::device_params device_params_;
    const ns::channel::fading_params fading_params_;
    /// One slot per placed device, indexed by device id (ids are dense).
    std::vector<device_slot> slots_;
    /// The radios built so far, in build order. Reserved at set-up to
    /// what run() can build, so a build never reallocates: the universe
    /// in an ungrouped run, else min(universe, rounds × group capacity).
    /// That bound holds because each grouped round builds radios only for
    /// its one scheduled group's members, and a group never holds more
    /// than the scheduler's capacity: the partition cuts at it,
    /// group_scheduler::admit picks only groups with room, and a new
    /// group starts empty. Capacity no build reaches is never written,
    /// but it can still be resident: in a process that runs many
    /// replicas, the reservation may land on heap pages an earlier
    /// replica touched and the heap kept.
    std::vector<slot_radio> radios_;
    /// Per-slot fault state, allocated only with faults on (empty
    /// otherwise).
    std::vector<fault_slot> fault_slots_;
    /// The one power-delay profile every tap line reads (set only under
    /// model_multipath).
    std::optional<ns::channel::tap_profile> tap_profile_;
    /// Per-slot multipath state, allocated only under model_multipath
    /// (empty otherwise); advanced like fading, so a device's channel
    /// time series is independent of its membership history.
    std::vector<ns::channel::tap_delay_line> taps_;
    /// Membership, groups and shifts. A grouped round walks only its
    /// scheduled group's members, so a 100k-device deployment, all of it
    /// active, streams one group's slots per round, not 100k.
    ns::mac::access_point ap_;
    bool membership_dirty_ = false;
    /// Fault schedule generator (config.faults.enabled() only; nullopt
    /// keeps every fault path compiled out of the hot loop's behaviour).
    std::optional<ns::faults::fault_injector> fault_injector_;
    /// Joins the AP could not serve during a blackout; replayed on the
    /// first round the AP is back.
    std::vector<std::uint32_t> deferred_joins_;
    /// Handshakes stalled by lost ACKs: (device id, round the replayed
    /// response finally gets through).
    std::vector<std::pair<std::uint32_t, std::size_t>> pending_acks_;
    /// Mutable copy of a plan's joins while the fault layer reorders /
    /// defers / times out handshakes (plan itself is const).
    std::vector<std::uint32_t> join_scratch_;
    /// Slot-index staging of the lease sweep and reboot victim draws.
    std::vector<std::uint32_t> fault_scratch_;
    /// Per-group accumulators (empty when grouping is off).
    std::vector<group_metrics> group_acc_;
    ns::rx::receiver receiver_;

    // --- Observability (obs/) ------------------------------------------
    // One registry per simulator instance; a replica owns its simulator,
    // so the registry is thread-confined and its snapshot merges at the
    // replica boundary. Handles are fetched once in the constructor; the
    // round loop touches only these pointers (null when runtime-disabled,
    // which also keeps the probes from reading the clock).
    struct obs_probes {
        ns::obs::histogram* round_total = nullptr;  ///< round.total_s
        ns::obs::histogram* round_allocs = nullptr; ///< round.allocs
        /// Per phase: the round.<phase>_s histogram and the perf.<phase>.*
        /// counters (unwired unless obs.perf is set AND the group
        /// opened, so the default round loop makes zero perf syscalls).
        struct phase_probe {
            ns::obs::histogram* hist = nullptr;
            ns::obs::perf_phase_counters perf{};
        };
        std::array<phase_probe, phase_names.size()> phases{};
        /// Index-aligned with outcome_counters: the row's registry
        /// counter, null when it has none or is gated off.
        std::array<ns::obs::counter*, outcome_counters.size()> outcomes{};
        ns::obs::counter* rounds = nullptr;
        ns::obs::counter* fast_rounds = nullptr;
        ns::obs::counter* alloc_warmup_count = nullptr;
        ns::obs::counter* alloc_steady_count = nullptr;
        ns::obs::counter* alloc_steady_bytes = nullptr;
        ns::obs::counter* alloc_steady_rounds = nullptr;
        ns::obs::gauge* active_devices = nullptr;
        ns::obs::gauge* num_groups = nullptr;
        // Fetched only when config.faults.enabled().
        ns::obs::histogram* fault_recovery_rounds = nullptr;
        ns::obs::histogram* fault_resync_rounds = nullptr;
    };
    ns::obs::metrics_registry metrics_;
    ns::obs::trace_buffer trace_;
    obs_probes probes_{};
    /// Per-replica hardware counter group (obs.perf). Opened in the
    /// constructor on the replica's thread — the scenario runner builds
    /// each simulator inside its Monte-Carlo task, so the fds attach to
    /// the thread that runs the rounds. Counter values flow one way,
    /// registry-outward: nothing in the simulation reads them back.
    ns::obs::perf_counter_group perf_group_;

    /// Intra-round symbol-block fan-out (symbol fidelity with
    /// config.intra_round_threads > 1).
    /// Owned by the simulator — NOT the Monte-Carlo pool the replica
    /// itself may be running on — so a replica task blocking in run()
    /// can never starve the workers it is waiting for.
    std::optional<ns::engine::block_runner> round_pool_;

    // --- Per-round workspaces (reused across rounds; the steady-state
    // loop allocates nothing per device once the buffers are warm) ------
    ns::channel::channel_workspace chan_ws_;
    ns::channel::symbol_round symbol_round_{chan_ws_};  ///< chan_ws_'s fast-path round
    ns::rx::decode_workspace decode_ws_;
    ns::rx::decode_result decoded_;
    /// This round's packets on the air, on both paths: our transmitters
    /// in transmit order, then the co-channel network's packets.
    std::vector<ns::channel::packet_contribution> packet_contribs_;
    std::vector<bool> payload_scratch_;
    std::vector<bool> frame_scratch_;
    /// Flat 0/1 bytes of every transmitter's frame bits this round, one
    /// fixed-width row per transmitter in transmit order.
    std::vector<std::uint8_t> frame_bits_store_;
    std::vector<std::uint32_t> tx_row_shift_;    ///< row -> cyclic shift
    std::vector<std::int32_t> sent_row_of_shift_;  ///< shift -> row or -1
    std::vector<std::uint32_t> shift_scratch_;   ///< registered-shift staging
    /// Cross-network collision marks, one per transmitter row this round
    /// (empty when the round had no co-channel packets).
    std::vector<std::uint8_t> row_collided_;
    /// Rows a decode report consumed this round (faults only): the
    /// complement is the orphaned transmissions — stale or collided
    /// shifts the schedule no longer decodes.
    std::vector<std::uint8_t> row_scored_;
};

}  // namespace ns::sim
