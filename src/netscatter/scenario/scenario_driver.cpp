#include "netscatter/scenario/scenario_driver.hpp"

#include <algorithm>

#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/mac/allocator.hpp"

namespace ns::scenario {

namespace {

/// Which devices' association requests use the low-SNR shift, by the
/// same RSSI rule the devices apply (device_params threshold).
std::vector<bool> low_region_flags(const ns::sim::deployment& dep) {
    const double threshold = ns::device::device_params{}.low_rssi_threshold_dbm;
    std::vector<bool> low;
    low.reserve(dep.devices().size());
    for (const auto& device : dep.devices()) {
        low.push_back(device.query_rssi_dbm < threshold);
    }
    return low;
}

}  // namespace

void driver_stats::merge(const driver_stats& other) {
    join_requests += other.join_requests;
    joins += other.joins;
    leaves += other.leaves;
    interference_events += other.interference_events;
    offered += other.offered;
    gated += other.gated;
    total_join_wait_rounds += other.total_join_wait_rounds;
    association_tx += other.association_tx;
    association_collisions += other.association_collisions;
    join_latency_series.insert(join_latency_series.end(),
                               other.join_latency_series.begin(),
                               other.join_latency_series.end());
    join_waits.insert(join_waits.end(), other.join_waits.begin(),
                      other.join_waits.end());
}

double driver_stats::join_wait_percentile(double p) const {
    if (join_waits.empty()) return 0.0;
    std::vector<double> sorted = join_waits;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double driver_stats::mean_join_latency_rounds() const {
    if (joins == 0) return 0.0;
    return total_join_wait_rounds / static_cast<double>(joins);
}

double driver_stats::offered_load() const {
    const std::size_t total = offered + gated;
    if (total == 0) return 0.0;
    return static_cast<double>(offered) / static_cast<double>(total);
}

std::size_t concurrency_capacity(const scenario_spec& spec) {
    // The simulator's allocator reserves no association slots.
    return ns::mac::shift_allocator::slot_count(spec.sim.phy, spec.sim.skip);
}

std::size_t admission_capacity(const scenario_spec& spec, std::size_t universe) {
    // With §3.3.3 grouping the AP schedules as many groups as the
    // population needs — every placed device can hold a (group, slot)
    // assignment, so churn admission is bounded by the universe, not by
    // one round's concurrency.
    if (spec.sim.grouping.enabled) return universe;
    return concurrency_capacity(spec);
}

scenario_driver::scenario_driver(const scenario_spec& spec,
                                 const ns::sim::deployment& dep, std::uint64_t seed)
    : spec_(spec),
      has_churn_(spec.churn.join_rate_per_round > 0.0 ||
                 spec.churn.leave_rate_per_round > 0.0 ||
                 spec.churn.initial_active < dep.devices().size() ||
                 // Faults need the churn admission path live even in an
                 // otherwise-static population: rebooted/evicted devices
                 // rejoin through it (checked on both the spec-level
                 // field and an already-copied sim.faults).
                 spec.faults.enabled() || spec.sim.faults.enabled()),
      traffic_(spec.traffic, dep.devices().size(),
               ns::engine::split_seed(seed, 1, 0)),
      churn_(spec.churn, dep.devices().size(),
             admission_capacity(spec, dep.devices().size()),
             ns::engine::split_seed(seed, 2, 0), low_region_flags(dep)),
      mobility_(spec.mobility, dep, ns::engine::split_seed(seed, 3, 0)),
      interference_(spec.interference, spec.sim.phy,
                    (spec.sim.frame.preamble_symbols +
                     spec.sim.frame.payload_plus_crc_bits()) *
                        spec.sim.phy.samples_per_symbol(),
                    ns::engine::split_seed(seed, 4, 0)) {
    if (spec_.cochannel.enabled) {
        cochannel_.emplace(spec_.cochannel, spec_.sim.phy, spec_.sim.skip,
                           spec_.sim.frame, spec_.sim.crystal, spec_.sim.delay_model,
                           ns::engine::split_seed(seed, 5, 0));
    }
}

std::optional<std::vector<std::uint32_t>> scenario_driver::initial_active() {
    if (!has_churn_) return std::nullopt;  // everyone, batch-associated
    return churn_.initial_active();
}

ns::sim::round_plan scenario_driver::plan_round(std::size_t round) {
    ns::sim::round_plan plan;
    if (has_churn_) {
        churn_events events = churn_.step(round);
        plan.joins = std::move(events.joins);
        plan.leaves = std::move(events.leaves);
        stats_.join_latency_series.push_back(events.mean_join_latency_rounds);
        stats_.joins = churn_.total_joins();
        stats_.leaves = churn_.total_leaves();
        stats_.join_requests = churn_.total_join_requests();
        stats_.total_join_wait_rounds = churn_.total_join_wait_rounds();
        stats_.association_tx = churn_.total_association_tx();
        stats_.association_collisions = churn_.total_collisions();
        // Only this round's admissions are new; the churn process
        // appends, so the tail beyond what we already copied is exactly
        // the increment.
        const std::vector<double>& waits = churn_.join_waits();
        stats_.join_waits.insert(
            stats_.join_waits.end(),
            waits.begin() + static_cast<std::ptrdiff_t>(stats_.join_waits.size()),
            waits.end());
    } else {
        stats_.join_latency_series.push_back(0.0);
    }
    plan.link_updates = mobility_.step(round);
    plan.interference = interference_.step(round);
    stats_.interference_events = interference_.total_events();
    if (cochannel_) {
        const auto packets = cochannel_->step(round);
        plan.cochannel.assign(packets.begin(), packets.end());
    }
    return plan;
}

void scenario_driver::on_member_lost(std::size_t round, std::uint32_t device_id,
                                     ns::sim::member_loss_reason reason) {
    (void)reason;  // every loss kind recovers through the same admission path
    if (!has_churn_) return;
    churn_.force_rejoin(device_id, round);
    stats_.join_requests = churn_.total_join_requests();
}

bool scenario_driver::offers_traffic(std::size_t round, std::uint32_t device_id) {
    const bool offers = traffic_.offers(round, device_id);
    if (offers) {
        ++stats_.offered;
    } else {
        ++stats_.gated;
    }
    return offers;
}

}  // namespace ns::scenario
