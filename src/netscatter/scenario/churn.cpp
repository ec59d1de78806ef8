#include "netscatter/scenario/churn.hpp"

#include <algorithm>

#include "netscatter/util/error.hpp"

namespace ns::scenario {

churn_process::churn_process(churn_spec spec, std::size_t universe,
                             std::size_t capacity, std::uint64_t seed,
                             std::vector<bool> low_region)
    : spec_(spec),
      universe_(universe),
      capacity_(capacity),
      rng_(seed),
      active_(universe, false),
      pending_(universe, false),
      low_region_(std::move(low_region)),
      contention_(spec.aloha_initial_window, spec.aloha_max_window),
      request_round_(spec.association == association_mode::slotted_aloha ? universe : 0) {
    ns::util::require(universe > 0, "churn: universe must be non-empty");
    ns::util::require(spec_.join_rate_per_round >= 0.0 &&
                          spec_.leave_rate_per_round >= 0.0,
                      "churn: rates must be >= 0");
    ns::util::require(low_region_.empty() || low_region_.size() == universe,
                      "churn: low_region must be empty or universe-sized");
    const std::size_t initial =
        std::min({spec_.initial_active, universe, capacity});
    initial_active_.reserve(initial);
    for (std::size_t i = 0; i < initial; ++i) {
        active_[i] = true;
        initial_active_.push_back(static_cast<std::uint32_t>(i));
    }
    active_count_ = initial;
}

std::size_t churn_process::pending_joins() const {
    return spec_.association == association_mode::slotted_aloha
               ? contention_.size()
               : queue_.size();
}

std::vector<std::uint32_t> churn_process::pick(std::size_t count,
                                               const std::vector<bool>& eligible) {
    std::vector<std::uint32_t> pool;
    pool.reserve(universe_);
    for (std::size_t i = 0; i < universe_; ++i) {
        if (eligible[i]) pool.push_back(static_cast<std::uint32_t>(i));
    }
    std::vector<std::uint32_t> chosen;
    chosen.reserve(std::min(count, pool.size()));
    for (std::size_t n = 0; n < count && !pool.empty(); ++n) {
        const std::size_t at = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
        chosen.push_back(pool[at]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
    }
    return chosen;
}

void churn_process::admit(std::uint32_t id, std::size_t request_round,
                          std::size_t round, churn_events& events,
                          double& wait_sum) {
    pending_[id] = false;
    active_[id] = true;
    ++active_count_;
    events.joins.push_back(id);
    const double wait = static_cast<double>(round - request_round) + 1.0;
    wait_sum += wait;
    total_wait_rounds_ += wait;
    join_waits_.push_back(wait);
    ++total_joins_;
}

void churn_process::force_rejoin(std::uint32_t id, std::size_t round) {
    ns::util::require(static_cast<std::size_t>(id) < universe_,
                      "churn: force_rejoin id outside the universe");
    if (active_[id]) {
        // The device lost its association out-of-band (the churn process
        // didn't emit a leave): reconcile the membership view.
        active_[id] = false;
        --active_count_;
    }
    if (pending_[id]) return;  // already waiting for a slot
    request_join(id, round);
}

void churn_process::request_join(std::uint32_t id, std::size_t round) {
    pending_[id] = true;
    ++total_requests_;
    if (spec_.association == association_mode::slotted_aloha) {
        const bool low = !low_region_.empty() && low_region_[id];
        request_round_[id] = round;
        contention_.add(id,
                        low ? ns::device::snr_region::low
                            : ns::device::snr_region::high,
                        rng_.fork());
    } else {
        queue_.emplace_back(id, round);
    }
}

churn_events churn_process::step(std::size_t round) {
    churn_events events;

    // Departures first: they free capacity for this round's admissions.
    const std::size_t departures =
        static_cast<std::size_t>(rng_.poisson(spec_.leave_rate_per_round));
    events.leaves = pick(departures, active_);
    for (std::uint32_t id : events.leaves) {
        active_[id] = false;
        --active_count_;
        ++total_leaves_;
    }

    // New join requests enter the admission path (a device already
    // waiting doesn't re-request).
    const std::size_t requests =
        static_cast<std::size_t>(rng_.poisson(spec_.join_rate_per_round));
    std::vector<bool> eligible(universe_, false);
    for (std::size_t i = 0; i < universe_; ++i) {
        eligible[i] = !active_[i] && !pending_[i];
    }
    for (std::uint32_t id : pick(requests, eligible)) request_join(id, round);

    double wait_sum = 0.0;
    if (spec_.association == association_mode::slotted_aloha) {
        // Contend on the reserved association shifts; a grant only
        // sticks while the network has room (a full network defers the
        // winners — they keep contending).
        const std::size_t room = active_count_ < capacity_
                                     ? capacity_ - active_count_
                                     : 0;
        const std::size_t max_grants =
            std::min(room, spec_.association_grants_per_round);
        const ns::mac::contention_round contended = contention_.step(max_grants);
        total_association_tx_ += contended.requests;
        total_collisions_ += contended.collisions;
        for (std::uint32_t id : contended.granted) {
            admit(id, request_round_[id], round, events, wait_sum);
        }
    } else {
        // Serve the association queue: bounded per round and by capacity.
        while (!queue_.empty() && events.joins.size() < spec_.max_joins_per_round &&
               active_count_ < capacity_) {
            const auto [id, requested] = queue_.front();
            queue_.pop_front();
            admit(id, requested, round, events, wait_sum);
        }
    }
    if (!events.joins.empty()) {
        events.mean_join_latency_rounds =
            wait_sum / static_cast<double>(events.joins.size());
    }
    return events;
}

}  // namespace ns::scenario
