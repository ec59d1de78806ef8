#include "netscatter/sim/association_sim.hpp"

#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::sim {

association_result simulate_association(const deployment& dep,
                                        const association_sim_params& params) {
    const auto& devices = dep.devices();
    ns::util::rng rng(params.seed);
    ns::mac::access_point ap(params.allocation);

    // Every device contends on its region's association shift through
    // the shared slotted-Aloha pool (mac/aloha) — the same machinery the
    // scenario churn process joins through.
    ns::mac::aloha_contention pool(params.aloha_initial_window,
                                   params.aloha_max_window);
    std::vector<ns::device::snr_region> region_of;
    region_of.reserve(devices.size());
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const bool weak = devices[i].query_rssi_dbm < params.low_rssi_threshold_dbm;
        const auto region =
            weak ? ns::device::snr_region::low : ns::device::snr_region::high;
        region_of.push_back(region);
        pool.add(devices[i].id, region, rng.fork());
    }

    association_result result;
    result.join_round.assign(devices.size(), 0);
    std::size_t joined = 0;
    // Only one assignment can ride per query (Fig. 11 carries a single
    // association response); a granted device ACKs in the following
    // round. (Sentinel index instead of std::optional to sidestep a GCC
    // 12 -Wmaybe-uninitialized false positive.)
    constexpr std::size_t no_grant = static_cast<std::size_t>(-1);
    std::size_t pending_grant = no_grant;

    for (std::size_t round = 1; round <= params.max_rounds && joined < devices.size();
         ++round) {
        result.rounds_used = round;

        // The pending grantee ACKs first (its request already succeeded).
        if (pending_grant != no_grant) {
            ap.handle_association_ack(devices[pending_grant].id);
            result.join_round[pending_grant] = round;
            ++joined;
            pending_grant = no_grant;
        }

        // Contention: every unassociated device draws its Aloha slot;
        // per region, one lone request decodes and at most one grant
        // rides the next query.
        const ns::mac::contention_round contention = pool.step(1);
        result.requests_sent += contention.requests;
        result.collisions += contention.collisions;
        if (!contention.granted.empty()) {
            // Ids are dense, so a device's id is its index.
            const std::uint32_t id = contention.granted.front();
            ap.handle_association_request({.device_id = id,
                                           .region = region_of[id],
                                           .rx_power_dbm = devices[id].uplink_rx_dbm});
            pending_grant = id;
        }
    }

    // Final ACK if one grant is still in flight at the horizon.
    if (pending_grant != no_grant && result.rounds_used < params.max_rounds) {
        ap.handle_association_ack(devices[pending_grant].id);
        result.join_round[pending_grant] = ++result.rounds_used;
        ++joined;
    }

    result.all_joined = joined == devices.size();
    for (const auto& [id, record] : ap.devices()) {
        result.shifts[id] = record.cyclic_shift;
    }
    return result;
}

}  // namespace ns::sim
