// Determinism fingerprint of a run's outcome counters, shared by the
// thread-count invariance tests: every run total of the
// ns::sim::outcome_counters table, then every round_outcome field of
// every round. A counter added to the table is covered automatically.
#pragma once

#include <ostream>

#include "netscatter/sim/network_sim.hpp"

namespace ns::test {

inline void write_outcome_digest(std::ostream& out, const ns::sim::sim_result& s) {
    for (const ns::sim::outcome_counter& counter : ns::sim::outcome_counters) {
        out << s.*counter.total << ' ';
    }
    out << s.devices_down_at_end << ' ' << s.fast_path_rounds << '\n';
    for (const ns::sim::round_outcome& round : s.rounds) {
        for (const ns::sim::outcome_counter& counter : ns::sim::outcome_counters) {
            out << round.*counter.round << ',';
        }
        out << round.scheduled_group << ',' << round.scheduled << ';';
    }
}

}  // namespace ns::test
