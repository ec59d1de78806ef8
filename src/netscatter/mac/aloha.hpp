// Slotted-Aloha association contention with binary exponential backoff.
//
// §3.3.2: "to support scenarios where more than one device want to
// associate at the same time, one can use Aloha protocol with binary
// exponential back-off in the association process. Our deployment does
// not implement this option" — we implement it as the paper's suggested
// extension, so large populations can join without manual sequencing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netscatter/device/backscatter_device.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::mac {

/// Per-device backoff state for association attempts.
class aloha_backoff {
public:
    /// `initial_window` and `max_window` bound the contention window size
    /// (in query rounds).
    aloha_backoff(std::uint32_t initial_window, std::uint32_t max_window,
                  ns::util::rng rng);

    /// Called at each query round while the device wants to associate.
    /// Returns true when the device should transmit its request this
    /// round.
    bool should_transmit();

    /// Reports a collision (request not acknowledged): doubles the window
    /// up to the maximum and draws a new backoff counter.
    void on_collision();

    /// Reports success: resets the window.
    void on_success();

    std::uint32_t current_window() const { return window_; }

private:
    void draw_counter();

    std::uint32_t initial_window_;
    std::uint32_t max_window_;
    std::uint32_t window_;
    std::uint32_t counter_ = 0;
    ns::util::rng rng_;
};

/// Outcome of one contention round.
struct contention_round {
    /// Devices granted an association response this round, in grant
    /// order (high-SNR region first). At most `max_grants` entries.
    std::vector<std::uint32_t> granted;
    std::size_t requests = 0;    ///< association requests transmitted
    std::size_t collisions = 0;  ///< same-shift simultaneous requests
};

/// A pool of devices contending for the two reserved association shifts
/// via slotted Aloha (§3.3.2). One contender per unassociated device;
/// each round every contender whose backoff expires transmits on its SNR
/// region's shift. Two or more requests on the same shift land in the
/// same FFT bin and are undecodable (§2.2, constraint 3): all collide
/// and back off. A lone request decodes, but the query can only carry
/// `max_grants` piggybacked responses (Fig. 11 carries one), so an
/// ungranted lone requester simply retries — no backoff penalty.
///
/// The scenario churn process (scenario/churn) runs its slotted_aloha
/// admission through this pool, so re-association latency under churn
/// is shaped by exactly the collision/backoff dynamics of the
/// association phase.
class aloha_contention {
public:
    aloha_contention(std::uint32_t initial_window, std::uint32_t max_window);

    /// Enters `device_id` into contention. `rng` seeds the device's
    /// private backoff stream (fork it from the caller's stream so
    /// contenders stay independent). Insertion order is the transmit
    /// evaluation order — keep it deterministic.
    void add(std::uint32_t device_id, ns::device::snr_region region,
             ns::util::rng rng);

    /// Runs one query round of contention. Granted devices leave the
    /// pool; collided and deferred devices stay.
    contention_round step(std::size_t max_grants);

    /// Abandons contention (e.g. the device left the universe again).
    void remove(std::uint32_t device_id);

    bool contains(std::uint32_t device_id) const;
    std::size_t size() const { return contenders_.size(); }
    bool empty() const { return contenders_.empty(); }

private:
    struct contender {
        std::uint32_t device_id;
        ns::device::snr_region region;
        aloha_backoff backoff;
    };

    std::uint32_t initial_window_;
    std::uint32_t max_window_;
    std::vector<contender> contenders_;  ///< insertion order
};

}  // namespace ns::mac
