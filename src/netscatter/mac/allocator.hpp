// Power-aware cyclic-shift allocation (§3.2.3).
//
// The dechirped spectrum of a strong device has sinc side lobes (Fig. 8)
// that can drown a weak device parked in a nearby bin: at SKIP=2 the
// first side lobe sits ~13.5 dB down, decaying toward mid-band where the
// tolerable power difference reaches ~35 dB (Fig. 15b, symmetric because
// the spectrum is circular). The allocator therefore:
//   * quantizes the shift space into slots SKIP bins apart (guard bins
//     absorb hardware timing jitter, §3.2.1);
//   * reserves Nassoc slots for association — one in the high-SNR region
//     (near bin 0) and one in the low-SNR region (mid-band), §3.3.2;
//   * sorts devices by received power and places them by increasing
//     circular distance from bin 0: strongest at the (circularly
//     contiguous) spectrum edges, weakest at mid-band. Similar-SNR
//     devices end up adjacent, so no device sits inside a much stronger
//     neighbour's side lobes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netscatter/device/backscatter_device.hpp"
#include "netscatter/phy/css_params.hpp"

namespace ns::mac {

/// Allocation configuration.
struct allocation_params {
    ns::phy::css_params phy{};
    std::uint32_t skip = 2;      ///< bins per slot (SKIP-1 guard bins), >= 1
    std::uint32_t num_association_slots = 2;  ///< reserved for association
};

/// A device observation the allocator works from.
struct device_power {
    std::uint32_t device_id = 0;
    double rx_power_dbm = 0.0;  ///< backscatter signal strength at the AP
};

/// The allocation and grouping order: descending power, ties broken by
/// ascending device id so the order is deterministic.
inline bool stronger_first(const device_power& a, const device_power& b) {
    if (a.rx_power_dbm != b.rx_power_dbm) return a.rx_power_dbm > b.rx_power_dbm;
    return a.device_id < b.device_id;
}

/// A placed device's cyclic shift and its received power (dBm).
using shift_power = std::pair<std::uint32_t, double>;

/// Scratch of shift_allocator::allocate and assign_incremental, kept by
/// the caller and reused. Once shift_allocator::reserve has sized it, no
/// call on that allocator allocates.
struct allocation_workspace {
    std::vector<std::uint32_t> rank;      ///< input indices, strongest first
    std::vector<std::uint32_t> selected;  ///< the slots handed out, in order
    /// One flag per bin, set for the occupied shifts during an
    /// assign_incremental call and all clear between calls.
    std::vector<std::uint8_t> taken;
};

/// Power-aware cyclic-shift allocator.
class shift_allocator {
public:
    explicit shift_allocator(allocation_params params);

    /// Total data slots available (capacity for concurrent devices).
    std::size_t num_data_slots() const { return data_slot_shifts_.size(); }

    /// Slots of SKIP bins each, association slots included: num_bins /
    /// skip, the num_data_slots() of an allocator with no association
    /// slots. Throws invalid_argument unless 1 <= skip < num_bins.
    static std::uint32_t slot_count(const ns::phy::css_params& phy, std::uint32_t skip);

    /// Cyclic shift reserved for association requests from the given
    /// region.
    std::uint32_t association_shift(ns::device::snr_region region) const;

    /// All data-slot shifts ordered by increasing circular distance from
    /// bin 0 (i.e. strongest-first placement order).
    const std::vector<std::uint32_t>& placement_order() const { return data_slot_shifts_; }

    /// Sizes `ws` for any batch this allocator can place and for its
    /// occupancy map, so later calls with it allocate nothing.
    void reserve(allocation_workspace& ws) const;

    /// Batch (re)allocation: ranks by descending power (ties by id) and
    /// assigns slots in placement order. Writes each device's cyclic
    /// shift to `shifts` (resized to match) in input order, with `ws` as
    /// scratch; throws when devices outnumber slots.
    void allocate(std::span<const device_power> devices, std::vector<std::uint32_t>& shifts,
                  allocation_workspace& ws) const;
    /// The same, returning the shifts in a fresh vector.
    std::vector<std::uint32_t> allocate(const std::vector<device_power>& devices) const;

    /// Incremental assignment for one joining device given the shifts and
    /// powers of the devices already placed. A free data slot is feasible
    /// when the newcomer's power difference to every occupied device stays
    /// within the side-lobe tolerance of their separation; its margin is
    /// the smallest slack over them. Of the feasible slots it picks the
    /// one whose nearest occupied neighbour is closest in power; gaps
    /// within 1e-12 dB go to the larger margin, and of two equidistant
    /// neighbours the first one listed counts. Ties left after that go to
    /// the slot earlier in placement order. Returns std::nullopt when no
    /// free slot is feasible (a full network included) — the AP then
    /// performs a full reassignment (§3.3.3). Throws invalid_argument
    /// when an occupied shift is not below the bin count.
    ///
    /// Cost: O(occupied) to mark the occupancy map in `ws`, then a table
    /// lookup and a few operations per (free slot, occupied device)
    /// pair. Allocates nothing once reserve(ws) has run.
    std::optional<std::uint32_t> assign_incremental(double new_device_power_dbm,
                                                    std::span<const shift_power> occupied,
                                                    allocation_workspace& ws) const;
    /// The same with a fresh workspace.
    std::optional<std::uint32_t> assign_incremental(
        double new_device_power_dbm, const std::vector<shift_power>& occupied) const;

    /// Circular distance between two shifts, in bins.
    std::uint32_t circular_distance(std::uint32_t a, std::uint32_t b) const;

    const allocation_params& params() const { return params_; }

private:
    allocation_params params_;
    std::vector<std::uint32_t> data_slot_shifts_;  // placement order
    std::vector<std::uint32_t> sorted_shifts_;     // the same, ascending
    // tolerable_power_difference_db at each separation from 0 up to the
    // first one whose value every wider separation shares (the cap).
    std::vector<double> tolerable_db_;
    std::uint32_t assoc_shift_high_ = 0;
    std::uint32_t assoc_shift_low_ = 0;
};

/// Tolerable interferer-over-victim power difference (dB) as a function
/// of their bin separation, from the zero-padded sinc side-lobe envelope
/// of Fig. 8: a victim survives when it stays above the interferer's
/// side-lobe level at its bin. `separation_bins` is circular.
double tolerable_power_difference_db(const ns::phy::css_params& params,
                                     std::uint32_t separation_bins,
                                     double practical_cap_db = 35.0);

}  // namespace ns::mac
