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

/// Scratch of shift_allocator::allocate, kept by the caller and reused so
/// that allocating a population no larger than an earlier one costs no
/// heap allocation.
struct allocation_workspace {
    std::vector<std::uint32_t> rank;      ///< input indices, strongest first
    std::vector<std::uint32_t> selected;  ///< the slots handed out, in order
};

/// Power-aware cyclic-shift allocator.
class shift_allocator {
public:
    explicit shift_allocator(allocation_params params);

    /// Total data slots available (capacity for concurrent devices).
    std::size_t num_data_slots() const { return data_slot_shifts_.size(); }

    /// Cyclic shift reserved for association requests from the given
    /// region.
    std::uint32_t association_shift(ns::device::snr_region region) const;

    /// All data-slot shifts ordered by increasing circular distance from
    /// bin 0 (i.e. strongest-first placement order).
    const std::vector<std::uint32_t>& placement_order() const { return data_slot_shifts_; }

    /// Batch (re)allocation: ranks by descending power (ties by id) and
    /// assigns slots in placement order. Writes each device's cyclic
    /// shift to `shifts` (resized to match) in input order, with `ws` as
    /// scratch; throws when devices outnumber slots.
    void allocate(std::span<const device_power> devices, std::vector<std::uint32_t>& shifts,
                  allocation_workspace& ws) const;
    /// The same, returning the shifts in a fresh vector.
    std::vector<std::uint32_t> allocate(const std::vector<device_power>& devices) const;

    /// Incremental assignment for one joining device given the powers of
    /// devices already placed: picks the free slot whose neighbours are
    /// closest in power (minimizes the max |power difference| to the
    /// devices already occupying adjacent slots). Returns std::nullopt
    /// when the network is full — the AP then performs a full
    /// reassignment (§3.3.3).
    std::optional<std::uint32_t> assign_incremental(
        double new_device_power_dbm,
        const std::vector<std::pair<std::uint32_t, double>>& occupied_shift_powers) const;

    /// Circular distance between two shifts, in bins.
    std::uint32_t circular_distance(std::uint32_t a, std::uint32_t b) const;

    const allocation_params& params() const { return params_; }

private:
    allocation_params params_;
    std::vector<std::uint32_t> data_slot_shifts_;  // placement order
    std::vector<std::uint32_t> sorted_shifts_;     // the same, ascending
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
