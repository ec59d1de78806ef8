#include "netscatter/mac/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>

#include "netscatter/util/error.hpp"

namespace ns::mac {

std::uint32_t shift_allocator::slot_count(const ns::phy::css_params& phy, std::uint32_t skip) {
    ns::util::require(skip >= 1, "shift_allocator::slot_count: SKIP must be >= 1");
    const auto num_bins = static_cast<std::uint32_t>(phy.num_bins());
    ns::util::require(skip < num_bins, "shift_allocator::slot_count: SKIP too large");
    return num_bins / skip;
}

shift_allocator::shift_allocator(allocation_params params) : params_(params) {
    const std::uint32_t num_slots = slot_count(params_.phy, params_.skip);
    const auto num_bins = static_cast<std::uint32_t>(params_.phy.num_bins());
    ns::util::require(params_.num_association_slots <= num_slots,
                      "shift_allocator: more association slots than slots");

    // Slot k occupies shift k*SKIP. Placement order = increasing circular
    // distance from bin 0: slot 0, then +-1, +-2, ... around the circle.
    std::vector<std::uint32_t> order;
    order.reserve(num_slots);
    order.push_back(0);
    for (std::uint32_t step = 1; order.size() < num_slots; ++step) {
        order.push_back(step);  // clockwise
        if (order.size() < num_slots && step != num_slots - step) {
            order.push_back(num_slots - step);  // counter-clockwise
        }
    }

    // Reserve association slots: the high-SNR one adjacent to bin 0, the
    // low-SNR one at mid-band (§3.3.2). They are removed from the data
    // placement order; the SKIP spacing provides their guard bins.
    std::vector<std::uint32_t> reserved_slots;
    if (params_.num_association_slots >= 1) reserved_slots.push_back(order[1 % order.size()]);
    if (params_.num_association_slots >= 2) reserved_slots.push_back(num_slots / 2);
    assoc_shift_high_ = reserved_slots.empty() ? 0 : reserved_slots[0] * params_.skip;
    assoc_shift_low_ =
        reserved_slots.size() < 2 ? assoc_shift_high_ : reserved_slots[1] * params_.skip;

    for (std::uint32_t slot : order) {
        if (std::find(reserved_slots.begin(), reserved_slots.end(), slot) !=
            reserved_slots.end()) {
            continue;
        }
        data_slot_shifts_.push_back(slot * params_.skip);
    }
    sorted_shifts_ = data_slot_shifts_;
    std::sort(sorted_shifts_.begin(), sorted_shifts_.end());

    // The tolerance never falls as the separation widens to mid-band, the
    // widest circular separation, and stops rising at the cap: tabulate
    // it up to the first separation that reaches the mid-band value.
    const double widest = tolerable_power_difference_db(params_.phy, num_bins / 2);
    do {
        const auto separation = static_cast<std::uint32_t>(tolerable_db_.size());
        tolerable_db_.push_back(tolerable_power_difference_db(params_.phy, separation));
    } while (tolerable_db_.back() < widest);
}

void shift_allocator::reserve(allocation_workspace& ws) const {
    ws.rank.reserve(data_slot_shifts_.size());
    ws.selected.reserve(data_slot_shifts_.size());
    const std::size_t num_bins = params_.phy.num_bins();
    if (ws.taken.size() < num_bins) ws.taken.resize(num_bins);
}

std::uint32_t shift_allocator::association_shift(ns::device::snr_region region) const {
    ns::util::require(params_.num_association_slots >= 1,
                      "association_shift: no association slots configured");
    if (region == ns::device::snr_region::high || params_.num_association_slots < 2) {
        return assoc_shift_high_;
    }
    return assoc_shift_low_;
}

std::uint32_t shift_allocator::circular_distance(std::uint32_t a, std::uint32_t b) const {
    const auto num_bins = static_cast<std::uint32_t>(params_.phy.num_bins());
    const std::uint32_t diff = a > b ? a - b : b - a;
    return std::min(diff, num_bins - diff);
}

void shift_allocator::allocate(std::span<const device_power> devices,
                               std::vector<std::uint32_t>& shifts,
                               allocation_workspace& ws) const {
    ns::util::require(devices.size() <= data_slot_shifts_.size(),
                      "shift_allocator: more devices than data slots");
    // Strongest devices closest to bin 0 (spectrum edges), weakest at
    // mid-band; ties broken by device id for determinism.
    std::vector<std::uint32_t>& rank = ws.rank;
    rank.resize(devices.size());
    std::iota(rank.begin(), rank.end(), std::uint32_t{0});
    // A partition hands each group over already in this order.
    if (!std::is_sorted(devices.begin(), devices.end(), stronger_first)) {
        std::sort(rank.begin(), rank.end(), [&](std::uint32_t a, std::uint32_t b) {
            return stronger_first(devices[a], devices[b]);
        });
    }
    // When the population is below capacity, select an evenly-strided
    // subset of the slot circle so devices spread out — the effective
    // inter-device spacing grows (the paper observes that below 128
    // devices the effective SKIP is >= 3, §4.4), which widens the
    // tolerable power difference between neighbours. The selected slots
    // are then handed out in order of circular distance from bin 0, so
    // the strongest devices still cluster at the spectrum edges.
    const std::size_t num_slots = data_slot_shifts_.size();
    const std::size_t stride =
        devices.empty() ? 1 : std::max<std::size_t>(1, num_slots / devices.size());

    // The strided slots ascend, so their distance from bin 0 rises from
    // the front up to mid-band and from the back down to mid-band:
    // merging the two ends orders them by distance, ties to the lower
    // shift (always the front one).
    const std::uint32_t num_bins = static_cast<std::uint32_t>(params_.phy.num_bins());
    std::vector<std::uint32_t>& selected = ws.selected;
    selected.resize(devices.size());
    std::size_t front = 0;
    std::size_t back = devices.size();
    for (std::uint32_t& slot : selected) {
        const std::uint32_t low = sorted_shifts_[front * stride];
        const std::uint32_t high = sorted_shifts_[(back - 1) * stride];
        if (front + 1 == back || low <= num_bins - high) {
            slot = low;
            ++front;
        } else {
            slot = high;
            --back;
        }
    }

    shifts.resize(devices.size());
    for (std::size_t i = 0; i < rank.size(); ++i) shifts[rank[i]] = selected[i];
}

std::vector<std::uint32_t> shift_allocator::allocate(
    const std::vector<device_power>& devices) const {
    std::vector<std::uint32_t> shifts;
    allocation_workspace ws;
    allocate(devices, shifts, ws);
    return shifts;
}

std::optional<std::uint32_t> shift_allocator::assign_incremental(
    double new_device_power_dbm, std::span<const shift_power> occupied,
    allocation_workspace& ws) const {
    const std::size_t num_bins = params_.phy.num_bins();
    for (const auto& entry : occupied) {
        ns::util::require(entry.first < num_bins,
                          "assign_incremental: occupied shift out of range");
    }
    reserve(ws);
    for (const auto& entry : occupied) ws.taken[entry.first] = 1;

    // Among feasible slots (the power difference to EVERY occupied shift
    // stays within the side-lobe tolerance of their separation), prefer
    // the slot whose circularly-nearest occupied neighbour is closest in
    // power — "FFT bins corresponding to the lower-SNR devices are close
    // to each other" (§3.2.3). Ties break on safety margin.
    double best_neighbour_gap = std::numeric_limits<double>::infinity();
    double best_margin = -std::numeric_limits<double>::infinity();
    std::optional<std::uint32_t> best_shift;

    for (std::uint32_t candidate : data_slot_shifts_) {
        if (ws.taken[candidate]) continue;

        double margin = std::numeric_limits<double>::infinity();
        std::uint32_t nearest_separation = std::numeric_limits<std::uint32_t>::max();
        double neighbour_gap = 0.0;
        for (const auto& [shift, power] : occupied) {
            const std::uint32_t separation = circular_distance(candidate, shift);
            const double tolerable = separation < tolerable_db_.size()
                                         ? tolerable_db_[separation]
                                         : tolerable_db_.back();
            const double difference = std::abs(new_device_power_dbm - power);
            margin = std::min(margin, tolerable - difference);
            if (separation < nearest_separation) {
                nearest_separation = separation;
                neighbour_gap = difference;
            }
        }
        if (margin < 0.0) continue;  // infeasible slot
        const bool better = neighbour_gap < best_neighbour_gap - 1e-12 ||
                            (std::abs(neighbour_gap - best_neighbour_gap) <= 1e-12 &&
                             margin > best_margin);
        if (better) {
            best_neighbour_gap = neighbour_gap;
            best_margin = margin;
            best_shift = candidate;
        }
    }

    for (const auto& entry : occupied) ws.taken[entry.first] = 0;
    return best_shift;
}

std::optional<std::uint32_t> shift_allocator::assign_incremental(
    double new_device_power_dbm, const std::vector<shift_power>& occupied) const {
    allocation_workspace ws;
    return assign_incremental(new_device_power_dbm, occupied, ws);
}

double tolerable_power_difference_db(const ns::phy::css_params& params,
                                     std::uint32_t separation_bins,
                                     double practical_cap_db) {
    if (separation_bins == 0) return 0.0;  // same bin: never tolerable
    // Worst-case Dirichlet-kernel side-lobe envelope of the interferer at
    // the victim's bin: residual jitter can move the interferer's peak up
    // to half a bin toward the victim, so evaluate at (s - 0.5) bins.
    // |D(x)| = |sin(pi x)| / (N sin(pi x / N)) <= 1 / (N sin(pi x / N)).
    const double n = static_cast<double>(params.num_bins());
    const double x = std::max(0.5, static_cast<double>(separation_bins) - 0.5);
    const double envelope = 1.0 / (n * std::sin(std::numbers::pi * x / n));
    const double tolerable_db = -20.0 * std::log10(envelope);
    return std::min(tolerable_db, practical_cap_db);
}

}  // namespace ns::mac
