#include "netscatter/obs/roofline.hpp"

#include "netscatter/phy/chirp.hpp"

namespace ns::obs {

kernel_loop_model kernel_loop_model_from(const metrics_snapshot& snapshot) {
    kernel_loop_model model;
    model.window_elems = snapshot.counter_value("phy.kernel_window_elems");
    return model;
}

std::uint64_t kernel_window_size(std::size_t num_bins, std::size_t padding,
                                 std::size_t radius_bins) {
    return ns::phy::tone_kernel_window_size(num_bins, padding, radius_bins);
}

}  // namespace ns::obs
