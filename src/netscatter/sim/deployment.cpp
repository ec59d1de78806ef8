#include "netscatter/sim/deployment.hpp"

#include <cmath>

#include "netscatter/util/error.hpp"
#include "netscatter/util/units.hpp"

namespace ns::sim {

deployment::deployment(deployment_params params, std::size_t num_devices,
                       std::uint64_t seed)
    : params_(params) {
    ns::util::require(params_.rooms_x >= 1 && params_.rooms_y >= 1,
                      "deployment: need at least one room");
    ns::util::rng rng(seed);
    devices_.reserve(num_devices);

    const double ax = ap_x_m();
    const double ay = ap_y_m();

    for (std::size_t i = 0; i < num_devices; ++i) {
        placed_device device;
        device.id = static_cast<std::uint32_t>(i);
        // Rejection-sample a position at least min_distance from the AP.
        for (int attempt = 0; attempt < 1000; ++attempt) {
            device.x_m = rng.uniform(0.0, params_.floor_width_m);
            device.y_m = rng.uniform(0.0, params_.floor_depth_m);
            device.distance_m = std::hypot(device.x_m - ax, device.y_m - ay);
            if (device.distance_m >= params_.min_distance_m) break;
        }
        device.walls = walls_between(device.x_m, device.y_m);
        device.oneway_loss_db = ns::channel::oneway_loss_db(
            params_.pathloss, device.distance_m, device.walls, rng);
        device.query_rssi_dbm = params_.ap_tx_dbm - device.oneway_loss_db;
        device.uplink_rx_dbm = params_.ap_tx_dbm -
                               (2.0 * device.oneway_loss_db + params_.conversion_loss_db);
        devices_.push_back(device);
    }
}

double deployment::noise_floor_dbm(double bandwidth_hz) const {
    return ns::util::noise_floor_dbm(bandwidth_hz, params_.noise_figure_db);
}

int deployment::walls_between(double x_m, double y_m) const {
    const double ax = ap_x_m();
    const double ay = ap_y_m();
    int walls = 0;

    const double room_w = params_.floor_width_m / static_cast<double>(params_.rooms_x);
    const double room_h = params_.floor_depth_m / static_cast<double>(params_.rooms_y);

    // Vertical interior walls at x = k * room_w.
    for (std::size_t k = 1; k < params_.rooms_x; ++k) {
        const double wall_x = static_cast<double>(k) * room_w;
        if ((ax - wall_x) * (x_m - wall_x) < 0.0) ++walls;
    }
    // Horizontal interior walls at y = k * room_h.
    for (std::size_t k = 1; k < params_.rooms_y; ++k) {
        const double wall_y = static_cast<double>(k) * room_h;
        if ((ay - wall_y) * (y_m - wall_y) < 0.0) ++walls;
    }
    return walls;
}

}  // namespace ns::sim
