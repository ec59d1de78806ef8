// Fig. 7a — backscatter power gain (normalized to the 0<->inf maximum)
// as a function of the Z0 impedance, plus the three discrete hardware
// levels (0 / -4 / -10 dB) and the impedances that realize them.
#include <iostream>
#include <limits>

#include "netscatter/device/impedance.hpp"
#include "netscatter/util/table.hpp"

int main() {
    constexpr double inf = std::numeric_limits<double>::infinity();

    ns::util::text_table curve("Fig 7a: power gain vs Z0 (Z1 = open circuit)",
                               {"Z0 [ohm]", "gain [dB]"});
    for (double z0 : {0.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 600.0, 800.0, 1000.0}) {
        curve.add_row({ns::util::format_double(z0, 0),
                       ns::util::format_double(
                           ns::device::backscatter_power_gain_db(z0, inf), 1)});
    }
    curve.print(std::cout);
    std::cout << "paper shape: 0 dB at Z0=0 falling monotonically to ~-26..-30 dB "
                 "at Z0=1000 ohm\n\n";

    const ns::device::switch_network& network = ns::device::hardware_switch_network();
    ns::util::text_table levels(
        "Fig 7b: switch-network power levels (hardware: 0/-4/-10 dB, SS4.3)",
        {"level", "gain [dB]", "Z0 [ohm]"});
    for (std::size_t level = 0; level < network.num_levels(); ++level) {
        levels.add_row({std::to_string(level),
                        ns::util::format_double(network.gain_db(level), 1),
                        ns::util::format_double(network.z0_ohm(level), 1)});
    }
    levels.print(std::cout);
    return 0;
}
