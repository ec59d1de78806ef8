// NetScatter — public umbrella header.
//
// A C++20 reproduction of "NetScatter: Enabling Large-Scale Backscatter
// Networks" (Hessar, Najafi, Gollakota — NSDI 2019): distributed chirp
// spread spectrum coding that decodes hundreds of concurrent backscatter
// devices with a single FFT per symbol, plus the full supporting stack
// (PHY, channel, device model, MAC protocol, receiver, baselines and a
// network simulator).
//
// Include this header to get the entire public API, or include the
// individual module headers for finer-grained dependencies.
#pragma once

#include "netscatter/util/bits.hpp"
#include "netscatter/util/crc.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"
#include "netscatter/util/stats.hpp"
#include "netscatter/util/table.hpp"
#include "netscatter/util/units.hpp"

#include "netscatter/dsp/fft.hpp"
#include "netscatter/dsp/fir.hpp"
#include "netscatter/dsp/peak.hpp"
#include "netscatter/dsp/spectrogram.hpp"
#include "netscatter/dsp/vector_ops.hpp"

#include "netscatter/phy/aggregation.hpp"
#include "netscatter/phy/ask.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/phy/demodulator.hpp"
#include "netscatter/phy/frame.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/phy/sensitivity.hpp"

#include "netscatter/channel/awgn.hpp"
#include "netscatter/channel/fading.hpp"
#include "netscatter/channel/impairments.hpp"
#include "netscatter/channel/pathloss.hpp"
#include "netscatter/channel/superposition.hpp"

#include "netscatter/device/backscatter_device.hpp"
#include "netscatter/device/envelope_detector.hpp"
#include "netscatter/device/impedance.hpp"
#include "netscatter/device/power_budget.hpp"

#include "netscatter/faults/fault_injector.hpp"
#include "netscatter/faults/fault_spec.hpp"

#include "netscatter/mac/allocator.hpp"
#include "netscatter/mac/aloha.hpp"
#include "netscatter/mac/ap.hpp"
#include "netscatter/mac/query_message.hpp"
#include "netscatter/mac/scheduler.hpp"

#include "netscatter/rx/receiver.hpp"

#include "netscatter/baseline/choir.hpp"
#include "netscatter/baseline/lora_link.hpp"

#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/sim/round_hooks.hpp"
#include "netscatter/sim/timeline.hpp"

#include "netscatter/engine/block_runner.hpp"
#include "netscatter/engine/fft_plan.hpp"
#include "netscatter/engine/mc_runner.hpp"

#include "netscatter/scenario/churn.hpp"
#include "netscatter/scenario/interference.hpp"
#include "netscatter/scenario/mobility.hpp"
#include "netscatter/scenario/scenario_driver.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/scenario/scenario_spec.hpp"
#include "netscatter/scenario/traffic.hpp"
