// ns_bench: the NetScatter benchmark program.
//
// Runs scenario replicas of one workload spec serially on one thread
// and times them from outside the library: each replica repeats
// run_scenario_replica's four steps (deployment, scenario driver,
// simulator construction, run()) with a clock read around every public
// call, so set-up cost is measured apart from the round loop without
// touching library code. Three modes, each printing one JSON object on
// stdout for benchmark/run.py to aggregate:
//
//   e2e     timed replicas start, start+stride, ... with metrics and
//           tracing off, until --count replicas or --seconds have run
//           (after one untimed warm-up replica); then peak RSS.
//   check   output digests of run_scenario_replica itself for replicas
//           0 and 1, and of replica 0 at two intra-round threads — the
//           references the e2e and traced digests must equal.
//   layers  replicas 0..N-1 run twice, untraced and with metrics+trace
//           on (alternating which goes first), then direct unit-cost
//           calls into the channel and receiver layers. Reports the
//           registry's per-round phase costs, exact per-round counts and
//           unit costs, and writes a Perfetto trace merging the
//           simulator's phase spans with ns_bench's own set-up spans.
//
//   ns_bench --mode e2e|check|layers --spec FILE [--seed S]
//            [--start R] [--stride K] [--count N] [--seconds T]
//            [--trace-out FILE]
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netscatter/channel/superposition.hpp"
#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/obs/roofline.hpp"
#include "netscatter/obs/trace.hpp"
#include "netscatter/phy/frame.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/rx/receiver.hpp"
#include "netscatter/scenario/scenario_driver.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/spec/spec_codec.hpp"
#include "netscatter/util/rng.hpp"

// Allocation hook feeding the thread-local obs counters, so the traced
// pass reports the simulator's alloc.steady_* counters. GCC flags the
// replaced malloc/free pair as mismatched when it inlines only one side.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
    ns::obs::record_allocation(size);
    if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using ns::scenario::scenario_spec;
using ns::sim::sim_result;

struct options {
    std::string mode;
    std::string spec_path;
    std::optional<std::uint64_t> seed;
    std::size_t start = 0;
    std::size_t stride = 1;
    std::size_t count = 0;  ///< 0 = bounded by --seconds only
    double seconds = 0.0;   ///< 0 = bounded by --count only
    std::string trace_out;
};

[[noreturn]] void usage(const char* problem) {
    std::fprintf(stderr,
                 "ns_bench: %s\nusage: ns_bench --mode e2e|check|layers --spec FILE "
                 "[--seed S] [--start R] [--stride K] [--count N] [--seconds T] "
                 "[--trace-out FILE]\n",
                 problem);
    std::exit(2);
}

options parse_options(int argc, char** argv) {
    options opt;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        const std::string value = argv[i + 1];
        try {
            if (key == "--mode") opt.mode = value;
            else if (key == "--spec") opt.spec_path = value;
            else if (key == "--seed") opt.seed = std::stoull(value);
            else if (key == "--start") opt.start = std::stoull(value);
            else if (key == "--stride") opt.stride = std::stoull(value);
            else if (key == "--count") opt.count = std::stoull(value);
            else if (key == "--seconds") opt.seconds = std::stod(value);
            else if (key == "--trace-out") opt.trace_out = value;
            else usage(("unknown flag " + key).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (opt.mode != "e2e" && opt.mode != "check" && opt.mode != "layers") {
        usage("--mode must be e2e, check or layers");
    }
    if (opt.spec_path.empty()) usage("--spec is required");
    if (opt.stride == 0) usage("--stride must be >= 1");
    if (opt.mode == "e2e" && opt.count == 0 && !(opt.seconds > 0.0)) {
        usage("e2e needs --count or --seconds");
    }
    return opt;
}

double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
    return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// --- Output digest ------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffu;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// FNV-1a over every round_outcome field of a replica, in declaration
/// order: equal digests mean equal per-round outcomes.
std::uint64_t digest(const sim_result& result) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const ns::sim::round_outcome& o : result.rounds) {
        for (const std::size_t v :
             {o.active, o.transmitting, o.skipped, o.idle, o.detected, o.delivered,
              o.bit_errors, o.bits_sent, o.joins, o.leaves, o.rejected_joins,
              o.reassociations, o.realloc_events, o.full_reassignments}) {
            h = fnv1a(h, v);
        }
        h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(o.scheduled_group)));
        for (const std::size_t v :
             {o.scheduled, o.regroups, o.cross_tx, o.cross_collisions,
              o.cross_collided_delivered, o.query_losses, o.ack_losses, o.ack_timeouts,
              o.reboots, o.down_events, o.lease_evictions, o.desyncs, o.resyncs,
              o.recoveries, o.orphan_tx, o.orphan_collisions}) {
            h = fnv1a(h, v);
        }
        h = fnv1a(h, o.blackout ? 1 : 0);
    }
    return h;
}

std::string hex(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

std::string num(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    return buf;
}

/// Per-round conservation: delivered <= detected <= transmitting, and
/// every transmitted frame is charged its payload+CRC bits.
bool rounds_consistent(const sim_result& result, std::size_t frame_bits) {
    return std::all_of(result.rounds.begin(), result.rounds.end(),
                       [&](const ns::sim::round_outcome& o) {
                           return o.delivered <= o.detected &&
                                  o.detected <= o.transmitting &&
                                  o.bits_sent == o.transmitting * frame_bits;
                       });
}

// --- One replica, step by step -------------------------------------------

struct replica_run {
    std::size_t r = 0;
    double deployment_s = 0.0;
    double driver_s = 0.0;
    double simulator_s = 0.0;
    double run_s = 0.0;
    std::size_t rounds = 0;
    std::size_t fast_rounds = 0;
    std::size_t transmitted = 0;
    std::size_t delivered = 0;
    std::uint64_t digest = 0;
    std::string error;  ///< why the replica failed (empty when ok)
    bool ok = false;
};

/// run_scenario_replica(spec, r) with each step timed. Only a summary of
/// the result is kept, so a long run holds no per-replica heap; `keep`
/// receives the full result when set. When `spans` is set, the
/// replica's boundary spans are appended on track r.
replica_run run_replica(const scenario_spec& spec, std::size_t r,
                        sim_result* keep = nullptr,
                        std::vector<ns::obs::trace_event>* spans = nullptr) {
    replica_run out;
    out.r = r;
    const auto track = static_cast<std::uint32_t>(r);
    try {
        const std::uint64_t t0 = ns::obs::trace_now_ns();
        const ns::sim::deployment dep(ns::scenario::resolve_geometry(spec.geometry),
                                      spec.geometry.num_devices, spec.sim.seed);
        const std::uint64_t t1 = ns::obs::trace_now_ns();
        ns::scenario::scenario_driver driver(
            spec, dep, ns::engine::split_seed(spec.sim.seed, 0xd21f, r));
        const std::uint64_t t2 = ns::obs::trace_now_ns();
        ns::sim::sim_config config = spec.sim;
        config.seed = ns::engine::split_seed(spec.sim.seed, 0x51a1, r);
        if (spec.faults.enabled()) config.faults = spec.faults;
        config.obs.trace_track = track;
        ns::sim::network_simulator sim(dep, config, &driver);
        const std::uint64_t t3 = ns::obs::trace_now_ns();
        sim_result result = sim.run();
        const std::uint64_t t4 = ns::obs::trace_now_ns();

        out.deployment_s = seconds_between(t0, t1);
        out.driver_s = seconds_between(t1, t2);
        out.simulator_s = seconds_between(t2, t3);
        out.run_s = seconds_between(t3, t4);
        out.rounds = result.rounds.size();
        out.fast_rounds = result.fast_path_rounds;
        out.transmitted = result.total_transmitting;
        out.delivered = result.total_delivered;
        out.digest = digest(result);
        out.ok = rounds_consistent(result, spec.sim.frame.payload_plus_crc_bits());
        if (!out.ok) out.error = "round invariant violated";
        if (spans != nullptr) {
            spans->push_back({"replica", t0, t4 - t0, track, -1});
            spans->push_back({"setup.deployment", t0, t1 - t0, track, -1});
            spans->push_back({"setup.driver", t1, t2 - t1, track, -1});
            spans->push_back({"setup.simulator", t2, t3 - t2, track, -1});
            spans->push_back({"run", t3, t4 - t3, track, -1});
        }
        if (keep != nullptr) *keep = std::move(result);
    } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

std::string replica_json(const replica_run& run) {
    std::string s = "{\"r\":" + std::to_string(run.r) +
                    ",\"ok\":" + (run.ok ? "true" : "false");
    if (!run.error.empty()) {
        std::string message;
        for (const char c : run.error) {
            if (c == '"' || c == '\\') message += '\\';
            message += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
        }
        s += ",\"error\":\"" + message + "\"";
    }
    s += ",\"deployment_s\":" + num(run.deployment_s) +
         ",\"driver_s\":" + num(run.driver_s) +
         ",\"simulator_s\":" + num(run.simulator_s) + ",\"run_s\":" + num(run.run_s) +
         ",\"rounds\":" + std::to_string(run.rounds) +
         ",\"fast_rounds\":" + std::to_string(run.fast_rounds) +
         ",\"transmitted\":" + std::to_string(run.transmitted) +
         ",\"delivered\":" + std::to_string(run.delivered) +
         ",\"digest\":\"" + hex(run.digest) + "\"}";
    return s;
}

std::string replicas_json(const std::vector<replica_run>& runs) {
    std::string s = "[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        s += (i == 0 ? "\n" : ",\n") + replica_json(runs[i]);
    }
    return s + "]";
}

scenario_spec untraced(scenario_spec spec) {
    spec.sim.obs.metrics = false;
    spec.sim.obs.trace = false;
    return spec;
}

/// Peak resident set of this process image in KiB. VmHWM, not
/// ru_maxrss: across fork+exec Linux carries the parent's high-water
/// mark into ru_maxrss, which would report the launching interpreter.
long peak_rss_kb() {
    long kb = -1;
    if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (kb < 0 && std::fgets(line, sizeof(line), status) != nullptr) {
            std::sscanf(line, "VmHWM: %ld kB", &kb);
        }
        std::fclose(status);
    }
    if (kb < 0) throw std::runtime_error("cannot read VmHWM from /proc/self/status");
    return kb;
}

// --- Modes ----------------------------------------------------------------

int run_e2e(const scenario_spec& loaded, const options& opt) {
    const scenario_spec spec = untraced(loaded);
    (void)run_replica(spec, opt.start);  // warm-up: caches, allocator, page faults
    std::vector<replica_run> runs;
    const std::uint64_t begin = ns::obs::now_ns();
    for (std::size_t i = 0;; ++i) {
        if (opt.count > 0 && i >= opt.count) break;
        if (opt.seconds > 0.0 && i > 0 &&
            seconds_between(begin, ns::obs::now_ns()) >= opt.seconds) {
            break;
        }
        runs.push_back(run_replica(spec, opt.start + i * opt.stride));
    }
    std::printf("{\"peak_rss_kb\":%ld,\"replicas\":%s}\n", peak_rss_kb(),
                replicas_json(runs).c_str());
    return 0;
}

int run_check(const scenario_spec& spec) {
    const auto replica_digest = [](const scenario_spec& s, std::size_t r) {
        return hex(digest(ns::scenario::run_scenario_replica(s, r).sim));
    };
    scenario_spec threaded = spec;
    threaded.sim.intra_round_threads = 2;
    std::printf("{\"reference\":[\"%s\",\"%s\"],\"threads2\":[\"%s\"]}\n",
                replica_digest(spec, 0).c_str(), replica_digest(spec, 1).c_str(),
                replica_digest(threaded, 0).c_str());
    return 0;
}

/// Median seconds of each call over 31 timed rounds after 3 warm-up
/// rounds. Each round runs every call once, so a slow spell on the host
/// hits all of them alike and differences between them stay meaningful.
std::vector<double> median_calls_s(const std::vector<std::function<void()>>& calls) {
    for (int i = 0; i < 3; ++i) {
        for (const auto& call : calls) call();
    }
    std::vector<std::vector<double>> times(calls.size());
    for (int i = 0; i < 31; ++i) {
        for (std::size_t c = 0; c < calls.size(); ++c) {
            const std::uint64_t t0 = ns::obs::now_ns();
            calls[c]();
            times[c].push_back(seconds_between(t0, ns::obs::now_ns()));
        }
    }
    std::vector<double> medians;
    for (auto& t : times) medians.push_back(median(std::move(t)));
    return medians;
}

struct unit_costs {
    double noise_ns_per_bin = 0.0;
    double kernel_ns_per_elem = 0.0;
    double decode_us_per_symbol = 0.0;
    double sample_combine_ns_per_sample = 0.0;
    double sample_decode_us_per_symbol = 0.0;
    double delivery_ratio = 0.0;
};

/// Direct calls into the channel and receiver layers on one synthetic
/// round shaped like the workload's: its PHY, padding, kernel radius and
/// frame, `packets` transmitters on shifts spaced by `skip`, valid CRC
/// frames, and a fixed RNG seed so the round repeats exactly.
unit_costs measure_unit_costs(const scenario_spec& spec, std::size_t packets) {
    const ns::sim::sim_config& cfg = spec.sim;
    const ns::phy::css_params& phy = cfg.phy;
    const std::size_t n = phy.num_bins();
    const std::size_t frame_bits = cfg.frame.payload_plus_crc_bits();
    const std::size_t upchirps = ns::phy::distributed_modulator::preamble_upchirps;
    packets = std::clamp<std::size_t>(packets, 1, n / cfg.skip);

    ns::util::rng gen(0x0b5e55edULL);
    std::vector<std::vector<bool>> frames(packets);
    std::vector<std::uint8_t> frame_store(packets * frame_bits);
    std::vector<ns::channel::packet_contribution> fast(packets);
    std::vector<std::uint32_t> shifts(packets);
    std::vector<std::int64_t> packet_of_shift(n, -1);
    std::uint64_t kernels = 0;
    // Power-aware allocation seats similar powers side by side: a
    // post-despreading SNR ramp of 12..30 dB along the shift axis.
    const double despreading_db = 10.0 * std::log10(static_cast<double>(n));
    for (std::size_t i = 0; i < packets; ++i) {
        frames[i] = ns::phy::build_frame_bits(cfg.frame, gen.bits(cfg.frame.payload_bits));
        std::uint8_t* row = frame_store.data() + i * frame_bits;
        kernels += upchirps;
        for (std::size_t b = 0; b < frame_bits; ++b) {
            row[b] = frames[i][b] ? 1 : 0;
            kernels += row[b];
        }
        shifts[i] = static_cast<std::uint32_t>(i * cfg.skip);
        packet_of_shift[shifts[i]] = static_cast<std::int64_t>(i);
        auto& p = fast[i];
        p.cyclic_shift = shifts[i];
        p.frame_bits = std::span<const std::uint8_t>(row, frame_bits);
        p.snr_db = 12.0 +
                   18.0 * static_cast<double>(i) /
                       static_cast<double>(std::max<std::size_t>(1, packets - 1)) -
                   despreading_db;
        p.timing_offset_s = gen.uniform(-0.25, 0.25) * phy.time_per_bin_s();
        p.frequency_offset_hz = gen.uniform(-0.25, 0.25) * phy.bin_spacing_hz();
    }

    ns::channel::symbol_domain_params sd;
    sd.zero_padding = cfg.zero_padding;
    sd.preamble_upchirps = upchirps;
    sd.preamble_symbols = cfg.frame.preamble_symbols;
    sd.payload_symbols = frame_bits;
    sd.kernel_radius_bins = cfg.symbol_kernel_radius_bins;
    const ns::channel::channel_config chan{};
    const ns::rx::receiver_params rx_params{.phy = phy,
                                            .zero_padding_factor = cfg.zero_padding,
                                            .detection_factor = cfg.detection_factor,
                                            .skip = cfg.skip,
                                            .frame = cfg.frame};

    // One fixed realization of the round: the delivery share, and the
    // spectra and baseband the decode timings read.
    ns::channel::channel_workspace ws;
    ns::util::rng round_rng(2);
    ns::channel::combine_symbol_domain(fast, phy, chan, sd, round_rng, ws);
    const std::vector<ns::dsp::cvec> spectra = ws.symbol_spectra;
    ns::rx::receiver rx(rx_params);
    rx.set_registered_shifts(std::span<const std::uint32_t>(shifts));
    ns::rx::decode_result decoded;
    ns::rx::decode_workspace dws;
    rx.decode_spectra_into(spectra, decoded, dws);
    std::size_t delivered = 0;
    for (const auto& report : decoded.reports) {
        const std::int64_t i = packet_of_shift[report.cyclic_shift];
        if (i >= 0 && report.crc_ok &&
            report.bits == frames[static_cast<std::size_t>(i)]) {
            ++delivered;
        }
    }

    // Sample domain: the first packets of the same round as modulated
    // waveforms, capped at ~2M contributed samples to bound memory.
    const std::size_t packet_samples = (cfg.frame.preamble_symbols + frame_bits) * n;
    const std::size_t sampled =
        std::clamp<std::size_t>(2'000'000 / packet_samples, 1, packets);
    std::vector<ns::dsp::cvec> waveforms(sampled);
    std::vector<ns::channel::tx_contribution> waves(sampled);
    for (std::size_t i = 0; i < sampled; ++i) {
        ns::phy::distributed_modulator(phy, shifts[i])
            .modulate_packet_into(frames[i], waveforms[i]);
        waves[i].waveform = std::span<const ns::dsp::cplx>(waveforms[i]);
        waves[i].snr_db = fast[i].snr_db;
        waves[i].timing_offset_s = fast[i].timing_offset_s;
        waves[i].frequency_offset_hz = fast[i].frequency_offset_hz;
    }
    ns::channel::channel_workspace sample_ws;
    ns::util::rng sample_rng(3);
    const ns::dsp::cvec stream =
        ns::channel::combine(waves, packet_samples, phy, chan, sample_rng, sample_ws);
    ns::rx::receiver sample_rx(rx_params);
    sample_rx.set_registered_shifts(std::span<const std::uint32_t>(shifts.data(), sampled));

    ns::channel::channel_workspace noise_ws;
    ns::util::rng noise_rng(1);
    const std::vector<double> t = median_calls_s({
        [&] { ns::channel::combine_symbol_domain({}, phy, chan, sd, noise_rng, noise_ws); },
        [&] { ns::channel::combine_symbol_domain(fast, phy, chan, sd, noise_rng, ws); },
        [&] { rx.decode_spectra_into(spectra, decoded, dws); },
        [&] { ns::channel::combine(waves, packet_samples, phy, chan, sample_rng, sample_ws); },
        [&] { sample_rx.decode_into(stream, 0, decoded, dws); },
    });
    const auto symbols = static_cast<double>(spectra.size());
    const auto window = static_cast<double>(
        ns::obs::kernel_window_size(n, cfg.zero_padding, cfg.symbol_kernel_radius_bins));
    unit_costs out;
    out.noise_ns_per_bin = t[0] * 1e9 / (symbols * static_cast<double>(n * cfg.zero_padding));
    out.kernel_ns_per_elem = (t[1] - t[0]) * 1e9 / (static_cast<double>(kernels) * window);
    out.decode_us_per_symbol = t[2] * 1e6 / symbols;
    out.sample_combine_ns_per_sample =
        t[3] * 1e9 / static_cast<double>(sampled * packet_samples);
    out.sample_decode_us_per_symbol = t[4] * 1e6 / symbols;
    out.delivery_ratio = static_cast<double>(delivered) / static_cast<double>(packets);
    return out;
}

int run_layers(const scenario_spec& loaded, const options& opt) {
    const std::size_t replicas = opt.count > 0 ? opt.count : 20;
    const scenario_spec plain = untraced(loaded);
    scenario_spec traced = loaded;
    traced.sim.obs.metrics = true;
    traced.sim.obs.trace = true;

    std::vector<replica_run> plain_runs;
    std::vector<replica_run> traced_runs;
    std::vector<ns::obs::trace_event> events;
    ns::obs::metrics_snapshot merged;
    for (std::size_t r = 0; r < replicas; ++r) {
        // Alternate which pass runs first so neither always sees the
        // other's warm caches.
        if (r % 2 == 0) plain_runs.push_back(run_replica(plain, r));
        sim_result sim;
        traced_runs.push_back(run_replica(traced, r, &sim, &events));
        if (r % 2 == 1) plain_runs.push_back(run_replica(plain, r));
        merged.merge(sim.metrics);
        events.insert(events.end(), sim.trace.begin(), sim.trace.end());
    }

    const double rounds = static_cast<double>(std::max<std::uint64_t>(
        1, merged.counter_value("sim.rounds")));
    const auto per_round_ms = [&](const char* name) {
        return merged.histogram_sum(name) * 1e3 / rounds;
    };
    const auto per_round = [&](const char* name) {
        return static_cast<double>(merged.counter_value(name)) / rounds;
    };
    const double plan = per_round_ms("round.plan_s");
    const double grouping = per_round_ms("round.grouping_s");
    const double synth = per_round_ms("round.synth_s");
    const double superpose = per_round_ms("round.superpose_s");
    const double decode = per_round_ms("round.decode_s");
    const double kernel_plan = per_round_ms("phy.kernel_plan_s");
    const double kernel_sum = per_round_ms("phy.kernel_sum_s");
    const double tx_per_round = per_round("sim.tx_packets");
    const std::uint64_t steady_rounds = merged.counter_value("alloc.steady_rounds");
    const std::uint64_t tx = merged.counter_value("sim.tx_packets");

    const unit_costs unit =
        measure_unit_costs(loaded, static_cast<std::size_t>(std::llround(tx_per_round)));

    bool trace_written = true;
    if (!opt.trace_out.empty()) {
        trace_written = ns::obs::write_chrome_trace(events, opt.trace_out);
    }

    const std::pair<const char*, double> layers[] = {
        {"round.plan_ms", plan},
        {"round.grouping_ms", grouping},
        {"round.synth_ms", synth},
        {"round.superpose_ms", superpose},
        {"round.decode_ms", decode},
        {"phy.kernel_plan_ms", kernel_plan},
        {"phy.kernel_sum_ms", kernel_sum},
        {"superpose.residual_ms", superpose - kernel_plan - kernel_sum},
        {"round.residual_ms",
         per_round_ms("round.total_s") - plan - grouping - synth - superpose - decode},
        {"sim.tx_per_round", tx_per_round},
        {"phy.kernel_elems_per_round", per_round("phy.kernel_window_elems")},
        {"sim.fast_path_share", per_round("sim.fast_path_rounds")},
        {"alloc.steady_per_round",
         steady_rounds == 0 ? 0.0
                            : static_cast<double>(merged.counter_value("alloc.steady_count")) /
                                  static_cast<double>(steady_rounds)},
        {"rx.delivery_ratio",
         tx == 0 ? 0.0
                 : static_cast<double>(merged.counter_value("sim.delivered")) /
                       static_cast<double>(tx)},
        {"channel.noise_ns_per_bin", unit.noise_ns_per_bin},
        {"channel.kernel_ns_per_elem", unit.kernel_ns_per_elem},
        {"rx.decode_us_per_symbol", unit.decode_us_per_symbol},
        {"channel.sample_combine_ns_per_sample", unit.sample_combine_ns_per_sample},
        {"rx.sample_decode_us_per_symbol", unit.sample_decode_us_per_symbol},
        {"unit.delivery_ratio", unit.delivery_ratio},
    };
    std::string layer_json = "{";
    for (const auto& [name, value] : layers) {
        if (layer_json.size() > 1) layer_json += ',';
        layer_json += '"';
        layer_json += name;
        layer_json += "\":";
        layer_json += num(value);
    }
    layer_json += "}";
    std::printf("{\"trace_written\":%s,\"trace_events\":%zu,\"layers\":%s,"
                "\"untraced\":%s,\"traced\":%s}\n",
                trace_written ? "true" : "false", events.size(), layer_json.c_str(),
                replicas_json(plain_runs).c_str(), replicas_json(traced_runs).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = parse_options(argc, argv);
    try {
        scenario_spec spec = ns::spec::load_spec_file(opt.spec_path);
        if (opt.seed) spec.sim.seed = *opt.seed;
        // One client, one thread: intra-round fan-out stays off so every
        // workload measures the serial round loop.
        spec.sim.intra_round_threads = 1;
        if (opt.mode == "e2e") return run_e2e(spec, opt);
        if (opt.mode == "check") return run_check(spec);
        return run_layers(spec, opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ns_bench: %s\n", e.what());
        return 1;
    }
}
