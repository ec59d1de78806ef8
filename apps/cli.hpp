// Shared command-line surface of the netscatter binaries.
//
// One declarative parser (arg_parser) plus the common_options bundle
// both netscatter_sim and netscatter_sweep mount, so --spec / --seed /
// --threads / --round-threads / --json / --metrics / --trace / --perf /
// --strip-wallclock mean exactly the same thing everywhere. Unknown
// flags, missing values and unparsable numbers all fail with a one-line
// error plus the generated usage string — never a silent default.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "netscatter/scenario/scenario_spec.hpp"

namespace ns::apps {

/// Strict integer parsing: the whole token must be one base-10 number.
template <typename T>
bool parse_number(const std::string& text, T& out) {
    const char* const end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && p == end;
}

inline bool parse_fidelity(const std::string& text,
                           ns::sim::phy_fidelity& out) {
    if (text == "sample") {
        out = ns::sim::phy_fidelity::sample;
    } else if (text == "symbol") {
        out = ns::sim::phy_fidelity::symbol;
    } else {
        return false;
    }
    return true;
}

/// Declarative flag/option table with generated usage text.
class arg_parser {
  public:
    enum class status { ok, help, error };

    arg_parser(std::string program, std::string summary)
        : program_(std::move(program)), summary_(std::move(summary)) {}

    /// A bare flag (no value).
    void add_flag(const std::string& name, const std::string& help,
                  std::function<void()> apply) {
        entries_.push_back({name, "", help,
                            [apply = std::move(apply)](const std::string&) {
                                apply();
                                return true;
                            },
                            false});
    }

    /// An option taking one value; `apply` returns false to reject it.
    void add_option(const std::string& name, const std::string& value_name,
                    const std::string& help,
                    std::function<bool(const std::string&)> apply) {
        entries_.push_back({name, value_name, help, std::move(apply), true});
    }

    std::string usage() const {
        std::ostringstream out;
        out << "usage: " << program_ << " " << summary_ << "\n";
        for (const auto& entry : entries_) {
            std::string head = "  " + entry.name;
            if (entry.takes_value) head += " " + entry.value_name;
            out << head;
            if (head.size() < 22) out << std::string(22 - head.size(), ' ');
            out << " " << entry.help << "\n";
        }
        return out.str();
    }

    /// Parses argv. Unknown flags, missing values and rejected values
    /// print a one-line error plus the usage string to stderr and
    /// return status::error; --help/-h prints usage to stdout and
    /// returns status::help.
    status parse(int argc, char** argv) const {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                std::cout << usage();
                return status::help;
            }
            const entry* matched = nullptr;
            for (const auto& candidate : entries_) {
                if (candidate.name == arg) {
                    matched = &candidate;
                    break;
                }
            }
            if (matched == nullptr) {
                return fail("unknown option: " + arg);
            }
            std::string value;
            if (matched->takes_value) {
                if (i + 1 >= argc) {
                    return fail("missing value for " + arg);
                }
                value = argv[++i];
            }
            if (!matched->apply(value)) {
                return fail("invalid value for " + arg + ": '" + value + "'");
            }
        }
        return status::ok;
    }

  private:
    struct entry {
        std::string name;
        std::string value_name;
        std::string help;
        std::function<bool(const std::string&)> apply;
        bool takes_value;
    };

    status fail(const std::string& message) const {
        std::cerr << program_ << ": " << message << "\n" << usage();
        return status::error;
    }

    std::string program_;
    std::string summary_;
    std::vector<entry> entries_;
};

/// The flag set shared by netscatter_sim and netscatter_sweep. Mounted
/// in three slices so each binary picks what applies, but a mounted
/// flag always has the same name, value syntax and semantics.
struct common_options {
    // Spec overrides (applied after the spec/registry load).
    std::optional<std::size_t> rounds;
    std::optional<std::size_t> replicas;
    std::optional<std::uint64_t> seed;
    std::optional<ns::sim::phy_fidelity> fidelity;
    std::optional<std::size_t> round_threads;

    // Execution policy.
    std::size_t threads = 0;

    // Outputs.
    bool strip_wallclock = false;
    bool perf = false;
    std::string json_path;
    std::string metrics_path;
    std::string trace_path;

    /// --rounds/--replicas/--seed/--fidelity/--round-threads.
    void mount_override_flags(arg_parser& parser) {
        parser.add_option("--rounds", "N", "override per-replica rounds",
                          [this](const std::string& v) {
                              std::size_t n{};
                              if (!parse_number(v, n) || n == 0) return false;
                              rounds = n;
                              return true;
                          });
        parser.add_option("--replicas", "N", "override replica count",
                          [this](const std::string& v) {
                              std::size_t n{};
                              if (!parse_number(v, n) || n == 0) return false;
                              replicas = n;
                              return true;
                          });
        parser.add_option("--seed", "S", "override base seed",
                          [this](const std::string& v) {
                              std::uint64_t s{};
                              if (!parse_number(v, s)) return false;
                              seed = s;
                              return true;
                          });
        parser.add_option("--fidelity", "F",
                          "PHY channel fidelity: symbol | sample (the oracle)",
                          [this](const std::string& v) {
                              ns::sim::phy_fidelity f{};
                              if (!parse_fidelity(v, f)) return false;
                              fidelity = f;
                              return true;
                          });
        parser.add_option(
            "--round-threads", "N",
            "intra-round symbol-sweep threads per replica (default 1; "
            "results identical at any N)",
            [this](const std::string& v) {
                std::size_t n{};
                if (!parse_number(v, n) || n == 0) return false;
                round_threads = n;
                return true;
            });
    }

    /// --threads.
    void mount_execution_flags(arg_parser& parser) {
        parser.add_option("--threads", "N",
                          "worker threads (0 = all cores, 1 = serial reference)",
                          [this](const std::string& v) {
                              return parse_number(v, threads);
                          });
    }

    /// --json/--metrics/--trace/--perf/--strip-wallclock.
    void mount_output_flags(arg_parser& parser) {
        parser.add_option("--json", "PATH", "report JSON output path",
                          [this](const std::string& v) {
                              json_path = v;
                              return !v.empty();
                          });
        parser.add_option(
            "--metrics", "PATH",
            "write the full metrics registry (counters, gauges, per-phase "
            "histograms, process stats) as JSON",
            [this](const std::string& v) {
                metrics_path = v;
                return !v.empty();
            });
        parser.add_option(
            "--trace", "PATH",
            "record per-round phase spans and write them as Chrome/Perfetto "
            "trace JSON (load at ui.perfetto.dev)",
            [this](const std::string& v) {
                trace_path = v;
                return !v.empty();
            });
        parser.add_flag(
            "--perf",
            "open hardware perf counters per replica and print per-phase "
            "cycles/instructions/IPC (degrades to available=false where "
            "perf_event_open is denied; never changes simulation results)",
            [this] { perf = true; });
        parser.add_flag(
            "--strip-wallclock",
            "omit every host-measured value (wall clock, phase timers, "
            "perf counters) from the JSON; simulated time stays, so "
            "reports from different thread counts diff clean",
            [this] { strip_wallclock = true; });
    }

    /// Applies the spec overrides (NOT the obs trace/perf switches —
    /// those are set by the binary right before running, per output
    /// target).
    void apply_overrides(ns::scenario::scenario_spec& spec) const {
        if (rounds) spec.sim.rounds = *rounds;
        if (replicas) spec.replicas = *replicas;
        if (seed) spec.sim.seed = *seed;
        if (fidelity) spec.sim.fidelity = *fidelity;
        if (round_threads) spec.sim.intra_round_threads = *round_threads;
    }
};

}  // namespace ns::apps
