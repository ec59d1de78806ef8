// netscatter_sim — the unified scenario CLI.
//
// Lists and runs scenarios — registered (scenario/scenario_registry,
// loaded from the committed specs/*.spec files) or ad-hoc (--spec FILE)
// — through the deterministic scenario runner, prints the network
// metrics as a table, and writes a bench_report-style JSON file per
// scenario (scalars + a per-round "points" series) so CI can track
// every workload's trajectory next to the paper-figure benches.
//
// The flag surface is the shared one (apps/cli.hpp): netscatter_sweep
// mounts the same option set with the same meanings.
//
// Usage:
//   netscatter_sim --list
//   netscatter_sim --scenario warehouse-1k --rounds 200 --threads 8
//                  --seed 3 --json out.json   (one line)
//   netscatter_sim --spec specs/office-256.spec --rounds 10
//   netscatter_sim --dump-spec office-256   (canonical serialization)
//   netscatter_sim --all --rounds 10
#include <iostream>
#include <string>
#include <vector>

#include "apps/alloc_hook.hpp"
#include "apps/cli.hpp"
#include "apps/scenario_report.hpp"
#include "netscatter/obs/trace.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/spec/spec_codec.hpp"
#include "netscatter/util/table.hpp"

namespace {

struct sim_options {
    bool list = false;
    bool all = false;
    std::vector<std::string> scenarios;   ///< registry names (--scenario)
    std::vector<std::string> spec_files;  ///< spec file paths (--spec)
    std::string dump_spec;                ///< --dump-spec NAME
    ns::apps::common_options common;
};

void list_scenarios() {
    ns::util::text_table table(
        "Registered scenarios (" + ns::spec::spec_dir() + ")",
        {"name", "devices", "rounds x replicas", "description"});
    for (const auto& spec : ns::scenario::registry()) {
        table.add_row({spec.name, std::to_string(spec.geometry.num_devices),
                       std::to_string(spec.sim.rounds) + " x " +
                           std::to_string(spec.replicas),
                       spec.description});
    }
    table.print(std::cout);
}

int run(const sim_options& options) {
    std::vector<ns::scenario::scenario_spec> specs;
    if (options.all) {
        specs = ns::scenario::registry();
    } else {
        for (const auto& name : options.scenarios) {
            const auto spec = ns::scenario::find_scenario(name);
            if (!spec) {
                std::cerr << "unknown scenario: " << name
                          << " (see --list)\n";
                return 1;
            }
            specs.push_back(*spec);
        }
        for (const auto& path : options.spec_files) {
            specs.push_back(ns::spec::load_spec_file(path));
        }
    }
    if (specs.empty()) return 1;
    if (!options.common.json_path.empty() && specs.size() > 1) {
        std::cerr << "--json applies to a single scenario; "
                     "multi-scenario runs write SCENARIO_<name>.json each\n";
        return 1;
    }
    if ((!options.common.metrics_path.empty() ||
         !options.common.trace_path.empty()) &&
        specs.size() > 1) {
        std::cerr << "--metrics/--trace apply to a single scenario\n";
        return 1;
    }

    ns::util::text_table table(
        "netscatter_sim",
        {"scenario", "devices", "groups", "delivery", "thpt [kbps]", "skip", "idle",
         "joins/leaves", "realloc", "latency [rd]"});

    for (auto spec : specs) {
        options.common.apply_overrides(spec);
        spec.sim.obs.trace = !options.common.trace_path.empty();
        spec.sim.obs.perf = options.common.perf;

        const auto result = ns::scenario::run_scenario(
            spec, {.num_threads = options.common.threads});

        table.add_row(
            {spec.name, std::to_string(spec.geometry.num_devices),
             result.num_groups == 0 ? "-" : std::to_string(result.num_groups),
             ns::util::format_double(100.0 * result.sim.delivery_rate(), 1) + " %",
             ns::util::format_double(result.throughput_bps() / 1e3, 1),
             ns::util::format_double(100.0 * result.sim.skip_rate(), 1) + " %",
             ns::util::format_double(100.0 * result.sim.idle_rate(), 1) + " %",
             std::to_string(result.sim.total_joins) + "/" +
                 std::to_string(result.sim.total_leaves),
             std::to_string(result.sim.total_realloc_events),
             ns::util::format_double(result.stats.mean_join_latency_rounds(), 2)});

        if (options.common.perf) ns::apps::print_perf_table(result);

        const std::string path = options.common.json_path.empty()
                                     ? "SCENARIO_" + spec.name + ".json"
                                     : options.common.json_path;
        ns::apps::write_scenario_json(result, path,
                                      options.common.strip_wallclock);
        if (!options.common.metrics_path.empty()) {
            ns::apps::write_metrics_json(result, options.common.metrics_path,
                                         options.common.strip_wallclock);
        }
        if (!options.common.trace_path.empty()) {
            if (ns::obs::write_chrome_trace(result.sim.trace,
                                            options.common.trace_path)) {
                std::cout << "wrote " << options.common.trace_path << " ("
                          << result.sim.trace.size() << " spans";
                if (result.sim.trace_dropped > 0) {
                    std::cout << ", " << result.sim.trace_dropped << " dropped";
                }
                std::cout << ")\n";
            } else {
                std::cerr << "could not write " << options.common.trace_path
                          << "\n";
                return 1;
            }
        }
    }
    table.print(std::cout);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    sim_options options;
    ns::apps::arg_parser parser(
        "netscatter_sim",
        "(--list | --scenario NAME | --spec FILE | --all) [options]");
    parser.add_flag("--list",
                    "list registered scenarios with their source files",
                    [&] { options.list = true; });
    parser.add_option("--scenario", "NAME",
                      "run one registered scenario (repeatable)",
                      [&](const std::string& v) {
                          options.scenarios.push_back(v);
                          return !v.empty();
                      });
    parser.add_option("--spec", "FILE",
                      "run a scenario from a spec file (repeatable)",
                      [&](const std::string& v) {
                          options.spec_files.push_back(v);
                          return !v.empty();
                      });
    parser.add_flag("--all", "run every registered scenario",
                    [&] { options.all = true; });
    parser.add_option(
        "--dump-spec", "NAME",
        "print the canonical spec serialization of a registered scenario "
        "and exit (what specs/<NAME>.spec must equal byte-for-byte)",
        [&](const std::string& v) {
            options.dump_spec = v;
            return !v.empty();
        });
    options.common.mount_override_flags(parser);
    options.common.mount_execution_flags(parser);
    options.common.mount_output_flags(parser);

    switch (parser.parse(argc, argv)) {
        case ns::apps::arg_parser::status::help: return 0;
        case ns::apps::arg_parser::status::error: return 1;
        case ns::apps::arg_parser::status::ok: break;
    }

    try {
        if (options.list) {
            list_scenarios();
            return 0;
        }
        if (!options.dump_spec.empty()) {
            const auto spec = ns::scenario::find_scenario(options.dump_spec);
            if (!spec) {
                std::cerr << "unknown scenario: " << options.dump_spec
                          << " (see --list)\n";
                return 1;
            }
            std::cout << ns::spec::serialize_spec(*spec);
            return 0;
        }
        if (!options.all && options.scenarios.empty() &&
            options.spec_files.empty()) {
            std::cerr << parser.usage();
            return 1;
        }
        return run(options);
    } catch (const std::exception& error) {
        // Bad spec files and out-of-domain option values (e.g.
        // --rounds 0 via a spec) surface here as spec_error /
        // sim_config::validate() contract violations.
        std::cerr << "netscatter_sim: " << error.what() << "\n";
        return 1;
    }
}
