// netscatter_sweep — Cartesian parameter products over scenario specs.
//
// Takes a base workload (--spec FILE or --scenario NAME), varies any
// spec keys over value lists or integer ranges, and runs the full
// product through the deterministic sweep engine (ns::spec::run_sweep):
// every (cell, replica) task fans out over one run_indexed pool and
// merges in fixed order, so the whole product is bit-identical at any
// --threads. Outputs: one scenario JSON per cell (the exact shape
// netscatter_sim writes, plus the cell coordinates), an aggregate JSON
// in bench_report shape, and an aggregate CSV — both digestible by
// scripts/perf_report.py.
//
// Usage:
//   netscatter_sweep --spec specs/office-256.spec
//     --vary geometry.num_devices=100,1000,10000
//     --vary sim.phy.spreading_factor=9..12
//     --out-dir sweep_out --strip-wallclock     (one line)
//   netscatter_sweep --scenario office-256 --vary sim.skip=2,4 --list-cells
//   netscatter_sweep --schema        (the full key reference)
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/alloc_hook.hpp"
#include "apps/cli.hpp"
#include "apps/scenario_report.hpp"
#include "netscatter/obs/trace.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/spec/spec_codec.hpp"
#include "netscatter/spec/sweep.hpp"
#include "netscatter/util/table.hpp"

namespace {

struct sweep_options {
    std::string spec_file;
    std::string scenario;
    std::vector<std::string> vary;
    std::string out_dir = ".";
    std::string name;      ///< sweep label; default = base spec name
    std::string csv_path;  ///< default <out-dir>/SWEEP_<name>.csv
    bool list_cells = false;
    bool schema = false;
    ns::apps::common_options common;
};

std::string format_number(double v) {
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    return std::string(buf, p);
}

/// Axis values ride into JSON as numbers when they parse as one (so
/// perf_report.py can plot them), verbatim strings otherwise.
bench::json_value axis_value(const std::string& text) {
    double v{};
    const char* const end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc{} && p == end) return v;
    return text;
}

/// "out/metrics.json" + cell 7 -> "out/metrics_cell007.json".
std::string with_cell_suffix(const std::string& path, std::size_t cell) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "_cell%03zu", cell);
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + suffix;
    }
    return path.substr(0, dot) + suffix + path.substr(dot);
}

std::string csv_escape(const std::string& text) {
    if (text.find_first_of(",\"\n") == std::string::npos) return text;
    std::string out = "\"";
    for (char c : text) {
        if (c == '"') out += "\"\"";
        else out.push_back(c);
    }
    out += "\"";
    return out;
}

void print_schema() {
    ns::util::text_table table("Scenario spec keys",
                               {"key", "type", "domain", "default"});
    for (const auto& info : ns::spec::spec_schema()) {
        table.add_row({info.key, info.type,
                       info.domain.empty() ? "-" : info.domain,
                       info.default_value});
    }
    table.print(std::cout);
}

/// The headline metrics every aggregate row carries, harvested from a
/// merged cell result. `strip` (--strip-wallclock) leaves out the
/// host-measured wall clock, from the aggregate JSON and CSV alike.
std::vector<std::pair<std::string, double>> cell_metrics(
    const ns::scenario::scenario_result& result, bool strip) {
    std::vector<std::pair<std::string, double>> metrics = {
        {"delivery_rate", result.sim.delivery_rate()},
        {"loss_rate", result.loss_rate()},
        {"ber", result.sim.ber()},
        {"throughput_bps", result.throughput_bps()},
        {"mean_delivered_per_round", result.sim.mean_delivered_per_round()},
        {"num_groups", static_cast<double>(result.num_groups)},
        {"fast_path_rounds", static_cast<double>(result.sim.fast_path_rounds)},
        {"joins", static_cast<double>(result.sim.total_joins)},
        {"leaves", static_cast<double>(result.sim.total_leaves)},
        {"round_time_s", result.round_time_s},
    };
    if (!strip) metrics.emplace_back("wall_clock_s", result.wall_clock_s);
    return metrics;
}

int run(const sweep_options& options) {
    // Resolve the base workload.
    ns::scenario::scenario_spec base;
    if (!options.spec_file.empty()) {
        base = ns::spec::load_spec_file(options.spec_file);
    } else {
        const auto found = ns::scenario::find_scenario(options.scenario);
        if (!found) {
            std::cerr << "unknown scenario: " << options.scenario
                      << " (see netscatter_sim --list)\n";
            return 1;
        }
        base = *found;
    }
    options.common.apply_overrides(base);
    base.sim.obs.trace = !options.common.trace_path.empty();
    base.sim.obs.perf = options.common.perf;

    std::vector<ns::spec::sweep_axis> axes;
    for (const std::string& text : options.vary) {
        axes.push_back(ns::spec::parse_sweep_axis(text));
    }
    const std::vector<ns::spec::sweep_cell> cells =
        ns::spec::expand_sweep(base, axes);
    const std::string name = options.name.empty() ? base.name : options.name;

    if (options.list_cells) {
        ns::util::text_table table("sweep cells: " + name,
                                   {"cell", "assignment"});
        for (const auto& cell : cells) {
            table.add_row({std::to_string(cell.index),
                           cell.label.empty() ? "(base)" : cell.label});
        }
        table.print(std::cout);
        return 0;
    }

    std::filesystem::create_directories(options.out_dir);
    const std::vector<ns::scenario::scenario_result> results =
        ns::spec::run_sweep(cells, {.num_threads = options.common.threads});

    // Per-cell scenario JSON, cell coordinates leading.
    const bool strip = options.common.strip_wallclock;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& cell = cells[i];
        std::vector<std::pair<std::string, bench::json_value>> extras = {
            {"cell", static_cast<double>(cell.index)}};
        for (const auto& [key, value] : cell.assignment) {
            extras.emplace_back("vary." + key, axis_value(value));
        }
        char index_text[32];
        std::snprintf(index_text, sizeof(index_text), "%03zu", cell.index);
        const std::string path = options.out_dir + "/SWEEP_" + name + "_cell" +
                                 index_text + ".json";
        ns::apps::write_scenario_json(results[i], path, strip, extras);
        if (options.common.perf) ns::apps::print_perf_table(results[i]);
        if (!options.common.metrics_path.empty()) {
            ns::apps::write_metrics_json(
                results[i],
                with_cell_suffix(options.common.metrics_path, cell.index),
                strip);
        }
        if (!options.common.trace_path.empty()) {
            const std::string trace_path =
                with_cell_suffix(options.common.trace_path, cell.index);
            if (!ns::obs::write_chrome_trace(results[i].sim.trace,
                                             trace_path)) {
                std::cerr << "could not write " << trace_path << "\n";
                return 1;
            }
        }
    }

    // Aggregate JSON: one bench_report point per cell, same scalars the
    // CSV carries.
    {
        bench::bench_report report("sweep_" + name);
        report.set_scalar("base", base.name);
        report.set_scalar("cells", static_cast<double>(cells.size()));
        for (std::size_t a = 0; a < axes.size(); ++a) {
            report.set_scalar("axis_" + std::to_string(a), axes[a].key);
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::vector<std::pair<std::string, bench::json_value>> point = {
                {"cell", static_cast<double>(cells[i].index)}};
            for (const auto& [key, value] : cells[i].assignment) {
                point.emplace_back(key, axis_value(value));
            }
            for (const auto& [key, value] : cell_metrics(results[i], strip)) {
                point.emplace_back(key, value);
            }
            report.add_point(std::move(point));
        }
        const std::string path =
            options.common.json_path.empty()
                ? options.out_dir + "/SWEEP_" + name + ".json"
                : options.common.json_path;
        report.write(path);
    }

    // Aggregate CSV: cell, axis columns, headline metrics.
    {
        const std::string path =
            options.csv_path.empty()
                ? options.out_dir + "/SWEEP_" + name + ".csv"
                : options.csv_path;
        std::ofstream out(path);
        if (!out) {
            std::cerr << "could not write " << path << "\n";
            return 1;
        }
        out << "cell";
        for (const auto& axis : axes) out << "," << csv_escape(axis.key);
        for (const auto& [key, value] : cell_metrics(results.front(), strip)) {
            out << "," << key;
        }
        out << "\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            out << cells[i].index;
            for (const auto& [key, value] : cells[i].assignment) {
                out << "," << csv_escape(value);
            }
            for (const auto& [key, value] : cell_metrics(results[i], strip)) {
                out << "," << format_number(value);
            }
            out << "\n";
        }
    }

    // Stdout summary.
    ns::util::text_table table(
        "netscatter_sweep: " + name,
        {"cell", "assignment", "delivery", "thpt [kbps]", "joins/leaves"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        table.add_row(
            {std::to_string(cells[i].index),
             cells[i].label.empty() ? "(base)" : cells[i].label,
             ns::util::format_double(100.0 * results[i].sim.delivery_rate(), 1) +
                 " %",
             ns::util::format_double(results[i].throughput_bps() / 1e3, 1),
             std::to_string(results[i].sim.total_joins) + "/" +
                 std::to_string(results[i].sim.total_leaves)});
    }
    table.print(std::cout);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    sweep_options options;
    ns::apps::arg_parser parser(
        "netscatter_sweep",
        "(--spec FILE | --scenario NAME) [--vary KEY=VALUES]... [options]");
    parser.add_option("--spec", "FILE", "base workload from a spec file",
                      [&](const std::string& v) {
                          options.spec_file = v;
                          return !v.empty();
                      });
    parser.add_option("--scenario", "NAME",
                      "base workload from the registry",
                      [&](const std::string& v) {
                          options.scenario = v;
                          return !v.empty();
                      });
    parser.add_option(
        "--vary", "KEY=VALUES",
        "vary a spec key over comma-separated values; integer ranges "
        "lo..hi[..step] expand inclusively (repeatable; the product is "
        "row-major, last axis fastest)",
        [&](const std::string& v) {
            options.vary.push_back(v);
            return !v.empty();
        });
    parser.add_option("--out-dir", "DIR",
                      "output directory for per-cell and aggregate files "
                      "(default .)",
                      [&](const std::string& v) {
                          options.out_dir = v;
                          return !v.empty();
                      });
    parser.add_option("--name", "LABEL",
                      "sweep label used in file names (default: base spec "
                      "name)",
                      [&](const std::string& v) {
                          options.name = v;
                          return !v.empty();
                      });
    parser.add_option("--csv", "PATH",
                      "aggregate CSV path (default "
                      "<out-dir>/SWEEP_<name>.csv)",
                      [&](const std::string& v) {
                          options.csv_path = v;
                          return !v.empty();
                      });
    parser.add_flag("--list-cells",
                    "print the expanded product and exit without running",
                    [&] { options.list_cells = true; });
    parser.add_flag("--schema",
                    "print the full spec key reference (key, type, domain, "
                    "default) and exit",
                    [&] { options.schema = true; });
    options.common.mount_override_flags(parser);
    options.common.mount_execution_flags(parser);
    options.common.mount_output_flags(parser);

    switch (parser.parse(argc, argv)) {
        case ns::apps::arg_parser::status::help: return 0;
        case ns::apps::arg_parser::status::error: return 1;
        case ns::apps::arg_parser::status::ok: break;
    }
    if (options.schema) {
        print_schema();
        return 0;
    }
    if (options.spec_file.empty() == options.scenario.empty()) {
        std::cerr << "netscatter_sweep: exactly one of --spec or --scenario "
                     "is required\n"
                  << parser.usage();
        return 1;
    }

    try {
        return run(options);
    } catch (const std::exception& error) {
        std::cerr << "netscatter_sweep: " << error.what() << "\n";
        return 1;
    }
}
