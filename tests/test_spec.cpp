// The declarative spec layer's contracts.
//
// Parser diagnostics (unknown key, duplicate key, type mismatch,
// out-of-domain — each a distinct error naming the offending line),
// the serialize→parse→serialize fixed point over every registered
// scenario, each committed specs/*.spec file as a parse→serialize byte
// fixed point, the registry-over-files loader, the --vary override
// primitive, and the Cartesian sweep engine's expansion order,
// thread-count invariance and position-indexed execution.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/spec/spec_codec.hpp"
#include "netscatter/spec/sweep.hpp"
#include "tests/outcome_digest.hpp"

namespace {

using namespace ns::scenario;
using namespace ns::spec;

/// Parses `text` expecting a spec_error whose message contains every
/// needle; returns the message for further checks.
std::string expect_parse_error(const std::string& text,
                               const std::vector<std::string>& needles) {
    try {
        parse_spec_text_as_scenario(text, "test.spec");
    } catch (const spec_error& error) {
        const std::string what = error.what();
        for (const auto& needle : needles) {
            EXPECT_NE(what.find(needle), std::string::npos)
                << "missing '" << needle << "' in: " << what;
        }
        return what;
    }
    ADD_FAILURE() << "no spec_error for: " << text;
    return {};
}

// --------------------------------------------------------- diagnostics --

TEST(spec_parser, unknown_key_names_the_offending_line) {
    expect_parse_error("name = \"x\"\ngeometry.num_device = 4\n",
                       {"test.spec:2:", "unknown key 'geometry.num_device'"});
}

TEST(spec_parser, duplicate_key_names_both_lines) {
    expect_parse_error(
        "name = \"x\"\n\nsim.rounds = 3\nsim.rounds = 4\n",
        {"test.spec:4:", "duplicate key 'sim.rounds'", "line 3"});
}

TEST(spec_parser, type_mismatch_is_a_distinct_error) {
    expect_parse_error("sim.rounds = fast\n",
                       {"test.spec:1:", "expected", "integer", "'fast'"});
    expect_parse_error("traffic.duty_cycle = high\n",
                       {"test.spec:1:", "expected", "real", "'high'"});
    expect_parse_error("cochannel.enabled = yes\n",
                       {"test.spec:1:", "boolean", "'yes'"});
    expect_parse_error("traffic.kind = firehose\n",
                       {"test.spec:1:", "one of", "'firehose'"});
    expect_parse_error("name = unquoted\n",
                       {"test.spec:1:", "quoted string"});
}

TEST(spec_parser, out_of_domain_value_is_a_distinct_error) {
    expect_parse_error("traffic.duty_cycle = 1.5\n",
                       {"test.spec:1:", "out of domain", "[0, 1]"});
    expect_parse_error("sim.rounds = 0\n", {"test.spec:1:", "out of domain"});
    expect_parse_error("sim.phy.bandwidth_hz = -1\n",
                       {"test.spec:1:", "out of domain"});
}

TEST(spec_parser, malformed_lines_fail_with_line_numbers) {
    expect_parse_error("sim.rounds\n", {"test.spec:1:", "malformed line"});
    expect_parse_error("name = \"open\n", {"test.spec:1:", "unterminated"});
    expect_parse_error("sim.rounds =\n", {"test.spec:1:", "missing value"});
}

TEST(spec_parser, cross_field_validation_carries_the_source) {
    // Window ordering is only checkable once both keys are read, so the
    // error carries the file (no single line).
    expect_parse_error(
        "churn.aloha_initial_window = 8\nchurn.aloha_max_window = 4\n",
        {"test.spec", "aloha_max_window"});
}

// --------------------------------------------------------- fixed point --

TEST(spec_codec, serialize_parse_serialize_is_a_fixed_point_for_every_registered_scenario) {
    for (const auto& spec : registry()) {
        const std::string once = serialize_spec(spec);
        const scenario_spec parsed =
            parse_spec_text_as_scenario(once, spec.name);
        const std::string twice = serialize_spec(parsed);
        EXPECT_EQ(once, twice) << spec.name;
    }
}

TEST(spec_codec, optional_fields_round_trip_in_both_presence_states) {
    scenario_spec spec;
    spec.name = "opt";
    spec.description = "optional fields";
    const std::string absent = serialize_spec(spec);
    EXPECT_EQ(absent.find("geometry.floor_width_m"), std::string::npos);

    spec.geometry.floor_width_m = 12.5;
    spec.geometry.rooms_x = 3;
    const std::string present = serialize_spec(spec);
    EXPECT_NE(present.find("geometry.floor_width_m = 12.5"),
              std::string::npos);
    const scenario_spec parsed =
        parse_spec_text_as_scenario(present, "opt.spec");
    ASSERT_TRUE(parsed.geometry.floor_width_m.has_value());
    EXPECT_DOUBLE_EQ(*parsed.geometry.floor_width_m, 12.5);
    ASSERT_TRUE(parsed.geometry.rooms_x.has_value());
    EXPECT_EQ(*parsed.geometry.rooms_x, 3u);
    EXPECT_FALSE(parsed.geometry.floor_depth_m.has_value());
    EXPECT_EQ(serialize_spec(parsed), present);
}

TEST(spec_codec, strings_with_escapes_and_initial_active_all_round_trip) {
    scenario_spec spec;
    spec.name = "esc";
    spec.description = "quotes \" and \\ and\nnewlines\ttabs";
    spec.churn.initial_active = static_cast<std::size_t>(-1);  // "all"
    const std::string text = serialize_spec(spec);
    EXPECT_NE(text.find("churn.initial_active = all"), std::string::npos);
    const scenario_spec parsed = parse_spec_text_as_scenario(text, "esc.spec");
    EXPECT_EQ(parsed.description, spec.description);
    EXPECT_EQ(parsed.churn.initial_active, spec.churn.initial_active);
    EXPECT_EQ(serialize_spec(parsed), text);
}

// ------------------------------------------------- the committed files --

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string spec_path(const scenario_spec& spec) {
    return spec_dir() + "/" + spec.name + ".spec";
}

TEST(spec_files, every_committed_spec_is_a_parse_serialize_fixed_point) {
    // The drift gate: regenerating any committed file must be a no-op.
    for (const auto& spec : registry()) {
        const std::string path = spec_path(spec);
        const std::string text = read_file(path);
        EXPECT_EQ(text, serialize_spec(parse_spec_text_as_scenario(text, path)))
            << path;
    }
}

TEST(spec_files, registry_serves_every_spec_file_once_by_name) {
    std::set<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(spec_dir())) {
        if (entry.path().extension() == ".spec") {
            files.insert(entry.path().stem().string());
        }
    }
    std::set<std::string> names;
    for (const auto& spec : registry()) {
        EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    }
    EXPECT_EQ(names, files);
}

/// Determinism digest for cheap end-to-end comparisons.
std::string digest(const scenario_result& result) {
    std::ostringstream out;
    out.precision(17);
    ns::test::write_outcome_digest(out, result.sim);
    return out.str();
}

// ------------------------------------------------------------ overrides --

TEST(spec_override, applies_valid_assignments_and_rejects_bad_ones) {
    scenario_spec spec;
    apply_spec_override(spec, "geometry.num_devices", "512", "--vary");
    EXPECT_EQ(spec.geometry.num_devices, 512u);
    apply_spec_override(spec, "sim.fidelity", "sample", "--vary");
    EXPECT_EQ(spec.sim.fidelity, ns::sim::phy_fidelity::sample);
    // "auto", the older spelling, reads as the symbol path.
    apply_spec_override(spec, "sim.fidelity", "auto", "--vary");
    EXPECT_EQ(spec.sim.fidelity, ns::sim::phy_fidelity::symbol);
    apply_spec_override(spec, "churn.initial_active", "all", "--vary");
    EXPECT_EQ(spec.churn.initial_active, static_cast<std::size_t>(-1));

    EXPECT_THROW(apply_spec_override(spec, "nope.nope", "1", "--vary"),
                 spec_error);
    EXPECT_THROW(
        apply_spec_override(spec, "traffic.duty_cycle", "2", "--vary"),
        spec_error);
    EXPECT_THROW(apply_spec_override(spec, "sim.rounds", "x", "--vary"),
                 spec_error);
}

// --------------------------------------------------------------- schema --

TEST(spec_schema, keys_are_unique_and_fully_described) {
    std::set<std::string> keys;
    for (const auto& info : spec_schema()) {
        EXPECT_TRUE(keys.insert(info.key).second) << info.key;
        EXPECT_FALSE(info.type.empty()) << info.key;
        EXPECT_FALSE(info.default_value.empty()) << info.key;
    }
    EXPECT_GE(keys.size(), 70u);
}

// ---------------------------------------------------------------- sweep --

TEST(sweep, axis_parsing_covers_lists_ranges_and_errors) {
    const sweep_axis list = parse_sweep_axis("sim.skip=2,4,8");
    EXPECT_EQ(list.key, "sim.skip");
    EXPECT_EQ(list.values, (std::vector<std::string>{"2", "4", "8"}));

    const sweep_axis range = parse_sweep_axis("sim.phy.spreading_factor=9..12");
    EXPECT_EQ(range.values,
              (std::vector<std::string>{"9", "10", "11", "12"}));

    const sweep_axis stepped = parse_sweep_axis("geometry.num_devices=64..192..64");
    EXPECT_EQ(stepped.values, (std::vector<std::string>{"64", "128", "192"}));

    EXPECT_THROW(parse_sweep_axis("sim.skip"), spec_error);
    EXPECT_THROW(parse_sweep_axis("no.such.key=1"), spec_error);
    EXPECT_THROW(parse_sweep_axis("sim.skip="), spec_error);
    EXPECT_THROW(parse_sweep_axis("sim.skip=1,,2"), spec_error);
    EXPECT_THROW(parse_sweep_axis("sim.skip=4..2"), spec_error);
}

TEST(sweep, expansion_is_row_major_with_the_last_axis_fastest) {
    scenario_spec base;
    base.name = "grid";
    base.description = "grid";
    const std::vector<sweep_axis> axes = {
        {"geometry.num_devices", {"16", "32"}},
        {"sim.rounds", {"2", "3", "4"}},
    };
    const auto cells = expand_sweep(base, axes);
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0].spec.geometry.num_devices, 16u);
    EXPECT_EQ(cells[0].spec.sim.rounds, 2u);
    EXPECT_EQ(cells[1].spec.sim.rounds, 3u);  // last axis advances first
    EXPECT_EQ(cells[2].spec.sim.rounds, 4u);
    EXPECT_EQ(cells[3].spec.geometry.num_devices, 32u);
    EXPECT_EQ(cells[3].spec.sim.rounds, 2u);
    EXPECT_EQ(cells[5].index, 5u);
    EXPECT_EQ(cells[4].label, "geometry.num_devices=32 sim.rounds=3");

    // A bad cell value fails at expansion, before anything runs.
    EXPECT_THROW(
        expand_sweep(base, {{"traffic.duty_cycle", {"0.5", "2.0"}}}),
        spec_error);
}

TEST(sweep, product_results_are_bit_identical_serial_vs_8_threads) {
    const auto registered = find_scenario("office-256");
    ASSERT_TRUE(registered.has_value());
    scenario_spec base = *registered;
    base.sim.rounds = 2;
    base.replicas = 2;
    base.geometry.num_devices = 32;
    const auto cells = expand_sweep(
        base, {parse_sweep_axis("geometry.num_devices=24,32"),
               parse_sweep_axis("sim.seed=1,2")});
    ASSERT_EQ(cells.size(), 4u);

    const auto serial = run_sweep(cells, {.num_threads = 1});
    const auto threaded = run_sweep(cells, {.num_threads = 8});
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(digest(serial[i]), digest(threaded[i])) << "cell " << i;
    }

    // And each sweep cell equals the standalone runner on the same spec:
    // the fan-out changes scheduling, never results.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(digest(serial[i]), digest(run_scenario(cells[i].spec)))
            << "cell " << i;
    }
}

TEST(sweep, runs_a_concatenated_cell_list_by_position) {
    // A cell list need not come from one expand_sweep call. Here it is a
    // concatenation of single-cell expansions, so every cell's `index`
    // is 0; run_sweep must still run each cell's own spec.
    const auto registered = find_scenario("office-256");
    ASSERT_TRUE(registered.has_value());
    scenario_spec base = *registered;
    base.sim.rounds = 2;
    base.replicas = 1;
    std::vector<sweep_cell> cells;
    for (const char* devices : {"16", "24", "32"}) {
        auto single = expand_sweep(base, {{"geometry.num_devices", {devices}}});
        ASSERT_EQ(single.size(), 1u);
        EXPECT_EQ(single[0].index, 0u);
        cells.push_back(std::move(single[0]));
    }

    const auto results = run_sweep(cells, {.num_threads = 2});
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(digest(results[i]), digest(run_scenario(cells[i].spec)))
            << "cell " << i;
    }
}

}  // namespace
