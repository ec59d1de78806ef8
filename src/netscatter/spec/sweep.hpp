// Cartesian parameter sweeps over scenario specs.
//
// A sweep is a base spec plus varied axes (`--vary key=v1,v2` /
// `--vary key=lo..hi[..step]`). expand_sweep builds the row-major
// product of cells — each a full scenario_spec with the axis values
// applied through the strict codec — and run_sweep executes every
// (cell, replica) pair on ONE ns::engine::run_indexed pool, merging per
// cell in replica order. Because each replica is a pure function of
// (cell spec, replica index) and the merge order is fixed, a sweep's
// results are bit-identical at any --threads, the same contract the
// single-scenario runner holds.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/scenario/scenario_spec.hpp"

namespace ns::spec {

/// One varied key and its value list (value tokens, codec-validated
/// when applied).
struct sweep_axis {
    std::string key;
    std::vector<std::string> values;
};

/// Parses one `--vary` argument: `key=v1,v2,...` where any value may be
/// an inclusive integer range `lo..hi` or `lo..hi..step`. Throws
/// spec_error on a malformed axis, an unknown key or an empty value
/// list.
sweep_axis parse_sweep_axis(const std::string& text);

/// One cell of the expanded product.
struct sweep_cell {
    std::size_t index = 0;  ///< row-major position in the product
    /// Axis assignments in axis order, as (key, value token).
    std::vector<std::pair<std::string, std::string>> assignment;
    scenario::scenario_spec spec;  ///< base spec + assignments applied
    std::string label;             ///< "key=value key=value ..."
};

/// Expands the row-major Cartesian product of `axes` over `base`
/// (last axis fastest). Every assignment goes through the codec, so a
/// bad value fails with the axis context before anything runs. Each
/// cell's spec is cross-field validated. With no axes the product is
/// the single base cell.
std::vector<sweep_cell> expand_sweep(const scenario::scenario_spec& base,
                                     const std::vector<sweep_axis>& axes);

/// Runs every cell, fanning all (cell, replica) tasks over one
/// run_indexed pool; returns results position-aligned with `cells`.
/// Any cell list works — one expand_sweep product, a filtered one or a
/// concatenation of several; a cell's `index` is never consulted.
/// Apart from host-measured values, each result equals run_scenario(cell.spec)
/// bit for bit, for any execution policy. Each result's wall_clock_s is the summed replica
/// wall time of that cell (the pool interleaves cells, so per-cell
/// elapsed time is not meaningful).
std::vector<scenario::scenario_result> run_sweep(
    const std::vector<sweep_cell>& cells, ns::engine::mc_options options = {});

}  // namespace ns::spec
