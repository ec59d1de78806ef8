// Named, reproducible workloads.
//
// The registry is the catalogue `netscatter_sim --list` prints and the
// benches/CI smoke run from: a thin loader over the committed
// `specs/*.spec` files (ns::spec codec). registry() parses every file in
// ns::spec::spec_dir() at first use, in file-name order; the files are
// the only source of registered scenarios. To add one, commit a spec
// file (or build a spec by hand and hand it straight to run_scenario;
// registration is a convenience, not a requirement).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netscatter/scenario/scenario_spec.hpp"

namespace ns::scenario {

/// All registered scenarios, in presentation order. Loaded from
/// `spec_dir()/*.spec` (sorted by file name); throws
/// ns::spec::spec_error when the directory holds no spec file or a file
/// does not parse.
const std::vector<scenario_spec>& registry();

/// Looks a scenario up by name.
std::optional<scenario_spec> find_scenario(const std::string& name);

}  // namespace ns::scenario
