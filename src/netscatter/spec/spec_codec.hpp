// Declarative scenario codec: scenario_spec <-> spec text.
//
// One field table drives everything: serialization (every field, in a
// canonical order, shortest-round-trip doubles), parsing (strict — an
// unknown key, duplicate key, type mismatch or out-of-domain value is a
// distinct spec_error naming the offending file:line), CLI overrides
// (`--vary geometry.num_devices=4096`) and the schema listing the
// README and `netscatter_sweep --schema` print. Because the serializer
// emits exactly what the parser accepts and doubles print exactly,
// parse(serialize(spec)) == spec and serialize(parse(text)) is a fixed
// point after one round trip — the property the committed specs/*.spec
// files and tests/test_spec_fuzzer.cpp hold the codec to.
//
// Deliberately NOT serialized: sim.obs.trace, sim.obs.perf and
// sim.obs.trace_track. Those are execution-owned — the CLIs overwrite
// them from --trace/--perf and the runner assigns trace tracks per
// replica — so a workload file cannot pin them.
#pragma once

#include <string>
#include <vector>

#include "netscatter/scenario/scenario_spec.hpp"
#include "netscatter/spec/spec_doc.hpp"

namespace ns::spec {

/// One row of the schema: key, value type, accepted domain and the
/// default (serialized form; "(unset)" for absent optional fields).
struct field_info {
    std::string key;
    std::string type;
    std::string domain;
    std::string default_value;
};

/// Serializes every field of `spec` (absent optionals omitted) into the
/// canonical text form. Output is in schema order with one blank line
/// between key groups, and parses back to an identical spec.
std::string serialize_spec(const scenario::scenario_spec& spec);

/// Interprets a tokenized document as a scenario_spec starting from
/// defaults. Throws spec_error (with file:line) on unknown keys,
/// duplicate keys, type mismatches and out-of-domain values, and
/// re-throws cross-field validate() failures with the file context.
scenario::scenario_spec parse_spec(const spec_doc& doc);

/// Convenience: tokenize + interpret.
scenario::scenario_spec parse_spec_text_as_scenario(std::string_view text,
                                                    std::string source);

/// Reads and parses one spec file. Throws spec_error if the file cannot
/// be read or does not parse.
scenario::scenario_spec load_spec_file(const std::string& path);

/// Applies one `key = value` assignment to an existing spec — the
/// sweep engine's `--vary` primitive. `context` names the caller in
/// diagnostics (e.g. "--vary sim.skip"). Cross-field validation is the
/// caller's job (a sweep validates each expanded cell once).
void apply_spec_override(scenario::scenario_spec& spec, const std::string& key,
                         const std::string& value, const std::string& context);

/// Cross-field validation of a fully-assembled spec (the checks
/// parse_spec runs after its last entry): aloha window ordering,
/// co-channel SNR ordering, sim.validate(), faults.validate() and
/// replicas >= 1. Throws spec_error prefixed with `context`.
void validate_spec(const scenario::scenario_spec& spec,
                   const std::string& context);

/// The full field table, in serialization order.
const std::vector<field_info>& spec_schema();

/// Directory the registry loads committed specs from: $NS_SPEC_DIR if
/// set, else the build-time default (the repo's specs/ directory). May
/// not exist — the registry then throws a spec_error naming it.
std::string spec_dir();

}  // namespace ns::spec
