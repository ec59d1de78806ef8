#include "netscatter/scenario/scenario_registry.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "netscatter/spec/spec_codec.hpp"

namespace ns::scenario {

namespace {

std::vector<scenario_spec> load_registry() {
    const std::string dir = ns::spec::spec_dir();
    std::error_code ec;
    std::vector<std::filesystem::path> files;
    if (std::filesystem::is_directory(dir, ec)) {
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            if (entry.path().extension() == ".spec") {
                files.push_back(entry.path());
            }
        }
        std::sort(files.begin(), files.end());
    }
    if (files.empty()) {
        throw ns::spec::spec_error("no scenario spec files (*.spec) in '" + dir +
                                   "'; set NS_SPEC_DIR to the repository's "
                                   "specs/ directory");
    }
    std::vector<scenario_spec> specs;
    for (const auto& file : files) {
        scenario_spec spec = ns::spec::load_spec_file(file.string());
        // File name == scenario name keeps --list, find_scenario and the
        // CI drift gate all talking about the same thing.
        if (spec.name != file.stem().string()) {
            throw ns::spec::spec_error(
                file.string() + ": scenario name '" + spec.name +
                "' does not match the file name '" + file.stem().string() +
                "'");
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

}  // namespace

const std::vector<scenario_spec>& registry() {
    static const std::vector<scenario_spec> specs = load_registry();
    return specs;
}

std::optional<scenario_spec> find_scenario(const std::string& name) {
    for (const auto& spec : registry()) {
        if (spec.name == name) return spec;
    }
    return std::nullopt;
}

}  // namespace ns::scenario
