// Machine-readable bench output.
//
// Every bench prints its human-readable table as before, and *also*
// drops a BENCH_<name>.json file in the working directory with the sweep
// points and the wall-clock time, so the perf trajectory of the repo can
// be tracked across PRs by tooling instead of by eyeballing tables.
//
// The writer is a minimal flat schema — a top-level object of scalars
// plus one "points" array of flat objects — which covers every bench
// here without pulling in a JSON dependency. Values may be numbers or
// strings; non-finite numbers (NaN/±inf from empty sweeps) are emitted
// as `null` and every string (names, keys, values) is escaped, so the
// output is always valid JSON.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace bench {

/// Wall-clock stopwatch started at construction.
class stopwatch {
public:
    stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

/// A JSON scalar: number or string.
struct json_value {
    bool is_string = false;
    double number = 0.0;
    std::string text;

    json_value(double value) : number(value) {}  // any arithmetic type converts
    json_value(std::string value) : is_string(true), text(std::move(value)) {}
    json_value(const char* value) : is_string(true), text(value) {}
};

/// Escapes a string for inclusion in a JSON document (quotes,
/// backslashes and control characters).
inline std::string json_escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// Accumulates one bench run and writes BENCH_<name>.json.
class bench_report {
public:
    explicit bench_report(std::string name) : name_(std::move(name)) {}

    /// Adds a top-level scalar (number or string).
    void set_scalar(const std::string& key, json_value value) {
        scalars_.emplace_back(key, std::move(value));
    }

    /// Appends one point as flat key/value pairs (numbers or strings).
    void add_point(std::vector<std::pair<std::string, json_value>> fields) {
        points_.push_back(std::move(fields));
    }

    /// Appends one point to a named auxiliary array (e.g. a per-group
    /// breakdown next to the per-round "points"). Sections are emitted
    /// after "points", in first-use order.
    void add_section_point(const std::string& section,
                           std::vector<std::pair<std::string, json_value>> fields) {
        for (auto& [name, points] : sections_) {
            if (name == section) {
                points.push_back(std::move(fields));
                return;
            }
        }
        sections_.emplace_back(section,
                               std::vector<std::vector<std::pair<std::string, json_value>>>{
                                   std::move(fields)});
    }

    /// Writes the report to `path` (default: BENCH_<name>.json in the
    /// working directory) and reports the path on stdout.
    void write(const std::string& path = "") const {
        std::ostringstream out;
        out.precision(12);
        out << "{\n  \"bench\": \"" << json_escape(name_) << "\"";
        for (const auto& [key, value] : scalars_) {
            out << ",\n  \"" << json_escape(key) << "\": ";
            emit(out, value);
        }
        emit_array(out, "points", points_);
        for (const auto& [section, points] : sections_) {
            emit_array(out, section, points);
        }
        out << "\n}\n";

        const std::string target = path.empty() ? "BENCH_" + name_ + ".json" : path;
        std::ofstream file(target);
        if (!file) {
            std::cout << "\ncould not write " << target << "\n";
            return;
        }
        file << out.str();
        std::cout << "\nwrote " << target << "\n";
    }

private:
    using point_list = std::vector<std::vector<std::pair<std::string, json_value>>>;

    /// Numbers print as-is; non-finite numbers (the JSON grammar has no
    /// nan/inf tokens) degrade to null; strings are quoted and escaped.
    static void emit(std::ostringstream& out, const json_value& value) {
        if (value.is_string) {
            out << "\"" << json_escape(value.text) << "\"";
        } else if (!std::isfinite(value.number)) {
            out << "null";
        } else {
            out << value.number;
        }
    }

    static void emit_array(std::ostringstream& out, const std::string& name,
                           const point_list& points) {
        out << ",\n  \"" << json_escape(name) << "\": [";
        for (std::size_t i = 0; i < points.size(); ++i) {
            out << (i == 0 ? "\n" : ",\n") << "    {";
            const auto& fields = points[i];
            for (std::size_t f = 0; f < fields.size(); ++f) {
                out << (f == 0 ? "" : ", ") << "\"" << json_escape(fields[f].first)
                    << "\": ";
                emit(out, fields[f].second);
            }
            out << "}";
        }
        out << "\n  ]";
    }

    std::string name_;
    std::vector<std::pair<std::string, json_value>> scalars_;
    point_list points_;
    std::vector<std::pair<std::string, point_list>> sections_;
};

}  // namespace bench
