#include "netscatter/spec/spec_codec.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>

namespace ns::spec {

namespace {

using scenario::scenario_spec;

// ---------------------------------------------------------------------
// Token printing/parsing primitives.

/// Shortest round-trip representation: what to_chars prints, from_chars
/// parses back to the exact same bits — the bedrock of the codec's
/// parse→print→parse fixed point.
std::string print_f64(double v) {
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    return std::string(buf, p);
}

std::string quote(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default: out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

// ---------------------------------------------------------------------
// Numeric domains.

constexpr double neg_inf = -std::numeric_limits<double>::infinity();
constexpr double pos_inf = std::numeric_limits<double>::infinity();

/// Accepted real interval with open/closed ends; the text() form shows
/// up both in diagnostics and in the --schema table.
struct num_domain {
    double lo = neg_inf;
    double hi = pos_inf;
    bool lo_open = false;
    bool hi_open = false;

    bool contains(double v) const {
        if (lo_open ? v <= lo : v < lo) return false;
        if (hi_open ? v >= hi : v > hi) return false;
        return true;
    }

    std::string text() const {
        if (lo == neg_inf && hi == pos_inf) return "";
        if (hi == pos_inf) return (lo_open ? "> " : ">= ") + print_f64(lo);
        if (lo == neg_inf) return (hi_open ? "< " : "<= ") + print_f64(hi);
        return std::string(lo_open ? "(" : "[") + print_f64(lo) + ", " +
               print_f64(hi) + (hi_open ? ")" : "]");
    }
};

num_domain unit() { return {0.0, 1.0}; }
num_domain unit_open_hi() { return {0.0, 1.0, false, true}; }
num_domain at_least(double lo) { return {lo, pos_inf}; }
num_domain more_than(double lo) { return {lo, pos_inf, true, false}; }

// ---------------------------------------------------------------------
// The field table.

/// One serializable scenario field: how to detect presence, print the
/// current value, and parse+assign a token with located diagnostics.
struct field {
    std::string key;
    std::string type;    ///< for --schema and type-mismatch messages
    std::string domain;  ///< "" = any value of the type
    std::function<bool(const scenario_spec&)> present;  ///< null = always
    std::function<std::string(const scenario_spec&)> print;
    std::function<void(scenario_spec&, const std::string& value,
                       const std::string& source, std::size_t line)>
        apply;
};

double parse_f64_token(const std::string& key, const std::string& value,
                       const std::string& source, std::size_t line) {
    double v{};
    const char* const end = value.data() + value.size();
    const auto [p, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc{} || p != end || !std::isfinite(v)) {
        spec_fail(source, line,
                  "key '" + key + "': expected a finite real number, got '" +
                      value + "'");
    }
    return v;
}

template <typename T>
T parse_int_token(const std::string& key, const std::string& value,
                  const std::string& source, std::size_t line) {
    T v{};
    const char* const end = value.data() + value.size();
    const auto [p, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc{} || p != end) {
        spec_fail(source, line,
                  "key '" + key + "': expected " +
                      (std::is_signed_v<T> ? "an integer"
                                           : "a non-negative integer") +
                      ", got '" + value + "'");
    }
    return v;
}

[[noreturn]] void domain_fail(const std::string& key, const std::string& value,
                              const std::string& domain,
                              const std::string& source, std::size_t line) {
    spec_fail(source, line, "key '" + key + "': value " + value +
                                " out of domain " + domain);
}

/// Builds accessor lambdas like `NS_ACCESS(geometry.num_devices)`; the
/// same accessor serves printing (const) and assignment (mutable).
#define NS_ACCESS(expr) \
    [](scenario_spec& s) -> auto& { return s.expr; }

template <typename Access>
field f64_field(std::string key, Access access, num_domain dom = {}) {
    field f;
    f.key = std::move(key);
    f.type = "real";
    f.domain = dom.text();
    f.print = [access](const scenario_spec& s) {
        return print_f64(access(const_cast<scenario_spec&>(s)));
    };
    f.apply = [access, dom, key = f.key, domain = f.domain](
                  scenario_spec& s, const std::string& value,
                  const std::string& source, std::size_t line) {
        const double v = parse_f64_token(key, value, source, line);
        if (!dom.contains(v)) domain_fail(key, value, domain, source, line);
        access(s) = v;
    };
    return f;
}

template <typename Access>
field opt_f64_field(std::string key, Access access, num_domain dom = {}) {
    field f;
    f.key = std::move(key);
    f.type = "real";
    f.domain = dom.text();
    f.present = [access](const scenario_spec& s) {
        return access(const_cast<scenario_spec&>(s)).has_value();
    };
    f.print = [access](const scenario_spec& s) {
        return print_f64(*access(const_cast<scenario_spec&>(s)));
    };
    f.apply = [access, dom, key = f.key, domain = f.domain](
                  scenario_spec& s, const std::string& value,
                  const std::string& source, std::size_t line) {
        const double v = parse_f64_token(key, value, source, line);
        if (!dom.contains(v)) domain_fail(key, value, domain, source, line);
        access(s) = v;
    };
    return f;
}

/// Integer field over the accessor's own integer type; [lo, hi] is the
/// accepted domain (hi == max means unbounded above).
template <typename Access>
field int_field(std::string key, Access access, std::uint64_t lo = 0,
                std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
    using T = std::remove_reference_t<decltype(access(
        std::declval<scenario_spec&>()))>;
    field f;
    f.key = std::move(key);
    f.type = "integer";
    if (hi != std::numeric_limits<std::uint64_t>::max()) {
        f.domain = "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    } else if (lo != 0) {
        f.domain = ">= " + std::to_string(lo);
    }
    f.print = [access](const scenario_spec& s) {
        return std::to_string(access(const_cast<scenario_spec&>(s)));
    };
    f.apply = [access, lo, hi, key = f.key, domain = f.domain](
                  scenario_spec& s, const std::string& value,
                  const std::string& source, std::size_t line) {
        const T v = parse_int_token<T>(key, value, source, line);
        if (static_cast<std::uint64_t>(v) < lo ||
            static_cast<std::uint64_t>(v) > hi) {
            domain_fail(key, value,
                        domain.empty() ? std::string("of the type") : domain,
                        source, line);
        }
        access(s) = v;
    };
    return f;
}

template <typename Access>
field opt_int_field(std::string key, Access access, std::uint64_t lo = 0) {
    using opt_t = std::remove_reference_t<decltype(access(
        std::declval<scenario_spec&>()))>;
    using T = typename opt_t::value_type;
    field f;
    f.key = std::move(key);
    f.type = "integer";
    if (lo != 0) f.domain = ">= " + std::to_string(lo);
    f.present = [access](const scenario_spec& s) {
        return access(const_cast<scenario_spec&>(s)).has_value();
    };
    f.print = [access](const scenario_spec& s) {
        return std::to_string(*access(const_cast<scenario_spec&>(s)));
    };
    f.apply = [access, lo, key = f.key, domain = f.domain](
                  scenario_spec& s, const std::string& value,
                  const std::string& source, std::size_t line) {
        const T v = parse_int_token<T>(key, value, source, line);
        if (static_cast<std::uint64_t>(v) < lo) {
            domain_fail(key, value, domain, source, line);
        }
        access(s) = v;
    };
    return f;
}

template <typename Access>
field bool_field(std::string key, Access access) {
    field f;
    f.key = std::move(key);
    f.type = "boolean";
    f.print = [access](const scenario_spec& s) {
        return access(const_cast<scenario_spec&>(s)) ? std::string("true")
                                                     : std::string("false");
    };
    f.apply = [access, key = f.key](scenario_spec& s, const std::string& value,
                                    const std::string& source,
                                    std::size_t line) {
        if (value == "true") {
            access(s) = true;
        } else if (value == "false") {
            access(s) = false;
        } else {
            spec_fail(source, line, "key '" + key +
                                        "': expected a boolean (true|false), "
                                        "got '" +
                                        value + "'");
        }
    };
    return f;
}

template <typename Access>
field string_field(std::string key, Access access) {
    field f;
    f.key = std::move(key);
    f.type = "string";
    f.print = [access](const scenario_spec& s) {
        return quote(access(const_cast<scenario_spec&>(s)));
    };
    f.apply = [access, key = f.key](scenario_spec& s, const std::string& value,
                                    const std::string& source,
                                    std::size_t line) {
        if (value.size() < 2 || value.front() != '"' || value.back() != '"') {
            spec_fail(source, line, "key '" + key +
                                        "': expected a quoted string, got '" +
                                        value + "'");
        }
        std::string out;
        out.reserve(value.size());
        for (std::size_t i = 1; i + 1 < value.size(); ++i) {
            char c = value[i];
            if (c == '\\' && i + 2 < value.size()) {
                const char next = value[++i];
                switch (next) {
                    case '"': c = '"'; break;
                    case '\\': c = '\\'; break;
                    case 'n': c = '\n'; break;
                    case 't': c = '\t'; break;
                    case 'r': c = '\r'; break;
                    default:
                        spec_fail(source, line,
                                  "key '" + key +
                                      "': unsupported string escape '\\" +
                                      std::string(1, next) + "'");
                }
            }
            out.push_back(c);
        }
        access(s) = std::move(out);
    };
    return f;
}

template <typename Access, typename T>
field enum_field(std::string key, Access access,
                 std::vector<std::pair<std::string, T>> names) {
    std::string type;
    for (const auto& [name, v] : names) {
        if (!type.empty()) type += "|";
        type += name;
    }
    field f;
    f.key = std::move(key);
    f.type = type;
    f.print = [access, names](const scenario_spec& s) {
        const T v = access(const_cast<scenario_spec&>(s));
        for (const auto& [name, candidate] : names) {
            if (candidate == v) return name;
        }
        return std::string("?");
    };
    f.apply = [access, names, type, key = f.key](
                  scenario_spec& s, const std::string& value,
                  const std::string& source, std::size_t line) {
        for (const auto& [name, candidate] : names) {
            if (name == value) {
                access(s) = candidate;
                return;
            }
        }
        spec_fail(source, line, "key '" + key + "': expected one of " + type +
                                    ", got '" + value + "'");
    };
    return f;
}

/// churn.initial_active: a count, or `all` for the whole universe
/// (SIZE_MAX in the struct).
field size_or_all_field(std::string key) {
    constexpr std::size_t all = static_cast<std::size_t>(-1);
    field f;
    f.key = std::move(key);
    f.type = "integer or 'all'";
    f.print = [](const scenario_spec& s) {
        return s.churn.initial_active == all
                   ? std::string("all")
                   : std::to_string(s.churn.initial_active);
    };
    f.apply = [key = f.key](scenario_spec& s, const std::string& value,
                            const std::string& source, std::size_t line) {
        if (value == "all") {
            s.churn.initial_active = all;
            return;
        }
        s.churn.initial_active =
            parse_int_token<std::size_t>(key, value, source, line);
    };
    return f;
}

std::vector<field> build_fields() {
    using scenario::association_mode;
    using scenario::geometry_preset;
    using scenario::interference_kind;
    using scenario::traffic_kind;
    using ns::sim::phy_fidelity;
    using ns::sim::regroup_policy;

    std::vector<field> t;
    t.reserve(80);

    // Identity + Monte-Carlo width.
    t.push_back(string_field("name", NS_ACCESS(name)));
    t.push_back(string_field("description", NS_ACCESS(description)));
    t.push_back(int_field("replicas", NS_ACCESS(replicas), 1));

    // Geometry: preset + population + optional overrides (absent
    // optionals keep the preset's value and are omitted on output).
    t.push_back(enum_field(
        "geometry.preset", NS_ACCESS(geometry.preset),
        std::vector<std::pair<std::string, geometry_preset>>{
            {"office", geometry_preset::office},
            {"warehouse_aisle", geometry_preset::warehouse_aisle},
            {"open_field", geometry_preset::open_field}}));
    t.push_back(int_field("geometry.num_devices",
                          NS_ACCESS(geometry.num_devices), 1));
    t.push_back(opt_f64_field("geometry.floor_width_m",
                              NS_ACCESS(geometry.floor_width_m),
                              more_than(0.0)));
    t.push_back(opt_f64_field("geometry.floor_depth_m",
                              NS_ACCESS(geometry.floor_depth_m),
                              more_than(0.0)));
    t.push_back(opt_int_field("geometry.rooms_x", NS_ACCESS(geometry.rooms_x), 1));
    t.push_back(opt_int_field("geometry.rooms_y", NS_ACCESS(geometry.rooms_y), 1));
    t.push_back(
        opt_f64_field("geometry.ap_tx_dbm", NS_ACCESS(geometry.ap_tx_dbm)));
    t.push_back(opt_f64_field("geometry.pathloss_exponent",
                              NS_ACCESS(geometry.pathloss_exponent),
                              more_than(0.0)));
    t.push_back(opt_f64_field("geometry.wall_loss_db",
                              NS_ACCESS(geometry.wall_loss_db), at_least(0.0)));
    t.push_back(opt_f64_field("geometry.min_distance_m",
                              NS_ACCESS(geometry.min_distance_m),
                              at_least(0.0)));
    t.push_back(opt_f64_field("geometry.shadowing_sigma_db",
                              NS_ACCESS(geometry.shadowing_sigma_db),
                              at_least(0.0)));

    // Traffic model.
    t.push_back(enum_field(
        "traffic.kind", NS_ACCESS(traffic.kind),
        std::vector<std::pair<std::string, traffic_kind>>{
            {"saturated", traffic_kind::saturated},
            {"periodic", traffic_kind::periodic},
            {"poisson", traffic_kind::poisson},
            {"bursty", traffic_kind::bursty}}));
    t.push_back(
        f64_field("traffic.duty_cycle", NS_ACCESS(traffic.duty_cycle), unit()));
    t.push_back(int_field("traffic.period_rounds",
                          NS_ACCESS(traffic.period_rounds), 1));
    t.push_back(f64_field("traffic.arrivals_per_round",
                          NS_ACCESS(traffic.arrivals_per_round),
                          at_least(0.0)));
    t.push_back(f64_field("traffic.burst_probability",
                          NS_ACCESS(traffic.burst_probability), unit()));
    t.push_back(
        int_field("traffic.burst_length", NS_ACCESS(traffic.burst_length), 1));

    // Churn + association.
    t.push_back(f64_field("churn.join_rate_per_round",
                          NS_ACCESS(churn.join_rate_per_round), at_least(0.0)));
    t.push_back(f64_field("churn.leave_rate_per_round",
                          NS_ACCESS(churn.leave_rate_per_round),
                          at_least(0.0)));
    t.push_back(size_or_all_field("churn.initial_active"));
    t.push_back(int_field("churn.max_joins_per_round",
                          NS_ACCESS(churn.max_joins_per_round)));
    t.push_back(enum_field(
        "churn.association", NS_ACCESS(churn.association),
        std::vector<std::pair<std::string, association_mode>>{
            {"bounded_queue", association_mode::bounded_queue},
            {"slotted_aloha", association_mode::slotted_aloha}}));
    t.push_back(int_field("churn.aloha_initial_window",
                          NS_ACCESS(churn.aloha_initial_window), 1));
    t.push_back(int_field("churn.aloha_max_window",
                          NS_ACCESS(churn.aloha_max_window), 1));
    t.push_back(int_field("churn.association_grants_per_round",
                          NS_ACCESS(churn.association_grants_per_round), 1));

    // Mobility.
    t.push_back(f64_field("mobility.mobile_fraction",
                          NS_ACCESS(mobility.mobile_fraction), unit()));
    t.push_back(f64_field("mobility.speed_mps", NS_ACCESS(mobility.speed_mps),
                          at_least(0.0)));
    t.push_back(f64_field("mobility.round_period_s",
                          NS_ACCESS(mobility.round_period_s), more_than(0.0)));
    t.push_back(f64_field("mobility.carrier_hz", NS_ACCESS(mobility.carrier_hz),
                          more_than(0.0)));

    // In-band interference injectors.
    t.push_back(enum_field(
        "interference.kind", NS_ACCESS(interference.kind),
        std::vector<std::pair<std::string, interference_kind>>{
            {"none", interference_kind::none},
            {"periodic_tone", interference_kind::periodic_tone},
            {"bursty_tone", interference_kind::bursty_tone},
            {"lora_frame", interference_kind::lora_frame}}));
    t.push_back(
        f64_field("interference.snr_db", NS_ACCESS(interference.snr_db)));
    t.push_back(int_field("interference.period_rounds",
                          NS_ACCESS(interference.period_rounds), 1));
    t.push_back(f64_field("interference.burst_probability",
                          NS_ACCESS(interference.burst_probability), unit()));
    t.push_back(
        f64_field("interference.tone_hz", NS_ACCESS(interference.tone_hz)));

    // Co-channel NetScatter network.
    t.push_back(bool_field("cochannel.enabled", NS_ACCESS(cochannel.enabled)));
    t.push_back(
        int_field("cochannel.network_id", NS_ACCESS(cochannel.network_id)));
    t.push_back(int_field("cochannel.num_devices",
                          NS_ACCESS(cochannel.num_devices), 1));
    t.push_back(f64_field("cochannel.duty_cycle",
                          NS_ACCESS(cochannel.duty_cycle), unit()));
    t.push_back(int_field("cochannel.group_capacity",
                          NS_ACCESS(cochannel.group_capacity), 1));
    t.push_back(
        f64_field("cochannel.min_snr_db", NS_ACCESS(cochannel.min_snr_db)));
    t.push_back(
        f64_field("cochannel.max_snr_db", NS_ACCESS(cochannel.max_snr_db)));
    t.push_back(f64_field("cochannel.max_round_offset_s",
                          NS_ACCESS(cochannel.max_round_offset_s),
                          at_least(0.0)));
    t.push_back(f64_field("cochannel.carrier_offset_hz",
                          NS_ACCESS(cochannel.carrier_offset_hz),
                          at_least(0.0)));

    // Control-plane faults + recovery.
    t.push_back(
        f64_field("faults.query_loss", NS_ACCESS(faults.query_loss), unit()));
    t.push_back(f64_field("faults.query_loss_rssi_slope",
                          NS_ACCESS(faults.query_loss_rssi_slope),
                          at_least(0.0)));
    t.push_back(f64_field("faults.query_loss_ref_rssi_dbm",
                          NS_ACCESS(faults.query_loss_ref_rssi_dbm)));
    t.push_back(
        f64_field("faults.ack_loss", NS_ACCESS(faults.ack_loss), unit()));
    t.push_back(f64_field("faults.reboot_rate_per_round",
                          NS_ACCESS(faults.reboot_rate_per_round),
                          at_least(0.0)));
    t.push_back(f64_field("faults.blackout_probability",
                          NS_ACCESS(faults.blackout_probability), unit()));
    t.push_back(int_field("faults.blackout_rounds",
                          NS_ACCESS(faults.blackout_rounds)));
    t.push_back(
        int_field("faults.lease_rounds", NS_ACCESS(faults.lease_rounds)));
    t.push_back(int_field("faults.missed_query_limit",
                          NS_ACCESS(faults.missed_query_limit)));
    t.push_back(int_field("faults.ack_retry_limit",
                          NS_ACCESS(faults.ack_retry_limit)));

    // Simulator: PHY + frame.
    t.push_back(f64_field("sim.phy.bandwidth_hz", NS_ACCESS(sim.phy.bandwidth_hz),
                          more_than(0.0)));
    t.push_back(int_field("sim.phy.spreading_factor",
                          NS_ACCESS(sim.phy.spreading_factor), 1, 24));
    t.push_back(int_field("sim.frame.preamble_symbols",
                          NS_ACCESS(sim.frame.preamble_symbols), 1));
    t.push_back(int_field("sim.frame.payload_bits",
                          NS_ACCESS(sim.frame.payload_bits), 1));
    t.push_back(
        int_field("sim.frame.crc_bits", NS_ACCESS(sim.frame.crc_bits)));

    // Simulator: decoder + ablation switches.
    t.push_back(int_field("sim.skip", NS_ACCESS(sim.skip), 1));
    t.push_back(int_field("sim.zero_padding", NS_ACCESS(sim.zero_padding), 1));
    t.push_back(f64_field("sim.detection_factor",
                          NS_ACCESS(sim.detection_factor), more_than(0.0)));
    t.push_back(bool_field("sim.power_aware_allocation",
                           NS_ACCESS(sim.power_aware_allocation)));
    t.push_back(
        bool_field("sim.power_adaptation", NS_ACCESS(sim.power_adaptation)));
    t.push_back(bool_field("sim.model_timing_jitter",
                           NS_ACCESS(sim.model_timing_jitter)));
    t.push_back(bool_field("sim.model_cfo", NS_ACCESS(sim.model_cfo)));
    t.push_back(enum_field(
        "sim.fidelity", NS_ACCESS(sim.fidelity),
        std::vector<std::pair<std::string, phy_fidelity>>{
            {"sample", phy_fidelity::sample},
            {"symbol", phy_fidelity::symbol},
            {"auto", phy_fidelity::symbol}}));  // the older spelling
    t.push_back(int_field("sim.symbol_kernel_radius_bins",
                          NS_ACCESS(sim.symbol_kernel_radius_bins), 1));

    // Simulator: multipath + fading + identity.
    t.push_back(
        bool_field("sim.model_multipath", NS_ACCESS(sim.model_multipath)));
    t.push_back(f64_field("sim.multipath.delay_spread_s",
                          NS_ACCESS(sim.multipath.delay_spread_s),
                          more_than(0.0)));
    t.push_back(int_field("sim.multipath.num_taps",
                          NS_ACCESS(sim.multipath.num_taps), 0,
                          std::uint64_t{1} << 20));
    t.push_back(f64_field("sim.multipath.rician_k_db",
                          NS_ACCESS(sim.multipath.rician_k_db)));
    t.push_back(f64_field("sim.multipath_rho", NS_ACCESS(sim.multipath_rho),
                          unit_open_hi()));
    t.push_back(int_field("sim.network_id", NS_ACCESS(sim.network_id)));
    t.push_back(f64_field("sim.fading_sigma_db", NS_ACCESS(sim.fading_sigma_db),
                          at_least(0.0)));
    t.push_back(
        f64_field("sim.fading_rho", NS_ACCESS(sim.fading_rho), unit_open_hi()));

    // Simulator: §3.3.3 grouping.
    t.push_back(
        bool_field("sim.grouping.enabled", NS_ACCESS(sim.grouping.enabled)));
    t.push_back(int_field("sim.grouping.group_capacity",
                          NS_ACCESS(sim.grouping.group_capacity), 1));
    t.push_back(f64_field("sim.grouping.max_dynamic_range_db",
                          NS_ACCESS(sim.grouping.max_dynamic_range_db),
                          more_than(0.0)));
    t.push_back(enum_field(
        "sim.grouping.policy", NS_ACCESS(sim.grouping.policy),
        std::vector<std::pair<std::string, regroup_policy>>{
            {"none", regroup_policy::none},
            {"periodic", regroup_policy::periodic},
            {"load_triggered", regroup_policy::load_triggered}}));
    t.push_back(int_field("sim.grouping.regroup_period_rounds",
                          NS_ACCESS(sim.grouping.regroup_period_rounds), 1));
    t.push_back(int_field("sim.grouping.load_trigger_misfits",
                          NS_ACCESS(sim.grouping.load_trigger_misfits), 1));

    // Simulator: run length, seeding, intra-round fan-out.
    t.push_back(int_field("sim.rounds", NS_ACCESS(sim.rounds), 1));
    t.push_back(int_field("sim.seed", NS_ACCESS(sim.seed)));
    t.push_back(int_field("sim.intra_round_threads",
                          NS_ACCESS(sim.intra_round_threads), 1));

    // Simulator: hardware impairment models.
    t.push_back(f64_field("sim.delay_model.mean_us",
                          NS_ACCESS(sim.delay_model.mean_us), at_least(0.0)));
    t.push_back(f64_field("sim.delay_model.sigma_us",
                          NS_ACCESS(sim.delay_model.sigma_us), at_least(0.0)));
    t.push_back(f64_field("sim.delay_model.max_us",
                          NS_ACCESS(sim.delay_model.max_us), at_least(0.0)));
    t.push_back(f64_field("sim.crystal.tolerance_ppm",
                          NS_ACCESS(sim.crystal.tolerance_ppm),
                          at_least(0.0)));
    t.push_back(f64_field("sim.crystal.operating_frequency_hz",
                          NS_ACCESS(sim.crystal.operating_frequency_hz),
                          more_than(0.0)));
    t.push_back(f64_field("sim.crystal.drift_sigma_hz",
                          NS_ACCESS(sim.crystal.drift_sigma_hz),
                          at_least(0.0)));

    // Simulator: observability (trace/perf/trace_track stay CLI-owned —
    // see the header comment).
    t.push_back(bool_field("sim.obs.metrics", NS_ACCESS(sim.obs.metrics)));
    t.push_back(int_field("sim.obs.trace_max_events",
                          NS_ACCESS(sim.obs.trace_max_events), 1));
    t.push_back(int_field("sim.obs.alloc_warmup_rounds",
                          NS_ACCESS(sim.obs.alloc_warmup_rounds)));

    return t;
}

#undef NS_ACCESS

const std::vector<field>& fields() {
    static const std::vector<field> table = build_fields();
    return table;
}

const std::unordered_map<std::string, const field*>& field_map() {
    static const std::unordered_map<std::string, const field*> map = [] {
        std::unordered_map<std::string, const field*> m;
        for (const field& f : fields()) m.emplace(f.key, &f);
        return m;
    }();
    return map;
}

/// Group label of a key: the part before the first dot ("" for the
/// top-level identity keys). Serialization separates groups by one
/// blank line.
std::string_view group_of(const std::string& key) {
    const std::size_t dot = key.find('.');
    return dot == std::string::npos ? std::string_view{}
                                    : std::string_view(key).substr(0, dot);
}

}  // namespace

void validate_spec(const scenario::scenario_spec& spec,
                   const std::string& context) {
    if (spec.replicas < 1) {
        spec_fail(context, 0, "replicas must be >= 1");
    }
    if (spec.churn.aloha_max_window < spec.churn.aloha_initial_window) {
        spec_fail(context, 0,
                  "churn.aloha_max_window must be >= "
                  "churn.aloha_initial_window");
    }
    if (spec.cochannel.enabled &&
        spec.cochannel.min_snr_db > spec.cochannel.max_snr_db) {
        spec_fail(context, 0,
                  "cochannel.min_snr_db must be <= cochannel.max_snr_db");
    }
    try {
        spec.sim.validate();
        spec.faults.validate();
    } catch (const spec_error&) {
        throw;
    } catch (const std::exception& e) {
        spec_fail(context, 0, e.what());
    }
}

std::string serialize_spec(const scenario::scenario_spec& spec) {
    std::ostringstream out;
    out << "# NetScatter scenario spec (canonical form: netscatter_sim "
           "--dump-spec).\n"
        << "# Key schema: README.md \"Scenario specs & sweeps\" or "
           "netscatter_sweep --schema.\n";
    std::string_view current_group{"\n"};  // sentinel != any real group
    for (const field& f : fields()) {
        if (f.present && !f.present(spec)) continue;
        const std::string_view group = group_of(f.key);
        if (group != current_group) {
            out << "\n";
            current_group = group;
        }
        out << f.key << " = " << f.print(spec) << "\n";
    }
    return out.str();
}

scenario::scenario_spec parse_spec(const spec_doc& doc) {
    scenario::scenario_spec spec;
    const auto& map = field_map();
    std::unordered_map<std::string, std::size_t> seen;
    for (const spec_entry& entry : doc.entries) {
        const auto it = map.find(entry.key);
        if (it == map.end()) {
            spec_fail(doc.source, entry.line,
                      "unknown key '" + entry.key + "'");
        }
        const auto [seen_it, inserted] = seen.emplace(entry.key, entry.line);
        if (!inserted) {
            spec_fail(doc.source, entry.line,
                      "duplicate key '" + entry.key + "' (first set at line " +
                          std::to_string(seen_it->second) + ")");
        }
        it->second->apply(spec, entry.value, doc.source, entry.line);
    }
    validate_spec(spec, doc.source);
    return spec;
}

scenario::scenario_spec parse_spec_text_as_scenario(std::string_view text,
                                                    std::string source) {
    return parse_spec(parse_spec_text(text, std::move(source)));
}

scenario::scenario_spec load_spec_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw spec_error(path + ": cannot read spec file");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_spec_text_as_scenario(buffer.str(), path);
}

void apply_spec_override(scenario::scenario_spec& spec, const std::string& key,
                         const std::string& value,
                         const std::string& context) {
    const auto& map = field_map();
    const auto it = map.find(key);
    if (it == map.end()) {
        spec_fail(context, 0, "unknown key '" + key + "'");
    }
    it->second->apply(spec, value, context, 0);
}

const std::vector<field_info>& spec_schema() {
    static const std::vector<field_info> schema = [] {
        const scenario::scenario_spec defaults{};
        std::vector<field_info> rows;
        rows.reserve(fields().size());
        for (const field& f : fields()) {
            field_info info{f.key, f.type, f.domain, "(unset)"};
            if (!f.present || f.present(defaults)) {
                info.default_value = f.print(defaults);
            }
            rows.push_back(std::move(info));
        }
        return rows;
    }();
    return schema;
}

std::string spec_dir() {
    if (const char* env = std::getenv("NS_SPEC_DIR"); env && *env) return env;
#ifdef NS_SPEC_DIR_DEFAULT
    return NS_SPEC_DIR_DEFAULT;
#else
    return "specs";
#endif
}

}  // namespace ns::spec
