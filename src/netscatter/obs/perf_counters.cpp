#include "netscatter/obs/perf_counters.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#define NS_PERF_HAVE_LINUX 1
#else
#define NS_PERF_HAVE_LINUX 0
#endif

namespace ns::obs {

namespace {

#if NS_PERF_HAVE_LINUX

long perf_event_open_syscall(perf_event_attr* attr, pid_t pid, int cpu,
                             int group_fd, unsigned long flags) {
    return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

perf_event_attr make_attr(std::uint32_t type, std::uint64_t config) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.disabled = 1;
    // Count user space only: works under kernel.perf_event_paranoid=2
    // (the common container default) and keeps the numbers about our
    // code rather than interrupt handlers.
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    return attr;
}

constexpr std::uint64_t hw_cache_config(std::uint64_t cache, std::uint64_t op,
                                        std::uint64_t result) {
    return cache | (op << 8) | (result << 16);
}

#endif  // NS_PERF_HAVE_LINUX

}  // namespace

bool perf_counter_group::open() {
    close();
    const char* disabled = std::getenv("NS_PERF_DISABLE");
    if (disabled != nullptr && disabled[0] != '\0' && disabled[0] != '0') {
        return false;
    }
#if NS_PERF_HAVE_LINUX
    // Event order matches perf_readings field order. The leader (index
    // 0, cycles) must open or the whole group is unavailable; siblings
    // are best-effort — a missing PMU event just reads zero.
    struct event_spec {
        std::uint32_t type;
        std::uint64_t config;
        std::uint64_t fallback_config;
        bool has_fallback;
    };
    const event_spec specs[num_events] = {
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, 0, false},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, 0, false},
        // Last-level-cache reads; VMs often lack the HW_CACHE PMU
        // mapping, so fall back to the generic reference/miss events.
        {PERF_TYPE_HW_CACHE,
         hw_cache_config(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                         PERF_COUNT_HW_CACHE_RESULT_ACCESS),
         PERF_COUNT_HW_CACHE_REFERENCES, true},
        {PERF_TYPE_HW_CACHE,
         hw_cache_config(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                         PERF_COUNT_HW_CACHE_RESULT_MISS),
         PERF_COUNT_HW_CACHE_MISSES, true},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, 0, false},
    };
    for (std::size_t i = 0; i < num_events; ++i) {
        const int group_fd = (i == 0) ? -1 : fds_[0];
        perf_event_attr attr = make_attr(specs[i].type, specs[i].config);
        int fd = static_cast<int>(
            perf_event_open_syscall(&attr, /*pid=*/0, /*cpu=*/-1, group_fd,
                                    PERF_FLAG_FD_CLOEXEC));
        if (fd < 0 && specs[i].has_fallback) {
            attr = make_attr(PERF_TYPE_HARDWARE, specs[i].fallback_config);
            fd = static_cast<int>(
                perf_event_open_syscall(&attr, 0, -1, group_fd,
                                        PERF_FLAG_FD_CLOEXEC));
        }
        if (fd < 0) {
            if (i == 0) {
                return false;  // no leader, no group
            }
            continue;  // sibling missing: reads stay zero
        }
        fds_[i] = fd;
        std::uint64_t id = 0;
        if (ioctl(fd, PERF_EVENT_IOC_ID, &id) == 0) {
            ids_[i] = id;
        } else {
            ::close(fd);
            fds_[i] = -1;
            if (i == 0) {
                close();
                return false;
            }
        }
    }
    if (ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
        ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
        close();
        return false;
    }
    available_ = true;
    return true;
#else
    return false;
#endif
}

void perf_counter_group::close() {
#if NS_PERF_HAVE_LINUX
    for (std::size_t i = 0; i < num_events; ++i) {
        if (fds_[i] >= 0) {
            ::close(fds_[i]);
        }
        fds_[i] = -1;
        ids_[i] = 0;
    }
#endif
    available_ = false;
}

perf_readings perf_counter_group::read() const {
    perf_readings out;
#if NS_PERF_HAVE_LINUX
    if (!available_) {
        return out;
    }
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
    // then {value, id} per event. Sized for the full group plus
    // slack in case the kernel reports extra events.
    struct {
        std::uint64_t nr;
        std::uint64_t time_enabled;
        std::uint64_t time_running;
        struct {
            std::uint64_t value;
            std::uint64_t id;
        } values[num_events + 2];
    } data;
    const ssize_t got = ::read(fds_[0], &data, sizeof(data));
    if (got < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) {
        return out;
    }
    // Multiplex scaling: with more events than hardware counters the
    // kernel time-slices the group; scale by enabled/running to
    // estimate full-interval counts (the standard perf(1) correction).
    double scale = 1.0;
    if (data.time_running > 0 && data.time_enabled > data.time_running) {
        scale = static_cast<double>(data.time_enabled) /
                static_cast<double>(data.time_running);
    }
    std::uint64_t* fields[num_events] = {&out.cycles, &out.instructions,
                                         &out.llc_loads, &out.llc_misses,
                                         &out.branch_misses};
    const std::uint64_t nr =
        data.nr < num_events + 2 ? data.nr : num_events + 2;
    for (std::uint64_t v = 0; v < nr; ++v) {
        for (std::size_t i = 0; i < num_events; ++i) {
            if (fds_[i] >= 0 && ids_[i] == data.values[v].id) {
                *fields[i] = static_cast<std::uint64_t>(
                    static_cast<double>(data.values[v].value) * scale);
                break;
            }
        }
    }
#endif
    return out;
}

perf_phase_counters perf_phase_counters::from_registry(
    metrics_registry& registry, std::string_view phase) {
    const std::string prefix = "perf." + std::string(phase);
    perf_phase_counters out;
    constexpr origin host = origin::host;
    out.cycles = registry.get_counter(prefix + ".cycles", host);
    out.instructions = registry.get_counter(prefix + ".instructions", host);
    out.llc_loads = registry.get_counter(prefix + ".llc_loads", host);
    out.llc_misses = registry.get_counter(prefix + ".llc_misses", host);
    out.branch_misses = registry.get_counter(prefix + ".branch_misses", host);
    return out;
}

perf_scope::~perf_scope() {
    if (group_ == nullptr) {
        return;
    }
    const perf_readings end = group_->read();
    // Saturating deltas: multiplex scaling estimates can regress a
    // hair between reads; clamp instead of wrapping to 2^64.
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return b > a ? b - a : 0;
    };
    dest_->cycles->add(delta(start_.cycles, end.cycles));
    dest_->instructions->add(delta(start_.instructions, end.instructions));
    dest_->llc_loads->add(delta(start_.llc_loads, end.llc_loads));
    dest_->llc_misses->add(delta(start_.llc_misses, end.llc_misses));
    dest_->branch_misses->add(delta(start_.branch_misses, end.branch_misses));
}

process_usage current_process_usage() {
    process_usage out;
#if NS_PERF_HAVE_LINUX
    rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
        // ru_maxrss is kilobytes on Linux.
        out.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
        out.minor_page_faults = static_cast<std::uint64_t>(ru.ru_minflt);
        out.major_page_faults = static_cast<std::uint64_t>(ru.ru_majflt);
        out.voluntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
        out.involuntary_ctx_switches =
            static_cast<std::uint64_t>(ru.ru_nivcsw);
    }
#endif
    return out;
}

}  // namespace ns::obs
