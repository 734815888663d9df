#include "obs_cli.hh"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "obs/critical_path.hh"
#include "obs/trace_export.hh"
#include "sim/sim_context.hh"

namespace specfaas::obs {

namespace {

/** Value of a "--flag=value" argument, or nullptr. */
const char*
flagValue(const char* arg, const char* flag)
{
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=')
        return nullptr;
    return arg + n + 1;
}

/**
 * The whole of @p v as a decimal integer >= @p min. Anything else —
 * empty, below @p min, out of range, or with trailing text ("12abc")
 * — is fatal: a run must not quietly fall back to a default.
 */
std::int64_t
integerFlag(const char* flag, const char* v, std::int64_t min)
{
    std::int64_t n = 0;
    const char* end = v + std::strlen(v);
    const auto [p, ec] = std::from_chars(v, end, n);
    if (ec != std::errc() || p != end || n < min) {
        fatal("invalid %s value: '%s' (want an integer >= %lld)", flag,
              v, static_cast<long long>(min));
    }
    return n;
}

/** Bench name from argv[0]: basename without a "bench_" prefix. */
std::string
benchNameFromArgv0(const char* argv0)
{
    std::string name = argv0 != nullptr ? argv0 : "";
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    if (name.rfind("bench_", 0) == 0)
        name = name.substr(6);
    return name;
}

} // namespace

ObsSession::ObsSession(int& argc, char** argv)
{
    std::size_t capacity = TraceRecorder::kDefaultCapacity;
    int out = 1; // argv[0] always stays
    for (int i = 1; i < argc; ++i) {
        if (const char* v = flagValue(argv[i], "--trace-out")) {
            traceOut_ = v;
            continue;
        }
        if (const char* v = flagValue(argv[i], "--trace-capacity")) {
            capacity = static_cast<std::size_t>(
                integerFlag("--trace-capacity", v, 1));
            continue;
        }
        if (const char* v = flagValue(argv[i], "--json-out")) {
            jsonOut_ = v;
            continue;
        }
        if (const char* v = flagValue(argv[i], "--profile-out")) {
            profileOut_ = v;
            profile_ = true;
            continue;
        }
        if (const char* v = flagValue(argv[i], "--profile-value")) {
            if (std::strcmp(v, "visits") == 0) {
                profileValue_ = Profiler::FoldedValue::Visits;
            } else if (std::strcmp(v, "wall") == 0) {
                profileValue_ = Profiler::FoldedValue::WallNs;
            } else if (std::strcmp(v, "allocs") == 0) {
                profileValue_ = Profiler::FoldedValue::Allocs;
            } else {
                fatal("invalid --profile-value value: '%s' (want "
                      "visits, wall or allocs)",
                      v);
            }
            continue;
        }
        if (std::strcmp(argv[i], "--profile") == 0) {
            profile_ = true;
            continue;
        }
        if (std::strcmp(argv[i], "--counters") == 0) {
            printCounters_ = true;
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;

    report_.setBenchName(benchNameFromArgv0(argv[0]));

    // The report's critical-path section reads the trace, so
    // --json-out implies tracing.
    if (!traceOut_.empty() || !jsonOut_.empty())
        context().trace().enable(capacity);
    if (profile_)
        context().profiler().enable();
}

SimContext&
ObsSession::context() const
{
    return defaultSimContext();
}

ObsSession::~ObsSession()
{
    TraceRecorder& tr = context().trace();
    tr.disable();
    if (!traceOut_.empty()) {
        if (writeChromeTrace(tr, traceOut_)) {
            std::printf("\ntrace: %zu events -> %s", tr.size(),
                        traceOut_.c_str());
            if (tr.dropped() > 0)
                std::printf(" (%llu oldest dropped)",
                            static_cast<unsigned long long>(
                                tr.dropped()));
            std::printf("\n");
        } else {
            std::fprintf(stderr, "trace: failed to write %s\n",
                         traceOut_.c_str());
        }
    }
    Profiler& prof = context().profiler();
    if (!jsonOut_.empty()) {
        report_.addSection("counters",
                           counterSnapshotValue(context().counters()));
        if (profile_) {
            // Deterministic zone data only (visits and counts):
            // wall time and allocations are host-dependent and would
            // break report byte-identity.
            ValueArray zones;
            for (const Profiler::ZoneRow& z : prof.zoneRows()) {
                zones.push_back(Value::object(
                    {{"name", Value(z.name)},
                     {"visits", Value(static_cast<std::int64_t>(
                                    z.visits))},
                     {"count", Value(static_cast<std::int64_t>(
                                   z.count))}}));
            }
            report_.addSection(
                "profile",
                Value::object({{"zones", Value(std::move(zones))}}));
        }
        report_.addSection("critical_path",
                           toValue(analyzeTrace(tr)));
        report_.addSection(
            "trace",
            Value::object({{"events", Value(static_cast<std::int64_t>(
                                          tr.size()))},
                           {"dropped",
                            Value(static_cast<std::int64_t>(
                                tr.dropped()))}}));

        if (report_.writeFile(jsonOut_)) {
            std::printf("\nreport: -> %s", jsonOut_.c_str());
            // The critical path is analyzed from the ring, so a
            // wrapped ring leaves it covering the newest events only.
            if (tr.dropped() > 0)
                std::printf(" (%llu oldest dropped: critical_path "
                            "covers the newest events only; raise "
                            "--trace-capacity)",
                            static_cast<unsigned long long>(
                                tr.dropped()));
            std::printf("\n");
        } else {
            std::fprintf(stderr, "report: failed to write %s\n",
                         jsonOut_.c_str());
        }
    }
    if (!profileOut_.empty()) {
        if (writeFoldedProfile(prof, profileOut_, profileValue_)) {
            std::printf("\nprofile: folded -> %s\n",
                        profileOut_.c_str());
        } else {
            std::fprintf(stderr, "profile: failed to write %s\n",
                         profileOut_.c_str());
        }
    }
    if (profile_) {
        std::printf("\n-- profile (self wall time) --\n%s",
                    profileTable(prof).c_str());
    }
    if (printCounters_) {
        std::printf("\n-- counters --\n");
        context().counters().printTable();
    }
}

} // namespace specfaas::obs
