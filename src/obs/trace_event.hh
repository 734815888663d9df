/**
 * @file
 * Typed trace events of the observability layer.
 *
 * Every interesting moment of a run — dispatch, branch prediction,
 * speculative launch, memo hit, Data Buffer forward, validation,
 * commit, squash, container cold-start — is recorded as one TraceEvent
 * stamped with the simulated-tick clock. The taxonomy intentionally
 * mirrors the Chrome trace_event format so exporting is a straight
 * mapping: spans are Begin/End pairs, point events are Instants, and
 * the (pid, tid) pair places an event on a track (one pid per node,
 * one tid per container/invocation/instance).
 */

#ifndef SPECFAAS_OBS_TRACE_EVENT_HH
#define SPECFAAS_OBS_TRACE_EVENT_HH

#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hh"

namespace specfaas::obs {

/** Chrome trace_event phase of one event. */
enum class Phase : char {
    Begin = 'B',   ///< span start (paired with End on the same track)
    End = 'E',     ///< span end
    Instant = 'i', ///< point event
};

/** Well-known event categories (static strings, no allocation). */
namespace cat {
inline constexpr const char* kPlatform = "platform";
inline constexpr const char* kLifecycle = "lifecycle";
inline constexpr const char* kExec = "exec";
inline constexpr const char* kContainer = "container";
inline constexpr const char* kStorage = "storage";
inline constexpr const char* kSpec = "spec";
inline constexpr const char* kBaseline = "baseline";
inline constexpr const char* kFault = "fault";
inline constexpr const char* kFleet = "fleet";
} // namespace cat

/**
 * Track ids. pid 0 is the control plane (controller/front-end); worker
 * node n is pid n+1. tids are instance ids for function work,
 * invocation ids for controller decisions, and container ids offset by
 * kContainerTidBase for container provisioning.
 */
inline constexpr std::uint64_t kControlPlanePid = 0;
inline constexpr std::uint64_t kContainerTidBase = 1'000'000'000ull;

inline constexpr std::uint64_t
nodePid(std::uint32_t node)
{
    return static_cast<std::uint64_t>(node) + 1;
}

/**
 * One key/value annotation attached to an event. The key is a static
 * string; the value is an integer, a real or text, chosen by the
 * constructor, and only the exporter decides how it is rendered.
 */
struct TraceArg
{
    const char* key;
    std::variant<std::int64_t, double, std::string> value;

    /** Any integral value (ids, counts, ticks, flags). */
    TraceArg(const char* k, std::integral auto v)
        : key(k), value(static_cast<std::int64_t>(v))
    {}
    TraceArg(const char* k, double v) : key(k), value(v) {}
    TraceArg(const char* k, std::string v) : key(k), value(std::move(v)) {}
    TraceArg(const char* k, const char* v) : key(k), value(std::string(v)) {}

    std::int64_t integer() const { return std::get<std::int64_t>(value); }
    const std::string& text() const { return std::get<std::string>(value); }
};

/** One recorded event. */
struct TraceEvent
{
    Phase phase = Phase::Instant;
    const char* category = cat::kPlatform;
    /** Static string: a literal or an interned Symbol's name. */
    const char* name = "";
    /** Simulated time, in Ticks (µs) — maps directly to trace "ts". */
    Tick ts = 0;
    std::uint64_t pid = kControlPlanePid;
    std::uint64_t tid = 0;
    std::vector<TraceArg> args;

    /** The argument named @p key, or null. */
    const TraceArg*
    arg(const char* key) const
    {
        for (const TraceArg& a : args)
            if (std::strcmp(a.key, key) == 0)
                return &a;
        return nullptr;
    }
};

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_TRACE_EVENT_HH
