/**
 * @file
 * Trace-driven latency decomposition and wasted-work attribution.
 *
 * analyzeTrace() replays a recorded event stream (the same events the
 * Chrome trace export writes) and, per end-to-end invocation, tiles
 * the interval [submit, complete] into exclusive segments:
 *
 *   queueing            launch accepted, waiting for a container slot
 *   containerCreation   cold-start container creation (Fig. 3)
 *   runtimeSetup        language runtime boot inside the container
 *   execution           handler bodies running on worker cores
 *   stallRead           parked by the squash minimizer (§V-C)
 *   validation          completed, waiting for input validation/commit
 *   commitWait          no committed instance active (control-plane
 *                       gaps: conductor hops, commit ordering, wire)
 *
 * Overlapping activity (parallel fan-out stages) is resolved by
 * priority — execution wins over its own overheads, overheads win
 * over queueing — so the segments of one invocation always sum
 * exactly to its measured end-to-end latency.
 *
 * The same pass attributes *wasted* speculative work: execution ticks
 * of squashed instances, grouped by squash reason. This extends the
 * paper's Fig. 12 squash counts to time actually burned.
 */

#ifndef SPECFAAS_OBS_CRITICAL_PATH_HH
#define SPECFAAS_OBS_CRITICAL_PATH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/trace_event.hh"

namespace specfaas::obs {

class TraceRecorder;

/** Exclusive per-invocation time segments, in Ticks. */
struct SegmentBreakdown
{
    Tick queueing = 0;
    Tick containerCreation = 0;
    Tick runtimeSetup = 0;
    Tick execution = 0;
    Tick stallRead = 0;
    Tick validation = 0;
    Tick commitWait = 0;

    Tick total() const
    {
        return queueing + containerCreation + runtimeSetup + execution +
               stallRead + validation + commitWait;
    }

    void add(const SegmentBreakdown& o);
};

/** One analyzed end-to-end invocation. */
struct InvocationPath
{
    InvocationId id = 0;
    std::string app;
    Tick submittedAt = 0;
    Tick completedAt = 0;
    SegmentBreakdown segments;
    std::size_t committedInstances = 0;

    Tick latency() const { return completedAt - submittedAt; }
};

/** Useful vs squashed execution time (speculation efficiency). */
struct WastedWork
{
    /** Execution ticks of instances that committed. */
    Tick usefulTicks = 0;
    /** Execution ticks of instances that were squashed. */
    Tick wastedTicks = 0;
    std::uint64_t committedInstances = 0;
    std::uint64_t squashedInstances = 0;

    /** Wasted ticks / squash count per SquashReason name. */
    std::map<std::string, Tick> wastedByReason;
    std::map<std::string, std::uint64_t> squashesByReason;

    /** Fraction of all execution ticks that was wasted; NaN if none. */
    double wastedFraction() const;
};

/** Per-application aggregate of InvocationPath segments. */
struct AppPathSummary
{
    std::size_t invocations = 0;
    SegmentBreakdown totals; ///< summed over the app's invocations
};

/** Everything analyzeTrace() extracts from one recorded run. */
struct CriticalPathReport
{
    std::vector<InvocationPath> invocations;
    /** Segment sums over all analyzed invocations. */
    SegmentBreakdown totals;
    std::map<std::string, AppPathSummary> perApp;
    WastedWork speculation;

    /** Requests rejected at admission (not analyzed). */
    std::uint64_t rejectedInvocations = 0;
    /**
     * Invocations skipped because their events were incomplete
     * (typically overwritten in the ring buffer).
     */
    std::uint64_t incompleteInvocations = 0;
};

/**
 * Analyze a recorded event stream (TraceRecorder::snapshot() order:
 * oldest first). Tolerates truncated streams: invocations whose
 * events were partially dropped are counted, not analyzed.
 */
CriticalPathReport analyzeTrace(const std::vector<TraceEvent>& events);

/** The same analysis read straight from @p recorder's ring (no copy). */
CriticalPathReport analyzeTrace(const TraceRecorder& recorder);

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_CRITICAL_PATH_HH
