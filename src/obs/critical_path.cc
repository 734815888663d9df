#include "critical_path.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "obs/trace_recorder.hh"

namespace specfaas::obs {

void
SegmentBreakdown::add(const SegmentBreakdown& o)
{
    queueing += o.queueing;
    containerCreation += o.containerCreation;
    runtimeSetup += o.runtimeSetup;
    execution += o.execution;
    stallRead += o.stallRead;
    validation += o.validation;
    commitWait += o.commitWait;
}

double
WastedWork::wastedFraction() const
{
    const double total =
        static_cast<double>(usefulTicks) + static_cast<double>(wastedTicks);
    if (total <= 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(wastedTicks) / total;
}

namespace {

/** The integer value of @p a, or @p def when the arg is absent. */
std::int64_t
integerOr(const TraceArg* a, std::int64_t def)
{
    return a != nullptr ? a->integer() : def;
}

/** Everything observed about one function instance. */
struct InstRec
{
    std::uint64_t invocation = 0; ///< 0 = Begin not seen (dropped)
    std::string order;
    Tick lifeBegin = -1;
    Tick lifeEnd = -1;
    Tick execBegin = -1;
    Tick execEnd = -1;
    Tick containerCreation = 0;
    Tick runtimeSetup = 0;
    Tick execTicks = -1;
    bool squashed = false;
    std::string squashReason;
    Tick stallOpen = -1;
    std::vector<std::pair<Tick, Tick>> stalls;
};

/** Everything observed about one end-to-end invocation. */
struct InvRec
{
    std::string app;
    Tick submit = -1;
    Tick complete = -1;
    bool spec = false; ///< invoke came from the SpecFaaS engine
    /** order string -> latest commit ts. */
    std::map<std::string, Tick> commits;
    std::vector<std::uint64_t> instances;
};

/** One candidate interval of a committed instance. */
struct Interval
{
    Tick start;
    Tick end;
    int prio; ///< higher wins where intervals overlap
};

// Priorities: progress beats waiting, specific beats generic.
constexpr int kExecution = 6;
constexpr int kStallRead = 5;
constexpr int kRuntimeSetup = 4;
constexpr int kContainerCreation = 3;
constexpr int kQueueing = 2;
constexpr int kValidation = 1;

void
addInterval(std::vector<Interval>& out, Tick start, Tick end, int prio,
            Tick lo, Tick hi)
{
    start = std::max(start, lo);
    end = std::min(end, hi);
    if (start < end)
        out.push_back(Interval{start, end, prio});
}

Tick&
segmentFor(SegmentBreakdown& b, int prio)
{
    switch (prio) {
    case kExecution:
        return b.execution;
    case kStallRead:
        return b.stallRead;
    case kRuntimeSetup:
        return b.runtimeSetup;
    case kContainerCreation:
        return b.containerCreation;
    case kQueueing:
        return b.queueing;
    case kValidation:
        return b.validation;
    default:
        return b.commitWait;
    }
}

/**
 * The analysis, in one pass over the events @p forEach visits (oldest
 * first): forEach(visit) must call visit(const TraceEvent&) on each.
 */
template <typename ForEach>
CriticalPathReport
analyze(const ForEach& forEach)
{
    std::map<std::uint64_t, InstRec> insts;
    std::map<std::uint64_t, InvRec> invs;
    CriticalPathReport report;

    forEach([&](const TraceEvent& ev) {
        const bool isLifecycle =
            std::strcmp(ev.category, cat::kLifecycle) == 0;
        const bool isExec = std::strcmp(ev.category, cat::kExec) == 0;
        const bool isEngine =
            std::strcmp(ev.category, cat::kSpec) == 0 ||
            std::strcmp(ev.category, cat::kBaseline) == 0;
        const auto is = [&ev](const char* name) {
            return std::strcmp(ev.name, name) == 0;
        };

        if (isLifecycle) {
            if (ev.phase == Phase::Begin) {
                InstRec& r = insts[ev.tid];
                r.lifeBegin = ev.ts;
                r.invocation = static_cast<std::uint64_t>(
                    integerOr(ev.arg("invocation"), 0));
                if (const TraceArg* o = ev.arg("order"))
                    r.order = o->text();
                if (r.invocation != 0)
                    invs[r.invocation].instances.push_back(ev.tid);
            } else {
                // A span end (squashed or not), or completed but
                // uncommitted work discarded.
                InstRec& r = insts[ev.tid];
                const bool end = ev.phase == Phase::End;
                if (end)
                    r.lifeEnd = ev.ts;
                if (end ? integerOr(ev.arg("squashed"), 0) != 0
                        : is("squash-completed")) {
                    r.squashed = true;
                    if (const TraceArg* s = ev.arg("reason"))
                        r.squashReason = s->text();
                    r.execTicks =
                        integerOr(ev.arg("exec_ticks"), r.execTicks);
                }
            }
            return;
        }

        if (isExec) {
            if (is("stall-read")) {
                InstRec& r = insts[ev.tid];
                if (ev.phase == Phase::Begin) {
                    r.stallOpen = ev.ts;
                } else if (ev.phase == Phase::End &&
                           r.stallOpen >= 0) {
                    r.stalls.emplace_back(r.stallOpen, ev.ts);
                    r.stallOpen = -1;
                }
            } else if (ev.phase == Phase::Begin) {
                InstRec& r = insts[ev.tid];
                r.execBegin = ev.ts;
                r.containerCreation =
                    integerOr(ev.arg("container_creation"), 0);
                r.runtimeSetup = integerOr(ev.arg("runtime_setup"), 0);
            } else if (ev.phase == Phase::End) {
                InstRec& r = insts[ev.tid];
                r.execEnd = ev.ts;
                r.execTicks =
                    integerOr(ev.arg("exec_ticks"), r.execTicks);
            }
            return;
        }

        if (!isEngine || ev.phase != Phase::Instant)
            return;
        if (is("invoke")) {
            InvRec& inv = invs[ev.tid];
            inv.submit = ev.ts;
            inv.spec = std::strcmp(ev.category, cat::kSpec) == 0;
            if (const TraceArg* a = ev.arg("app"))
                inv.app = a->text();
        } else if (is("complete")) {
            invs[ev.tid].complete = ev.ts;
        } else if (is("reject")) {
            ++report.rejectedInvocations;
        } else if (is("commit")) {
            if (const TraceArg* o = ev.arg("order"))
                invs[ev.tid].commits[o->text()] = ev.ts;
        }
    });

    // Speculation efficiency over every observed instance, analyzed
    // invocation or not: wasted work is global to the run.
    WastedWork& ww = report.speculation;
    for (const auto& [tid, r] : insts) {
        (void)tid;
        if (r.squashed) {
            ++ww.squashedInstances;
            const Tick wasted = r.execTicks > 0 ? r.execTicks : 0;
            ww.wastedTicks += wasted;
            const std::string reason =
                r.squashReason.empty() ? "unknown" : r.squashReason;
            ww.wastedByReason[reason] += wasted;
            ++ww.squashesByReason[reason];
        } else if (r.execEnd >= 0 && r.execTicks > 0) {
            ++ww.committedInstances;
            ww.usefulTicks += r.execTicks;
        }
    }

    // Per-invocation critical-path decomposition.
    for (auto& [id, inv] : invs) {
        if (inv.submit < 0 && inv.complete < 0 &&
            inv.commits.empty() && inv.instances.empty()) {
            continue; // artifact of map access, nothing recorded
        }
        if (inv.submit < 0 || inv.complete < 0) {
            ++report.incompleteInvocations;
            continue;
        }

        std::vector<Interval> intervals;
        std::size_t committed = 0;
        bool incomplete = false;
        for (std::uint64_t tid : inv.instances) {
            const InstRec& r = insts.at(tid);
            if (r.squashed)
                continue; // wasted work, not on the commit path
            if (r.lifeEnd < 0 || r.execBegin < 0 || r.execEnd < 0) {
                incomplete = true; // span dropped from the ring
                break;
            }
            ++committed;
            const Tick rsStart = r.execBegin - r.runtimeSetup;
            const Tick ccStart = rsStart - r.containerCreation;
            addInterval(intervals, r.lifeBegin, ccStart, kQueueing,
                        inv.submit, inv.complete);
            addInterval(intervals, ccStart, rsStart,
                        kContainerCreation, inv.submit, inv.complete);
            addInterval(intervals, rsStart, r.execBegin,
                        kRuntimeSetup, inv.submit, inv.complete);
            // Execution minus this instance's own stall windows; the
            // windows themselves become stallRead intervals, which
            // execution by *another* instance may still cover.
            Tick cursor = r.execBegin;
            for (const auto& [s, e] : r.stalls) {
                addInterval(intervals, cursor, s, kExecution,
                            inv.submit, inv.complete);
                addInterval(intervals, s, e, kStallRead, inv.submit,
                            inv.complete);
                cursor = std::max(cursor, e);
            }
            addInterval(intervals, cursor, r.execEnd, kExecution,
                        inv.submit, inv.complete);
            // Completed -> commit decision (validation / ordering).
            Tick commitTs = r.lifeEnd;
            if (inv.spec) {
                auto cit = inv.commits.find(r.order);
                if (cit != inv.commits.end())
                    commitTs = cit->second;
            }
            addInterval(intervals, r.execEnd, commitTs, kValidation,
                        inv.submit, inv.complete);
        }
        if (incomplete) {
            ++report.incompleteInvocations;
            continue;
        }

        // Sweep the elementary intervals between boundary points; the
        // highest-priority covering interval labels each one, gaps
        // are commit/control-plane wait. The labels tile
        // [submit, complete] exactly, so the segments sum to the
        // measured end-to-end latency by construction.
        std::vector<Tick> bounds = {inv.submit, inv.complete};
        for (const Interval& iv : intervals) {
            bounds.push_back(iv.start);
            bounds.push_back(iv.end);
        }
        std::sort(bounds.begin(), bounds.end());
        bounds.erase(std::unique(bounds.begin(), bounds.end()),
                     bounds.end());

        InvocationPath path;
        path.id = id;
        path.app = inv.app;
        path.submittedAt = inv.submit;
        path.completedAt = inv.complete;
        path.committedInstances = committed;
        for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
            const Tick a = bounds[i];
            const Tick b = bounds[i + 1];
            int best = 0;
            for (const Interval& iv : intervals) {
                if (iv.start <= a && iv.end >= b)
                    best = std::max(best, iv.prio);
            }
            segmentFor(path.segments, best) += b - a;
        }

        report.totals.add(path.segments);
        AppPathSummary& app = report.perApp[path.app];
        ++app.invocations;
        app.totals.add(path.segments);
        report.invocations.push_back(std::move(path));
    }

    return report;
}

} // namespace

CriticalPathReport
analyzeTrace(const std::vector<TraceEvent>& events)
{
    return analyze([&events](const auto& visit) {
        for (const TraceEvent& ev : events)
            visit(ev);
    });
}

CriticalPathReport
analyzeTrace(const TraceRecorder& recorder)
{
    return analyze(
        [&recorder](const auto& visit) { recorder.forEach(visit); });
}

} // namespace specfaas::obs
