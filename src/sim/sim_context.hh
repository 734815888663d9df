/**
 * @file
 * Per-simulation mutable state: invocation/instance id sources, the
 * trace recorder, the counter registry and the zone profiler.
 *
 * Historically every engine layer recorded into process-global
 * singletons (a global trace recorder, counter registry and id
 * sources). That is fine for a binary that runs exactly one
 * simulation, but any harness running several simulations in one
 * process — a load sweep, the 520-case chaos suite, fuzz_chaos —
 * silently leaked ids, counters and trace state from one run into the
 * next, and could never execute independent runs concurrently.
 *
 * SimContext owns all of that state for one simulation. A Simulation
 * is constructed against one context (the process-global
 * defaultSimContext() by omission, so single-simulation binaries are
 * unchanged), and every component that already holds the Simulation
 * reaches observability through Simulation::context().
 *
 * Parallel sweeps give each task a private context created with
 * forTask(): observability configuration (trace enablement/capacity,
 * profiler enablement) is mirrored from the session context, and ids
 * are drawn from a task-indexed block so traces merged from many
 * tasks keep globally unique join keys. After all tasks complete,
 * runSimTasks() merges every context into the session context in
 * submission order. Each task is single-threaded and deterministic
 * and the merge order is fixed, so the combined artifacts — trace,
 * counters, profile, JSON report — are byte-identical regardless of
 * worker-thread count.
 */

#ifndef SPECFAAS_SIM_SIM_CONTEXT_HH
#define SPECFAAS_SIM_SIM_CONTEXT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/parallel.hh"
#include "common/types.hh"
#include "obs/counter_registry.hh"
#include "obs/profiler.hh"
#include "obs/trace_recorder.hh"

namespace specfaas {

/** All mutable cross-component state of one simulation. */
class SimContext
{
  public:
    /** Bits reserved for ids inside one task's block. */
    static constexpr unsigned kTaskIdBits = 32;

    SimContext() = default;

    SimContext(const SimContext&) = delete;
    SimContext& operator=(const SimContext&) = delete;

    /** @{ Observability sinks of this simulation. */
    obs::TraceRecorder& trace() { return trace_; }
    const obs::TraceRecorder& trace() const { return trace_; }
    obs::CounterRegistry& counters() { return counters_; }
    const obs::CounterRegistry& counters() const { return counters_; }
    obs::Profiler& profiler() { return profiler_; }
    const obs::Profiler& profiler() const { return profiler_; }
    /** @} */

    /** Next invocation id, unique within this context's id block. */
    InvocationId nextInvocationId()
    {
        return idBase_ + ++invocationSeq_;
    }

    /** Next function-instance id within this context's id block. */
    InstanceId nextInstanceId() { return idBase_ + ++instanceSeq_; }

    /**
     * First id of this context's block minus one; ids run upward from
     * idBase()+1. The default context uses base 0; task contexts use
     * (taskIndex + 1) << kTaskIdBits so their ids never collide with
     * the session's or each other's in a merged trace.
     */
    std::uint64_t idBase() const { return idBase_; }
    void setIdBase(std::uint64_t base)
    {
        idBase_ = base;
        resetIds();
    }

    /** Restart both id sequences at idBase() + 1. */
    void resetIds()
    {
        invocationSeq_ = 0;
        instanceSeq_ = 0;
    }

    /**
     * Reset everything: ids restart, counters and the profile are
     * dropped, the trace ring and the profiler are disabled and
     * cleared. Test fixtures use this on the default context to
     * isolate determinism checks from earlier tests in the process.
     */
    void reset();

    /**
     * Fresh context for task number @p taskIndex of a parallel batch:
     * observability configuration is mirrored from @p session (trace
     * enabled with the same capacity iff the session traces, profiler
     * enabled iff the session profiles), everything else starts
     * empty, and ids come from the task's private block.
     */
    static std::unique_ptr<SimContext>
    forTask(const SimContext& session, std::uint64_t taskIndex);

    /**
     * Merge this context's recorded state into @p dst: trace events
     * are appended in recording order (dropped counts carry over),
     * counters and profiler zones accumulate. Calling this for a
     * batch of task contexts in submission order reproduces exactly
     * the state a serial run on @p dst would have produced.
     */
    void mergeInto(SimContext& dst) const;

  private:
    obs::TraceRecorder trace_;
    obs::CounterRegistry counters_;
    obs::Profiler profiler_;
    std::uint64_t idBase_ = 0;
    std::uint64_t invocationSeq_ = 0;
    std::uint64_t instanceSeq_ = 0;
};

/**
 * The process-global default context. Simulations constructed without
 * an explicit context record here; ObsSession configures and flushes
 * it. Code that has no Simulation at hand (tests, single-run tools)
 * reaches its state through this one accessor.
 */
SimContext& defaultSimContext();

/**
 * Run independent simulation tasks on @p jobs worker threads. Each
 * task executes against a private SimContext forked from @p session
 * (defaultSimContext() when null) with forTask(); once every task has
 * finished, the contexts are merged into the session context in
 * submission order. Results are returned in submission order as well,
 * so output assembled from them — and every merged artifact — is
 * byte-identical for any job count. Exceptions propagate per
 * runParallel(); nothing is merged if a task throws.
 */
template <typename R>
std::vector<R>
runSimTasks(std::size_t jobs,
            std::vector<std::function<R(SimContext&)>> tasks,
            SimContext* session = nullptr)
{
    SimContext& root =
        session != nullptr ? *session : defaultSimContext();
    std::vector<std::unique_ptr<SimContext>> contexts;
    contexts.reserve(tasks.size());
    std::vector<std::function<R()>> fns;
    fns.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        contexts.push_back(SimContext::forTask(root, i));
        fns.push_back([&tasks, &contexts, i]() {
            return tasks[i](*contexts[i]);
        });
    }
    std::vector<R> results = mapParallel<R>(jobs, std::move(fns));
    for (const auto& context : contexts)
        context->mergeInto(root);
    return results;
}

} // namespace specfaas

#endif // SPECFAAS_SIM_SIM_CONTEXT_HH
