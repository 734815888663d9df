/**
 * @file
 * The function runtime: executes op programs on the simulated
 * cluster, forwarding every intercepted operation to the controller
 * through RuntimeHooks.
 *
 * Squash support: every asynchronous continuation captures the
 * instance epoch and re-checks it before acting, so killing a handler
 * mid-flight orphans its pending events harmlessly; the occupied core
 * is reclaimed through Node::abort per the active squash policy.
 */

#ifndef SPECFAAS_RUNTIME_INTERPRETER_HH
#define SPECFAAS_RUNTIME_INTERPRETER_HH

#include "fleet/fleet.hh"
#include "runtime/hooks.hh"
#include "runtime/instance.hh"
#include "sim/simulation.hh"

namespace specfaas::obs {
class Profiler;
class TraceRecorder;
}

namespace specfaas {

/** How to stop a mis-speculated handler (§VI "Minimizing Squash Cost"). */
enum class SquashPolicy {
    /** Let the handler finish in the background; discard results. */
    Lazy,
    /** Kill the whole container (~10 s, loses warm state). */
    ContainerKill,
    /** Kill only the handler process (~1 ms); container survives. */
    ProcessKill,
};

/** Latencies of purely local runtime operations. */
struct RuntimeCosts
{
    /** Local temp-file write (copy-on-write create + write). */
    Tick fileWrite = 80;
    /** Local temp-file read. */
    Tick fileRead = 40;
    /** External HTTP request round trip. */
    Tick httpRequest = msToTicks(3.0);
    /** Pure local computation step (SetVar). */
    Tick localStep = 5;
};

/** Executes function bodies for both baseline and SpecFaaS runs. */
class Interpreter
{
  public:
    /**
     * @param sim simulation context
     * @param fleet the worker nodes (cores) and container pool
     * @param hooks controller-side interception handlers
     */
    Interpreter(Simulation& sim, Fleet& fleet, RuntimeHooks& hooks);

    /** Begin executing @p inst's body from pc = 0. */
    void start(const InstancePtr& inst);

    /**
     * Squash: stop all activity of @p inst according to @p policy and
     * mark it Dead. With Lazy the busy core keeps burning until the
     * natural end of the current burst.
     */
    void squash(const InstancePtr& inst, SquashPolicy policy);

    /** Local-op latencies in effect. */
    const RuntimeCosts& costs() const { return costs_; }

    /** Mutable access so experiments can recalibrate. */
    RuntimeCosts& costs() { return costs_; }

    /** Controller hooks (the launcher reports cold-start crashes). */
    RuntimeHooks& hooks() { return hooks_; }

  private:
    void step(const InstancePtr& inst);
    void execOp(const InstancePtr& inst, const Op& op);
    void advance(const InstancePtr& inst);

    /** True when a callback belongs to the live incarnation. */
    static bool
    fresh(const InstancePtr& inst, std::uint64_t epoch)
    {
        return inst->epoch == epoch && inst->state != InstanceState::Dead;
    }

    Simulation& sim_;
    Fleet& fleet_;
    RuntimeHooks& hooks_;
    RuntimeCosts costs_;
    /**
     * Observability sinks hoisted out of the hot loops: resolved once
     * from sim.context() at construction, so every op-dispatch call
     * site pays a single member load plus one predictable enabled()
     * branch instead of re-chasing context pointers per op.
     */
    obs::TraceRecorder& trace_;
    obs::Profiler& profiler_;
};

} // namespace specfaas

#endif // SPECFAAS_RUNTIME_INTERPRETER_HH
