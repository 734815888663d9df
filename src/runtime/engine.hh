/**
 * @file
 * Common interface of workflow execution engines.
 *
 * Two engines implement it: the baseline conventional controller
 * (conductor-driven, strictly in-order) and the SpecFaaS speculative
 * controller. Experiment drivers and the load generator only see this
 * interface, so every benchmark runs identically against both.
 */

#ifndef SPECFAAS_RUNTIME_ENGINE_HH
#define SPECFAAS_RUNTIME_ENGINE_HH

#include <cstddef>
#include <string>

#include "common/inline_function.hh"
#include "common/types.hh"
#include "common/value.hh"
#include "workflow/workflow.hh"

namespace specfaas {

struct InvocationResult;

/** Completion callback for one end-to-end request. */
using ResultCallback = InlineFunction<void(InvocationResult), 72>;

/** Outcome and accounting of one end-to-end application request. */
struct InvocationResult
{
    InvocationId id = 0;
    std::string app;
    Tick submittedAt = 0;
    Tick completedAt = 0;

    /** Client-visible response payload. */
    Value response;

    /**
     * True when the platform rejected the request at admission
     * (control-plane overload, like OpenWhisk's 429 responses). No
     * functions executed; the response is null.
     */
    bool rejected = false;

    /** @{ Fig. 3 time categories, summed across all functions. */
    Tick containerCreation = 0;
    Tick runtimeSetup = 0;
    Tick platformOverhead = 0;
    Tick transferOverhead = 0;
    Tick execution = 0;
    /** @} */

    /** Dynamic function executions that committed. */
    std::uint32_t functionsExecuted = 0;

    /** Functions launched speculatively (SpecFaaS only). */
    std::uint32_t speculativeLaunches = 0;

    /** Squash operations performed (SpecFaaS only). */
    std::uint32_t squashes = 0;

    /** Memoization-table hits used to feed successors early. */
    std::uint32_t memoHits = 0;

    /** End-to-end response time. */
    Tick responseTime() const { return completedAt - submittedAt; }

    /** Sequence of committed functions, in program order. */
    std::vector<std::string> executedSequence;
};

/** Asynchronous invocation interface shared by both engines. */
class WorkflowEngine
{
  public:
    virtual ~WorkflowEngine() = default;

    /**
     * Submit one request for @p app with payload @p input. @p done
     * fires when the response is produced. Multiple invocations may
     * be in flight concurrently.
     */
    virtual void invoke(const Application& app, Value input,
                        ResultCallback done) = 0;

    /** Engine name for reports. */
    virtual std::string name() const = 0;

    /** Requests in flight right now. */
    virtual std::size_t liveInvocations() const = 0;

    /**
     * Worker node @p node just failed: crash every live handler on it
     * so the per-invocation retry machinery re-executes the work
     * elsewhere. Default no-op (fault injection disabled).
     */
    virtual void onNodeFailure(NodeId node) { (void)node; }
};

} // namespace specfaas

#endif // SPECFAAS_RUNTIME_ENGINE_HH
