/**
 * @file
 * Shared function-launch mechanics.
 *
 * Launching a function involves platform communication (front-end /
 * controller / worker messages — or the Sequence-Table fast path
 * under SpecFaaS), container acquisition (warm fork or cold start),
 * and handing the instance to the interpreter. Both controllers go
 * through Launcher so the Fig. 3 timing categories are recorded
 * uniformly.
 */

#ifndef SPECFAAS_RUNTIME_LAUNCHER_HH
#define SPECFAAS_RUNTIME_LAUNCHER_HH

#include <functional>
#include <string>

#include "fleet/fleet.hh"
#include "runtime/instance.hh"
#include "runtime/interpreter.hh"
#include "sim/simulation.hh"
#include "workflow/registry.hh"

namespace specfaas {

/** Everything needed to launch one function instance. */
struct LaunchSpec
{
    Symbol function;
    Value input;
    InvocationId invocation = 0;
    OrderKey order;
    FlowIndex flowNode = kFlowNone;

    /**
     * Platform cost charged before container acquisition begins:
     * platformOverhead for conventional dispatch, or
     * sequenceTableDispatch for SpecFaaS launches (§IV).
     */
    Tick preOverhead = 0;

    /**
     * Portion of preOverhead that is controller *work*: the launch
     * occupies one controller thread for this long (queueing behind
     * other launches when all threads are busy). The remainder of
     * preOverhead is pure wire latency.
     */
    Tick controllerService = 0;

    bool controlSpeculative = false;
    bool dataSpeculative = false;
    InputSource inputSource = InputSource::Actual;
    FunctionInstance* caller = nullptr;
};

/** Creates instances, acquires containers, starts the interpreter. */
class Launcher
{
  public:
    Launcher(Simulation& sim, Fleet& fleet,
             const FunctionRegistry& registry, Interpreter& interp);

    /**
     * Launch a function. The returned instance is in Launching state;
     * it transitions to Running once the container is ready. If the
     * instance is squashed before the container arrives, the
     * container is quietly returned to the pool.
     */
    InstancePtr launch(LaunchSpec spec);

  private:
    /** Continue a launch after the controller station and wire time. */
    void proceedToContainer(const InstancePtr& inst,
                            std::uint64_t epoch);

    Simulation& sim_;
    Fleet& fleet_;
    const FunctionRegistry& registry_;
    Interpreter& interp_;
};

} // namespace specfaas

#endif // SPECFAAS_RUNTIME_LAUNCHER_HH
