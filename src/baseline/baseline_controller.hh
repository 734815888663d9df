/**
 * @file
 * Conventional OpenWhisk-style workflow execution (the baseline).
 *
 * Explicit workflows: after a function completes, the worker notifies
 * the controller, which invokes the conductor helper function to pick
 * the next function, then launches it (§II-B). Everything is strictly
 * in order: a function starts only when its control and data
 * dependences are fully resolved.
 *
 * Implicit workflows: functions call other functions as subroutines
 * over HTTP/RPC; the caller blocks until the callee returns (§II-C).
 */

#ifndef SPECFAAS_BASELINE_BASELINE_CONTROLLER_HH
#define SPECFAAS_BASELINE_BASELINE_CONTROLLER_HH

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/slot_array.hh"
#include "common/symbol.hh"
#include "fault/fault_injector.hh"
#include "fleet/fleet.hh"
#include "obs/counter_registry.hh"
#include "runtime/engine.hh"
#include "runtime/hooks.hh"
#include "runtime/interpreter.hh"
#include "runtime/launcher.hh"
#include "sim/simulation.hh"
#include "storage/kv_store.hh"
#include "workflow/flow_program.hh"
#include "workflow/registry.hh"

namespace specfaas {

/** The conventional (non-speculative) execution engine. */
class BaselineController : public WorkflowEngine, public RuntimeHooks
{
  public:
    /**
     * @param sim simulation context
     * @param fleet worker nodes, controller station and containers
     * @param store global key-value storage
     * @param registry deployed functions
     */
    BaselineController(Simulation& sim, Fleet& fleet, KvStore& store,
                       const FunctionRegistry& registry);

    ~BaselineController() override;

    void invoke(const Application& app, Value input,
                ResultCallback done) override;

    std::string name() const override { return "baseline"; }

    std::size_t liveInvocations() const override { return live_.size(); }

    void onNodeFailure(NodeId node) override;

    /** Engine-local tallies (merged into the global set on teardown). */
    const obs::CounterRegistry& counters() const { return counters_; }

    /** @{ Introspection for tests: generation-tag liveness. */
    /**
     * Generation-tagged handles of every live invocation record.
     * Tests capture this mid-run and assert the handles miss once
     * the invocation finishes — normally or through a fault
     * give-up — even after the index is recycled (no ABA).
     */
    std::vector<SlotHandle> liveInvocationHandles() const;

    /** Whether @p h still resolves to a live invocation record. */
    bool
    invocationHandleResolves(SlotHandle h) const
    {
        return invArena_.get(h) != nullptr;
    }

    /**
     * Callee returns pending in the record @p h resolves to (0 once
     * the handle is stale). finish() asserts it is 0 at completion.
     */
    std::size_t
    pendingCalleeReturns(SlotHandle h) const
    {
        const Invocation* inv = invArena_.get(h);
        return inv == nullptr ? 0 : inv->callReturns.size();
    }
    /** @} */

    /** @{ RuntimeHooks (called by the interpreter). */
    void storageGet(const InstancePtr& inst, const std::string& key,
                    ValueCallback done) override;
    void storagePut(const InstancePtr& inst, const std::string& key,
                    Value value, DoneCallback done) override;
    void functionCall(const InstancePtr& inst, std::size_t call_site,
                      Symbol callee, Value args,
                      ValueCallback done) override;
    void httpRequest(const InstancePtr& inst,
                     DoneCallback done) override;
    void completed(const InstancePtr& inst, Value output) override;
    void crashed(const InstancePtr& inst, FaultKind kind) override;
    /** @} */

  private:
    struct JoinState
    {
        std::size_t pending = 0;
        ValueArray outputs;
    };

    /** One attempt-scoped storage write: key and the value before. */
    using UndoEntry = std::pair<std::string, std::optional<Value>>;

    struct OrderLess
    {
        bool
        operator()(const OrderKey& a, const OrderKey& b) const
        {
            return orderKeyLess(a, b);
        }
    };

    struct Invocation
    {
        InvocationResult result;
        const Application* app = nullptr;
        const FlowProgram* program = nullptr;
        ResultCallback done;
        /** This record's own generation-tagged handle in the
         * controller's invocation arena. Deferred work (conductor
         * hops, RPC legs, retry timers) captures this handle; once
         * the invocation finishes — including a fault give-up — the
         * generation bumps and every outstanding capture misses. */
        SlotHandle self;
        // Explicit-walk state: join node index → collection state.
        FlatMap<FlowIndex, JoinState> joins;
        // Live instances spawned for this invocation.
        std::size_t liveInstances = 0;
        // (program order, function) pairs; sorted into
        // result.executedSequence when the invocation finishes.
        std::vector<std::pair<OrderKey, Symbol>> sequence;
        // Live instance handles, for fault recovery (subtree kill,
        // node-failure sweep). Mirrors liveInstances. Instance ids
        // are monotonic, so insertion is an append and the oldest
        // instances retire first — pipeline-indexed so those front
        // erases advance a frontier instead of shifting the vector.
        PipelineMap<InstanceId, InstancePtr> instances;
        // Implicit-callee return continuations, keyed by callee id.
        // Per invocation, so a completion out of issue order only
        // shifts this request's few pending callees, not every
        // callee in flight across the controller. Empty once the
        // invocation finishes.
        PipelineMap<InstanceId, ValueCallback> callReturns;
        // Fault-retry attempts per pipeline coordinate.
        FlatMap<OrderKey, std::uint32_t, OrderLess> attempts;
        // Per-instance undo log: this attempt's storage writes, in
        // order, so a crashed attempt's effects roll back (a real
        // platform's transactional SDK / idempotency layer).
        FlatMap<InstanceId, std::vector<UndoEntry>> undo;
    };

    /** Compiled program cache, one per application. */
    const FlowProgram& compiled(const Application& app);

    /** Launch the flow node @p idx of invocation @p inv. */
    void dispatch(Invocation& inv, FlowIndex idx, Value input,
                  OrderKey order);

    /** A flow-node function finished; walk to its successor. */
    void stepFlow(Invocation& inv, const InstancePtr& inst,
                  const Value& output);

    /** Continue after node @p idx with @p carry as data payload. */
    void continueAt(Invocation& inv, FlowIndex idx, Value carry,
                    OrderKey order);

    void finish(Invocation& inv, Value response);

    Invocation& invocationOf(const InstancePtr& inst);

    /** @{ Fault recovery. */
    /** Kill one live instance: roll back writes, squash, unaccount. */
    void teardown(Invocation& inv, const InstancePtr& inst);
    /** Schedule the re-execution of a crashed instance. */
    void scheduleRetry(Invocation& inv, const InstancePtr& inst,
                       Tick delay, ValueCallback ret);
    /** Retries exhausted: kill everything, answer the error. */
    void failInvocation(Invocation& inv, const std::string& function);
    /** @} */

    Simulation& sim_;
    Fleet& fleet_;
    KvStore& store_;
    const FunctionRegistry& registry_;
    Interpreter interp_;
    Launcher launcher_;
    /** Hoisted profiler reference (see Interpreter::profiler_). */
    obs::Profiler& profiler_;

    /**
     * Slab-stable storage for invocation records. Instances carry
     * their record's generation-tagged handle, so hook dispatch
     * resolves instance → invocation with one array access instead
     * of a hash probe, and a stale handle after teardown is a miss
     * rather than an ABA hit on a reused slot.
     */
    SlotArray<Invocation> invArena_;
    /** Id → record handle. Ids are monotonic (inserts append) and
     * invocations mostly finish oldest-first, so removals cluster at
     * the front — the pipeline frontier absorbs them. */
    PipelineMap<InvocationId, SlotHandle> live_;
    std::unordered_map<const Application*, FlowProgram> programs_;

    obs::CounterRegistry counters_;
    std::uint64_t& ctrInvocations_ = counters_.counter("baseline.invocations");
    std::uint64_t& ctrRejections_ = counters_.counter("baseline.rejections");
    std::uint64_t& ctrDispatches_ = counters_.counter("baseline.dispatches");
    std::uint64_t& ctrCompletions_ = counters_.counter("baseline.completions");
};

} // namespace specfaas

#endif // SPECFAAS_BASELINE_BASELINE_CONTROLLER_HH
