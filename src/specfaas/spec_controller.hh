/**
 * @file
 * The SpecFaaS speculative execution engine (§IV, §V).
 *
 * Per invocation the controller maintains the Function Execution
 * Pipeline (program-ordered slots of not-yet-committed functions), a
 * Data Buffer, and walks the application's Sequence Table launching
 * functions early:
 *
 *  - control dependences are predicted with the path-indexed branch
 *    predictor (§V-A);
 *  - data dependences are satisfied speculatively from memoization
 *    tables (§V-B), including predicted callee arguments of implicit
 *    workflows (§V-D);
 *  - global writes are buffered per function and committed in program
 *    order; out-of-order RAW dependences squash the premature reader
 *    and its successors (§V-C);
 *  - mispredictions squash downstream slots and restart the walk on
 *    the corrected path (Figure 6).
 *
 * Tables (branch predictor, memoization, learned call graph) persist
 * across invocations and are only updated with committed data (§V-E).
 */

#ifndef SPECFAAS_SPECFAAS_SPEC_CONTROLLER_HH
#define SPECFAAS_SPECFAAS_SPEC_CONTROLLER_HH

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/slot_array.hh"
#include "common/symbol.hh"
#include "fleet/fleet.hh"
#include "obs/counter_registry.hh"
#include "runtime/engine.hh"
#include "runtime/hooks.hh"
#include "runtime/interpreter.hh"
#include "runtime/launcher.hh"
#include "sim/simulation.hh"
#include "specfaas/branch_predictor.hh"
#include "specfaas/data_buffer.hh"
#include "specfaas/memo_table.hh"
#include "specfaas/spec_config.hh"
#include "specfaas/squash_minimizer.hh"
#include "storage/kv_store.hh"
#include "workflow/flow_program.hh"
#include "workflow/registry.hh"

namespace specfaas {

/** The SpecFaaS engine. */
class SpecController : public WorkflowEngine, public RuntimeHooks
{
  public:
    SpecController(Simulation& sim, Fleet& fleet, KvStore& store,
                   const FunctionRegistry& registry,
                   SpecConfig config = {});

    ~SpecController() override;

    void invoke(const Application& app, Value input,
                ResultCallback done) override;

    std::string name() const override { return "specfaas"; }

    /** @{ RuntimeHooks. */
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

    void onNodeFailure(NodeId node) override;

    /** @{ Introspection for tests and ablation benches. */
    BranchPredictor& branchPredictor() { return bp_; }
    MemoStore& memoStore() { return memo_; }
    SquashMinimizer& squashMinimizer() { return minimizer_; }
    /** The engine counters (`spec.*`). */
    const obs::CounterRegistry& counters() const { return counters_; }
    std::size_t liveInvocations() const override { return live_.size(); }

    /** Dump every live invocation's pipeline state (diagnostics). */
    std::string debugDump() const;

    /**
     * Generation-tagged handles of every live pipeline slot, across
     * all in-flight invocations. Tests capture this mid-run (from a
     * handler body) and assert the handles miss once their slots are
     * squashed, committed, or torn down — the no-ABA property.
     */
    std::vector<SlotHandle> liveSlotHandles() const;

    /** Whether @p h still resolves to a live pipeline slot. */
    bool
    slotHandleResolves(SlotHandle h) const
    {
        return slotArena_.get(h) != nullptr;
    }

    /** Pipeline slots alive across all invocations (0 when quiet). */
    std::size_t liveSlotCount() const { return slotArena_.liveCount(); }

    /**
     * Handles of every live invocation record, in id order. A record
     * finish() parked in the graveyard is no longer listed but still
     * resolves until the next event-loop boundary.
     */
    std::vector<SlotHandle> liveInvocationHandles() const;

    /** Whether @p h still resolves to an invocation record. */
    bool
    invocationHandleResolves(SlotHandle h) const
    {
        return invArena_.get(h) != nullptr;
    }
    /** @} */

  private:
    /**
     * What commit needs of one dynamic function. A pipeline slot is
     * one; a callee merged into its caller leaves one behind, whose
     * effects wait for the caller's own commit: a still-speculative
     * caller must not update tables or accounting yet (§V-E), and is
     * forgotten wholesale if the caller is squashed.
     */
    struct CommitRecord
    {
        OrderKey order;
        Symbol function;
        Value input;
        Value output;
        std::uint64_t pathHash = pathhash::kEmpty;
        /** The instance that ran; null for a pure skip. */
        InstancePtr inst;
    };

    struct SpecInvocation;

    /**
     * One pipeline entry: a not-yet-committed dynamic function. Facts
     * derivable from other fields are not stored: an implicit callee
     * is a slot with a callerSlot, its call site is order.back(), its
     * caller's instance id is read off the live caller slot, it is
     * adopted while it holds a return continuation, and an input is
     * validated once inputSource is Actual.
     */
    struct Slot : CommitRecord
    {
        FlowIndex flowNode = kFlowNone;

        /** Caller's slot (implicit callees only); stale once the
         * caller is squashed or committed. */
        SlotHandle callerSlot;

        /** Where the input came from. Validation (a producer
         * completing with the predicted value, or a caller adopting
         * a speculative callee) sets it to Actual and clears
         * carryProducer. */
        InputSource inputSource = InputSource::Actual;
        /** Order of the slot whose output validates this slot's
         * input; empty when the input is Actual. */
        OrderKey carryProducer;
        bool launchedSpeculatively = false;

        bool completed = false;

        /** The walk fed this slot's memoized output to successors;
         * validate against the actual output at completion. */
        bool outputFedForward = false;
        Value memoPredictedOutput;

        /** @{ Branch metadata (explicit workflows). */
        bool isBranch = false;
        bool predictionMade = false;
        FlowIndex predictedTarget = kFlowNone;
        FlowIndex actualTarget = kFlowNone;
        /** @} */

        /** Where an adopted callee delivers its output: set when a
         * real call launches the callee or adopts a speculative one,
         * and moved out when the callee delivers or is relaunched. */
        ValueCallback returnTo;

        /** Parked side-effect continuations (§VI). */
        std::vector<DoneCallback> parkedEffects;
        bool nonSpeculative = false;

        /** Merged callees awaiting this slot's commit. */
        std::vector<CommitRecord> pending;

        bool hasCaller() const { return static_cast<bool>(callerSlot); }
        /** A callee its caller is waiting on. */
        bool adopted() const { return static_cast<bool>(returnTo); }
        bool inputActual() const
        {
            return inputSource == InputSource::Actual;
        }
        /** Meaningful once a predicted branch has resolved. */
        bool predictionHit() const
        {
            return predictionMade && actualTarget == predictedTarget;
        }
    };

    /**
     * A pipeline coordinate and the input entering there: the cursor
     * of the predicted-path walk (explicit workflows) and the launch
     * point of every slot. afterUnresolvedBranch marks a
     * control-speculative position (for a callee: a predicted call).
     */
    struct Frontier
    {
        FlowIndex flowIdx = kFlowNone;
        Value carry;
        InputSource source = InputSource::Actual;
        OrderKey carryProducer;
        OrderKey order;
        std::uint64_t pathHash = pathhash::kEmpty;
        bool afterUnresolvedBranch = false;
    };

    struct JoinState
    {
        std::size_t pending = 0;
        ValueArray outputs;
    };

    /**
     * What one function or branch did at a pipeline coordinate: the
     * (function, input) pair it ran on plus its output and, for a
     * branch, the resolved target. Replay hints and committed nodes
     * apply only to a re-execution of the same function on the same
     * input.
     */
    struct NodeRecord
    {
        Symbol function;
        Value input;
        Value output;
        FlowIndex target = kFlowNone; // branches only

        bool
        matches(Symbol fn, const Value& in) const
        {
            return function == fn && input == in;
        }
    };

    struct OrderLess
    {
        bool
        operator()(const OrderKey& a, const OrderKey& b) const
        {
            return orderKeyLess(a, b);
        }
    };

    struct ParkedRead
    {
        InstancePtr reader;
        std::uint64_t epoch;
        std::string key;
        ValueCallback done;
    };

    struct SpecInvocation
    {
        InvocationResult result;
        const FlowProgram* program = nullptr;
        ResultCallback done;

        /** Pipeline: program order → slot handle, order-indexed so
         * commit advances a head frontier (popFront) and squash
         * truncates a suffix. The Slot objects themselves live in
         * the controller's slab-stable slot arena; handles go stale
         * the moment a slot is squashed or committed, which is
         * exactly the old byInstance-absence semantics. */
        FlatMap<OrderKey, SlotHandle, OrderLess> slots;
        std::unique_ptr<DataBuffer> buffer;

        /** Count of live slots with launchedSpeculatively set and
         * completed unset — the depth throttle's input, maintained
         * incrementally instead of recounted by pipeline scan. */
        std::size_t specLive = 0;

        /** Orders of launched, not-yet-completed branch slots. The
         * "is anything before X control-speculative?" questions the
         * walk and rewind paths ask become a front() compare. */
        FlatMap<OrderKey, bool, OrderLess> openBranches;

        /** Frontiers blocked on a producer slot's completion. */
        FlatMap<OrderKey, Frontier, OrderLess> blocked;
        /** Frontiers parked by the speculation-depth throttle. */
        std::list<Frontier> depthBlocked;
        FlatMap<FlowIndex, JoinState> joins;
        /** Fork base → restart frontier: a rewind inside a fork
         * re-walks the whole fork. */
        FlatMap<OrderKey, Frontier, OrderLess> forks;

        /** Pending speculative callees: caller id + call site → slot
         * order. */
        FlatMap<std::pair<InstanceId, std::size_t>, OrderKey>
            pendingCallees;

        std::vector<ParkedRead> parkedReads;

        /** (program order, function) pairs; sorted into
         * result.executedSequence when the invocation finishes. */
        std::vector<std::pair<OrderKey, Symbol>> sequence;

        /**
         * Results already observed at a pipeline position during
         * this invocation, qualified by function AND input: a hint
         * applies only to a re-execution of the same function with
         * the same input, so wrong-path or wrong-input executions
         * can never poison a re-walk, and no erasure is needed on
         * squash. Re-walks prefer hints over the predictor / memo
         * tables (which update only at commit), breaking the replay
         * loops a restarted fork would otherwise enter.
         */
        FlatMap<OrderKey, NodeRecord, OrderLess> branchHints;
        FlatMap<OrderKey, NodeRecord, OrderLess> outputHints;

        /**
         * Flow coordinates irrevocably committed in this invocation.
         * A rewind that restarts a fork region can walk back over
         * them (the fork restart frontier predates the commits); the
         * walk replays the recorded outcome instead of re-launching.
         * Re-execution would double-apply storage effects and
         * diverge from the baseline's crash-retry semantics, which
         * never re-runs completed work.
         */
        FlatMap<OrderKey, NodeRecord, OrderLess> committed;

        /**
         * Outstanding container-kill squash debt: number of upcoming
         * launches that must wait for a replacement container
         * because their warm container was destroyed (§VI, second
         * squash approach).
         */
        std::uint32_t containerKillDebt = 0;

        /** Fault-retry attempts per pipeline coordinate; survives the
         * squash/relaunch cycle so give-up thresholds are honest. */
        FlatMap<OrderKey, std::uint32_t, OrderLess> faultAttempts;

        /** Response payload observed when the walk reaches the end
         * of the program. */
        Value responseValue;
        bool responseSeen = false;
        bool finished = false;
    };

    /**
     * Learned implicit call graph (part of the Sequence Table), with
     * the speculate-callee launch-set derivation memoized per
     * (function, site): the resolved registry definition and its
     * annotation gates are cached at commit-time learning, so
     * repeated invocations of the same workflow shape skip the
     * registry probe and annotation re-derivation per candidate.
     * Refreshed whenever the learned callee changes. Relies on the
     * registry being immutable for the controller's lifetime.
     */
    struct CallSiteInfo
    {
        Symbol callee;
        const FunctionDef* def = nullptr;
        bool nonSpec = false;
        bool pure = false;
    };

    const FlowProgram& compiled(const Application& app);
    SpecInvocation* find(InvocationId id);
    SpecInvocation& invocationOf(const InstancePtr& inst);
    Slot* slotOf(const InstancePtr& inst);
    /** Resolve a pipeline map entry (handle must be live). */
    Slot&
    slotAt(SlotHandle h)
    {
        return slotArena_.at(h);
    }

    /**
     * Create @p function's slot at @p at and insert it into the
     * pipeline: the fields every slot shares, launched or not.
     */
    Slot& newSlot(SpecInvocation& inv, Symbol function,
                  const Frontier& at);

    /**
     * The one way a function enters the pipeline: create its slot at
     * @p at, launch the instance after @p pre_overhead, open its Data
     * Buffer column, account a speculative launch, then speculate its
     * callees and promote it if it is already safe. A non-null
     * @p caller makes the slot that caller's implicit callee at call
     * site at.order.back(), delivering to @p return_to once adopted.
     */
    Slot& launchSlot(SpecInvocation& inv, Symbol function,
                     const Frontier& at, Tick pre_overhead,
                     Slot* caller = nullptr,
                     ValueCallback return_to = nullptr);

    /** Frontier re-executing @p s on its own (maybe predicted) input. */
    static Frontier frontierAt(const Slot& s);

    /** @{ Explicit-workflow machinery. */
    void walk(SpecInvocation& inv, Frontier f);
    /** Resolves a completed branch slot against its prediction. */
    void onBranchComplete(SpecInvocation& inv, Slot& slot);
    /** Validates a completed function slot's fed-forward output. */
    void onFunctionComplete(SpecInvocation& inv, Slot& slot);
    /** Records a `validate` instant: one verdict of @p kind
     * ("call", "control" or "data") on @p function's speculation. */
    void traceValidate(const SpecInvocation& inv, const char* kind,
                       Symbol function, bool correct);
    void resumeBlockedOn(SpecInvocation& inv, const Slot& slot);
    void tryCommit(SpecInvocation& inv);
    void commitSlot(SpecInvocation& inv, Slot& slot);
    /** @} */

    /** @{ Implicit-workflow machinery. */
    void speculateCallees(SpecInvocation& inv, Slot& slot);
    void onImplicitComplete(SpecInvocation& inv, Slot& slot);
    void deliverCallee(SpecInvocation& inv, Slot& slot);
    void launchCalleeSlot(SpecInvocation& inv,
                          const InstancePtr& caller,
                          std::size_t call_site, Symbol callee,
                          Value args, InputSource source,
                          ValueCallback return_to);
    /** @} */

    /**
     * Squash every live slot with order >= @p from. Adopted callees
     * whose callers survive are relaunched with their validated
     * arguments. Returns the number of squashed slots.
     */
    std::size_t squashRange(SpecInvocation& inv,
                            const OrderKey& from_ref,
                            SquashReason reason);

    /**
     * The one squash-and-rewalk (Figure 6): squash everything from
     * f.order and restart the explicit walk at @p f. Inside a fork
     * region the whole fork restarts from its base.
     */
    void rewind(SpecInvocation& inv, Frontier f, SquashReason reason);

    /** @{ Fault recovery. */
    /** Delayed (post-backoff) squash + relaunch of a crashed slot. */
    void recoverFromCrash(InvocationId id, SlotHandle slot);
    /** Retries exhausted: squash everything, answer the error. */
    void failInvocation(SpecInvocation& inv, Symbol function);
    /** @} */

    void maybePromote(SpecInvocation& inv, Slot& slot);
    /** Learn (or confirm) a call-graph edge at commit time. */
    void noteCallSite(Symbol function, std::size_t call_site,
                      Symbol callee);
    void resumeParkedReads(SpecInvocation& inv);
    void resumeDepthBlocked(SpecInvocation& inv);
    void performRead(SpecInvocation& inv, const InstancePtr& inst,
                     const std::string& key,
                     ValueCallback done);
    /**
     * The one set of commit effects, for slots and merged callees
     * alike: tables learn validated data (§V-E) and the invocation
     * accounts the function.
     */
    void applyCommit(SpecInvocation& inv, const CommitRecord& c,
                     bool merged);
    void finish(SpecInvocation& inv);

    /** Current allowed number of speculative in-flight slots. */
    std::uint32_t effectiveSpecDepth() const;

    Simulation& sim_;
    Fleet& fleet_;
    KvStore& store_;
    const FunctionRegistry& registry_;
    SpecConfig config_;
    Interpreter interp_;
    Launcher launcher_;
    /** Hoisted profiler reference (see Interpreter::profiler_). */
    obs::Profiler& profiler_;

    BranchPredictor bp_;
    MemoStore memo_;
    SquashMinimizer minimizer_;

    /**
     * Engine counters, merged into the simulation's context registry
     * on destruction. Hot paths increment through the cached
     * references below, which stay valid for the registry's lifetime
     * (node-based storage).
     */
    obs::CounterRegistry counters_;
    std::uint64_t& ctrSpeculativeLaunches_ =
        counters_.counter("spec.speculative_launches");
    std::uint64_t& ctrSquashes_ = counters_.counter("spec.squashes");
    std::uint64_t& ctrControlMispredicts_ =
        counters_.counter("spec.control_mispredicts");
    std::uint64_t& ctrDataMispredicts_ =
        counters_.counter("spec.data_mispredicts");
    std::uint64_t& ctrBufferViolations_ =
        counters_.counter("spec.buffer_violations");
    std::uint64_t& ctrStalledReads_ =
        counters_.counter("spec.stalled_reads");
    std::uint64_t& ctrDeferredSideEffects_ =
        counters_.counter("spec.deferred_side_effects");
    std::uint64_t& ctrCommits_ = counters_.counter("spec.commits");
    std::uint64_t& ctrPureSkips_ = counters_.counter("spec.pure_skips");

    /**
     * Tracing: every squashRange gets a fresh id, carried by its
     * "squash" instant and by its victims' lifecycle ends.
     */
    std::uint64_t nextSquashId_ = 1;

    /** Learned call graph: (function, call site) → callee. */
    FlatMap<std::pair<Symbol, std::size_t>, CallSiteInfo> callGraph_;

    /**
     * Slab-stable storage for every live pipeline slot across all
     * invocations. Instances carry their slot's generation-tagged
     * handle, so hook dispatch resolves instance → slot with one
     * array access instead of a per-invocation hash probe; squash,
     * commit, and give-up teardown bump the generation, making every
     * outstanding handle miss (no ABA on index reuse).
     */
    SlotArray<Slot> slotArena_;

    /**
     * Arena for invocation records, as in the baseline. Invocations
     * churn at request rate; pooling them recycles their (large)
     * footprint through a freelist instead of the heap, anything
     * still live when the controller dies is destroyed with the
     * pool, and deferred work resolves a record through a
     * generation-checked handle.
     */
    SlotArray<SpecInvocation, 16> invArena_;
    /** Id → record handle (ids are monotonic, so inserts append). */
    FlatMap<InvocationId, SlotHandle> live_;

    /**
     * Handles of invocations removed from live_ whose records must
     * outlive the current event: frames up the completion stack
     * (completed() → resumeBlockedOn() → walk() → tryCommit() →
     * finish()) still hold references into the invocation when
     * finish() runs, so destroying it immediately is a
     * use-after-free. finish() parks the handle here and a daemon
     * event destroys the record at the event-loop boundary, where no
     * such frame can exist; a double release panics in at().
     */
    std::vector<SlotHandle> graveyard_;

    std::unordered_map<const Application*, FlowProgram> programs_;
};

} // namespace specfaas

#endif // SPECFAAS_SPECFAAS_SPEC_CONTROLLER_HH
