/**
 * @file
 * Dynamic function instances.
 *
 * A FunctionInstance is one handler-process execution of a function:
 * the analogue of a dynamic instruction in the paper's out-of-order
 * analogy. Instances carry a program-order key (their position in the
 * invocation's Function Execution Pipeline), speculation tags, the
 * interpreter state, and per-category timing for the Fig. 3
 * breakdown.
 */

#ifndef SPECFAAS_RUNTIME_INSTANCE_HH
#define SPECFAAS_RUNTIME_INSTANCE_HH

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.hh"
#include "common/rng.hh"
#include "common/slot_array.hh"
#include "common/small_vector.hh"
#include "common/symbol.hh"
#include "common/types.hh"
#include "common/value.hh"
#include "workflow/flow_program.hh"
#include "workflow/function_def.hh"

namespace specfaas {

struct Container;

/**
 * Program-order position of an instance within one invocation.
 *
 * Lexicographic vectors support both explicit paths (single growing
 * component) and implicit call trees (a callee's key extends its
 * caller's key, placing it immediately after the caller and before
 * the caller's later callees): [2] < [2,0] < [2,0,1] < [2,1] < [3].
 */
using OrderKey = SmallVector<std::int32_t, 8>;

/** Lexicographic comparison; a proper prefix orders first. */
bool orderKeyLess(const OrderKey& a, const OrderKey& b);

/** True when @p pre is a proper prefix of @p key (caller-of). */
bool orderKeyIsPrefix(const OrderKey& pre, const OrderKey& key);

/** Render an order key like "[2.0.1]". */
std::string orderKeyToString(const OrderKey& key);

/** Where the input fed to an instance came from. */
enum class InputSource {
    /** Resolved, definitely correct value. */
    Actual,
    /** Memoized predecessor output (data speculation, §V-B). */
    Memoized,
    /** Inherited from a branch on a predicted path (§V-A). */
    Inherited,
};

/** Why an instance was killed. */
enum class SquashReason {
    None,
    ControlMispredict,
    DataMispredict,
    BufferViolation,
    /** Killed by an injected fault (crash, node failure, ...). */
    Fault,
};

/** Stable string for a SquashReason (trace/table output). */
const char* squashReasonName(SquashReason reason);

/** Interpreter progress of one instance. */
enum class InstanceState {
    /** Waiting for a container / launch overheads. */
    Launching,
    /** Executing its op program. */
    Running,
    /** Parked: speculative side effect deferred (§VI). */
    StalledSideEffect,
    /** Parked: read stalled by the squash minimizer (§V-C). */
    StalledRead,
    /** Parked: waiting for an in-flight callee (§V-D). */
    StalledCallee,
    /** Body finished, output produced, not yet committed. */
    Completed,
    /** Committed / merged into caller. */
    Committed,
    /** Squashed. */
    Dead,
};

/** What one instance did at one of its Call ops. */
struct CallSiteRecord
{
    /** Op index of the Call in the function body. */
    std::size_t site = 0;
    /** The guard let the call run. */
    bool taken = false;
    /** @{ Taken calls only: the callee and the actual arguments. */
    Symbol callee;
    Value args;
    /** @} */
};

/** One dynamic function execution. */
struct FunctionInstance
{
    InstanceId id = 0;
    InvocationId invocation = 0;
    const FunctionDef* def = nullptr;

    /** Position in the pipeline. */
    OrderKey order;

    /** Flow-program node this instance executes (explicit; else -1). */
    FlowIndex flowNode = kFlowNone;

    /** @{ Speculation tags (§V, Figure 7). */
    bool controlSpeculative = false;
    bool dataSpeculative = false;
    InputSource inputSource = InputSource::Actual;
    /** @} */

    InstanceState state = InstanceState::Launching;
    SquashReason squashReason = SquashReason::None;

    /**
     * A "stall-read" trace span is open on this instance's exec
     * track. Closed by resume (SpecController) or squash
     * (Interpreter); the flag keeps begin/end emission balanced.
     */
    bool stallSpanOpen = false;

    /**
     * Id of the range squash that killed this instance (0 = none,
     * e.g. a crash kill). Its squash trace events carry it as
     * squash_id, matching the id of that squash's "squash" instant.
     */
    std::uint64_t squashId = 0;

    /** Interpreter state. */
    Env env;
    std::size_t pc = 0;
    Value output;

    /** Per-instance jitter stream (stable across reruns of a seed). */
    Rng jitterRng{0};

    /** Where the handler runs. */
    Container* container = nullptr;
    NodeId node = 0;
    ComputeTaskId activeTask = 0;

    /**
     * Monotonic epoch; bumped on squash so stale event callbacks
     * (storage completions, parked resumes) can detect they refer to
     * a dead incarnation of the work.
     */
    std::uint64_t epoch = 0;

    /** Local temp files created by this handler (copy-on-write). */
    std::set<std::string> ownFiles;

    /**
     * Observed call-site behaviour, one record per Call op the
     * interpreter passed over, in program order. Feeds the learned
     * sequence table, call predictors and memoized callee arguments
     * of implicit workflows at commit time. Launch reserves one
     * record per Call op of the definition.
     */
    std::vector<CallSiteRecord> callSites;

    /** Path-history hash at this instance's position (§V-A). */
    std::uint64_t pathHash = 0;

    /** Caller instance for implicit callees (null at top level). */
    FunctionInstance* caller = nullptr;

    /**
     * Generation-tagged handle to the controller slot this instance
     * occupies. Set by the owning controller when the instance is
     * bound to a pipeline slot; a stale generation means the slot was
     * squashed/committed and recycled, so callbacks holding the
     * handle see "gone" instead of someone else's slot.
     */
    SlotHandle slotHandle;

    /** @{ Timing for the Fig. 3 breakdown, in Ticks. */
    Tick launchedAt = 0;
    Tick startedAt = 0;
    Tick completedAt = 0;
    Tick containerCreationTime = 0;
    Tick runtimeSetupTime = 0;
    Tick platformOverheadTime = 0;
    Tick execTime = 0;
    /** @} */

    /** True while the instance can still affect the invocation. */
    bool live() const
    {
        return state != InstanceState::Dead &&
               state != InstanceState::Committed;
    }

    /** Speculative in any way (control, data, or input). */
    bool speculative() const
    {
        return controlSpeculative || dataSpeculative ||
               inputSource != InputSource::Actual;
    }

    /** Diagnostic label like "Normalize[1.2]#42". */
    std::string label() const;

    /** Arguments of the taken call at op @p site (null if none). */
    const Value& callArgs(std::size_t site) const;
};

/** Shared-ownership handle used by asynchronous callbacks. */
using InstancePtr = std::shared_ptr<FunctionInstance>;

} // namespace specfaas

#endif // SPECFAAS_RUNTIME_INSTANCE_HH
