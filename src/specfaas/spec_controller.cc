#include "spec_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "sim/sim_context.hh"

namespace specfaas {

namespace {

/**
 * Predictor key for an explicit branch node. Branch nodes use even
 * site ids and call sites odd ones, so the two families can never
 * collide within a function.
 */
std::uint64_t
branchKey(Symbol function, FlowIndex node)
{
    return BranchPredictor::branchKeyOf(
        function.nameHash(), static_cast<std::uint64_t>(node) * 2);
}

/** Predictor key for an implicit call site. */
std::uint64_t
callKey(Symbol function, std::size_t call_site)
{
    return BranchPredictor::branchKeyOf(
        function.nameHash(),
        static_cast<std::uint64_t>(call_site) * 2 + 1);
}

/** Path-hash step for entering a call site (caller@site). */
std::uint64_t
callSiteHash(Symbol function, std::size_t call_site)
{
    return function.nameHash() ^
           ((static_cast<std::uint64_t>(call_site) + 1) *
            0x9e3779b97f4a7c15ull);
}

/** Successor position at the same nesting level. */
OrderKey
increment(OrderKey key)
{
    SPECFAAS_ASSERT(!key.empty(), "incrementing empty order key");
    key.back() += 1;
    return key;
}

} // namespace

SpecController::SpecController(Simulation& sim, Fleet& fleet,
                               KvStore& store,
                               const FunctionRegistry& registry,
                               SpecConfig config)
    : sim_(sim),
      fleet_(fleet),
      store_(store),
      registry_(registry),
      config_(config),
      interp_(sim, fleet, *this),
      launcher_(sim, fleet, registry, interp_),
      profiler_(sim.context().profiler()),
      bp_(config.bpDeadBand, config.bpMinSamples),
      memo_(config.memoCapacity),
      minimizer_(config.stallThreshold)
{
    memo_.setProfiler(&profiler_);
}

SpecController::~SpecController()
{
    // Aggregate into the process-global registry so a bench binary
    // can print totals across every platform it constructed.
    counters_.mergeInto(sim_.context().counters());
}

const FlowProgram&
SpecController::compiled(const Application& app)
{
    auto it = programs_.find(&app);
    if (it == programs_.end())
        it = programs_.emplace(&app, compileWorkflow(app)).first;
    return it->second;
}

SpecController::SpecInvocation*
SpecController::find(InvocationId id)
{
    auto it = live_.find(id);
    return it == live_.end() ? nullptr : &invArena_.at(it->second);
}

SpecController::SpecInvocation&
SpecController::invocationOf(const InstancePtr& inst)
{
    SpecInvocation* inv = find(inst->invocation);
    SPECFAAS_ASSERT(inv != nullptr, "instance %s of dead invocation",
                    inst->label().c_str());
    return *inv;
}

SpecController::Slot*
SpecController::slotOf(const InstancePtr& inst)
{
    // The instance carries its slot's generation-tagged handle; a
    // squashed/committed slot bumped the generation, so the lookup
    // misses exactly when the old byInstance map had no entry.
    return slotArena_.get(inst->slotHandle);
}

std::uint32_t
SpecController::effectiveSpecDepth() const
{
    // Every worker counts, retired ones included (DESIGN.md §11.1).
    const std::uint32_t busy = fleet_.allWorkerBusyCores();
    const std::uint32_t total = fleet_.allWorkerCores();
    const double util =
        total == 0 ? 0.0
                   : static_cast<double>(busy) / static_cast<double>(total);
    return util > config_.loadThrottleUtilization
               ? config_.throttledSpecDepth
               : config_.maxSpecDepth;
}

void
SpecController::invoke(const Application& app, Value input,
                       ResultCallback done)
{
    OBS_ZONE(profiler_, "spec/invoke");
    const InvocationId id = sim_.context().nextInvocationId();

    // Admission control, as in the baseline (§II-B front-end).
    if (fleet_.controller().queueLength() >
        fleet_.clusterConfig().admissionQueueLimit) {
        InvocationResult rejected;
        rejected.id = id;
        rejected.app = app.name;
        rejected.submittedAt = sim_.now();
        rejected.completedAt = sim_.now();
        rejected.rejected = true;
        if (auto& tr = sim_.context().trace(); tr.enabled()) {
            tr.instant(obs::cat::kSpec, "reject", sim_.now(),
                       obs::kControlPlanePid, id,
                       {{"app", app.name}});
        }
        done(std::move(rejected));
        return;
    }

    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kSpec, "invoke", sim_.now(),
                   obs::kControlPlanePid, id, {{"app", app.name}});
    }

    SpecInvocation& ref = *invArena_.create();
    ref.done = std::move(done);
    ref.result.id = id;
    ref.result.app = app.name;
    ref.result.submittedAt = sim_.now();
    ref.buffer = std::make_unique<DataBuffer>(store_);
    // Typically one pipeline slot, Data Buffer column and committed
    // record per defined function.
    ref.slots.reserve(app.functions.size());
    ref.sequence.reserve(app.functions.size());
    ref.buffer->reserve(app.functions.size());
    live_[id] = invArena_.handleOf(ref);

    Frontier f;
    f.carry = std::move(input);
    f.order = OrderKey{0};
    if (app.type == WorkflowType::Explicit) {
        ref.program = &compiled(app);
        ref.committed.reserve(app.functions.size());
        f.flowIdx = ref.program->entry;
        walk(ref, std::move(f));
    } else {
        // Implicit: launch the root function; everything else is
        // driven by its calls and the learned sequence table. The
        // root is the validated pipeline head, so it is promoted to
        // non-speculative at launch.
        launchSlot(ref, Symbol(app.rootFunction), f,
                   fleet_.clusterConfig().platformOverhead);
    }
}

// ---------------------------------------------------------------------
// Entering the pipeline
// ---------------------------------------------------------------------

SpecController::Slot&
SpecController::newSlot(SpecInvocation& inv, Symbol function,
                        const Frontier& at)
{
    Slot& slot = *slotArena_.create();
    slot.function = function;
    slot.order = at.order;
    slot.flowNode = at.flowIdx;
    slot.input = at.carry;
    // An Actual input has no producer left to validate it.
    SPECFAAS_ASSERT(at.source != InputSource::Actual ||
                        at.carryProducer.empty(),
                    "actual input with a producer");
    slot.inputSource = at.source;
    slot.carryProducer = at.carryProducer;
    slot.pathHash = at.pathHash;
    slot.isBranch = at.flowIdx != kFlowNone &&
                    inv.program->node(at.flowIdx).kind ==
                        FlowNode::Kind::Branch;
    auto [it, ok] = inv.slots.emplace(slot.order, slotArena_.handleOf(slot));
    (void)it;
    SPECFAAS_ASSERT(ok, "slot collision at %s",
                    orderKeyToString(slot.order).c_str());
    return slot;
}

SpecController::Slot&
SpecController::launchSlot(SpecInvocation& inv, Symbol function,
                           const Frontier& at, Tick pre_overhead,
                           Slot* caller, ValueCallback return_to)
{
    const bool dataSpeculative = at.source != InputSource::Actual;
    const bool speculative = at.afterUnresolvedBranch || dataSpeculative;
    Slot& slot = newSlot(inv, function, at);
    slot.launchedSpeculatively = speculative;
    if (caller != nullptr) {
        // Only a call with actual arguments is waited on at launch; a
        // predicted callee gets its continuation when adopted.
        SPECFAAS_ASSERT(!dataSpeculative || !return_to,
                        "predicted callee with a continuation");
        slot.callerSlot = slotArena_.handleOf(*caller);
        slot.returnTo = std::move(return_to);
    }

    LaunchSpec spec;
    spec.function = function;
    spec.input = at.carry;
    spec.invocation = inv.result.id;
    spec.order = at.order;
    spec.flowNode = at.flowIdx;
    spec.preOverhead = pre_overhead;
    spec.controllerService = fleet_.clusterConfig().specLaunchService;
    // The warm container this launch would have used was destroyed by
    // a container-kill squash; wait for a replacement environment
    // (§VI). The implicit root pays the full platform entry instead.
    const bool implicitRoot = caller == nullptr && at.flowIdx == kFlowNone;
    if (!implicitRoot && inv.containerKillDebt > 0) {
        spec.preOverhead += fleet_.clusterConfig().containerRespawnLatency;
        --inv.containerKillDebt;
    }
    spec.controlSpeculative = at.afterUnresolvedBranch;
    spec.dataSpeculative = dataSpeculative;
    spec.inputSource = at.source;
    spec.caller = caller != nullptr ? caller->inst.get() : nullptr;
    slot.inst = launcher_.launch(std::move(spec));
    slot.inst->pathHash = slot.pathHash;
    slot.inst->slotHandle = slotArena_.handleOf(slot);

    inv.buffer->addColumn(slot.inst->id, slot.order);

    if (speculative) {
        ++ctrSpeculativeLaunches_;
        ++inv.result.speculativeLaunches;
        ++inv.specLive;
        if (caller != nullptr) {
            const auto site = static_cast<std::size_t>(at.order.back());
            inv.pendingCallees[{caller->inst->id, site}] = slot.order;
        }
        if (auto& tr = sim_.context().trace(); tr.enabled()) {
            std::vector<obs::TraceArg> args = {
                {"function", function.str()},
                {"order", orderKeyToString(slot.order)}};
            if (caller != nullptr) {
                args.push_back({"kind", "callee"});
            } else {
                args.push_back({"control", at.afterUnresolvedBranch});
                args.push_back({"data", dataSpeculative});
            }
            tr.instant(obs::cat::kSpec, "speculative-launch", sim_.now(),
                       obs::kControlPlanePid, inv.result.id,
                       std::move(args));
        }
    }

    if (slot.isBranch)
        inv.openBranches.emplace(slot.order, true);
    speculateCallees(inv, slot);
    maybePromote(inv, slot);
    return slot;
}

SpecController::Frontier
SpecController::frontierAt(const Slot& s)
{
    Frontier f;
    f.flowIdx = s.flowNode;
    f.carry = s.input;
    f.source = s.inputSource;
    f.carryProducer = s.carryProducer;
    f.order = s.order;
    f.pathHash = s.pathHash;
    return f;
}

// ---------------------------------------------------------------------
// Explicit-workflow walk
// ---------------------------------------------------------------------

void
SpecController::walk(SpecInvocation& inv, Frontier f)
{
    OBS_ZONE(profiler_, "spec/walk");
    while (!inv.finished) {
        // A predicted carry may already be resolved: its producer
        // committed (validation implied) or completed with exactly
        // this value. Rewind/restart frontiers hit this after their
        // producer finished.
        if (f.source != InputSource::Actual && !f.carryProducer.empty()) {
            auto pit = inv.slots.find(f.carryProducer);
            const Slot* producer = pit == inv.slots.end()
                                       ? nullptr
                                       : slotArena_.get(pit->second);
            if (producer == nullptr ||
                (producer->completed && producer->output == f.carry)) {
                f.source = InputSource::Actual;
                f.carryProducer.clear();
            }
        }
        if (f.flowIdx == kFlowNone) {
            // End of the (possibly predicted) path: the carry is the
            // client response once everything commits.
            inv.responseValue = f.carry;
            inv.responseSeen = true;
            tryCommit(inv);
            return;
        }
        const FlowNode& node = inv.program->node(f.flowIdx);
        if (node.kind == FlowNode::Kind::Fork) {
            // Loops can bring execution back to the same fork while a
            // previous iteration's join is still collecting; park
            // until it dissolves (resumed on commits).
            if (inv.joins.count(node.join)) {
                inv.depthBlocked.push_back(std::move(f));
                return;
            }
            inv.forks.emplace(f.order, f);
            auto& js = inv.joins[node.join];
            js.pending = node.targets.size();
            js.outputs.assign(node.targets.size(), Value());
            for (std::size_t arm = 0; arm < node.targets.size(); ++arm) {
                Frontier af = f;
                af.flowIdx = node.targets[arm];
                af.order = f.order;
                af.order.push_back(static_cast<std::int32_t>(arm));
                af.order.push_back(0);
                walk(inv, std::move(af));
                if (inv.finished)
                    return;
            }
            return;
        }
        if (node.kind == FlowNode::Kind::Join) {
            // Only fully resolved arm outputs are deposited; an arm
            // arriving with a predicted carry parks until its
            // producer completes and re-walks the arm with the
            // actual value.
            if (f.source != InputSource::Actual) {
                SPECFAAS_ASSERT(!f.carryProducer.empty(),
                                "predicted join carry w/o producer");
                auto [bit, inserted] =
                    inv.blocked.emplace(f.carryProducer, f);
                (void)bit;
                SPECFAAS_ASSERT(inserted,
                                "double block on one producer");
                return;
            }
            auto it = inv.joins.find(f.flowIdx);
            SPECFAAS_ASSERT(it != inv.joins.end(), "join without fork");
            auto& js = it->second;
            SPECFAAS_ASSERT(f.order.size() >= 2, "join from base level");
            const auto arm =
                static_cast<std::size_t>(f.order[f.order.size() - 2]);
            SPECFAAS_ASSERT(arm < js.outputs.size(), "bad join arm");
            js.outputs[arm] = f.carry;
            SPECFAAS_ASSERT(js.pending > 0, "join underflow");
            if (--js.pending > 0)
                return;
            Value all = Value(std::move(js.outputs));
            inv.joins.erase(it);
            OrderKey base(f.order.begin(), f.order.end() - 2);
            f.flowIdx = node.next;
            f.carry = std::move(all);
            f.source = InputSource::Actual;
            f.carryProducer.clear();
            f.order = increment(std::move(base));
            continue;
        }

        // A function or branch node.
        const bool isBranch = node.kind == FlowNode::Kind::Branch;
        const std::uint64_t next_path =
            pathhash::extend(f.pathHash, node.function);

        // Already committed at this coordinate: a rewind walked back
        // over irrevocable work. Replay the committed outcome;
        // re-launching would double-apply its effects.
        if (auto cit = inv.committed.find(f.order);
            cit != inv.committed.end()) {
            const auto& cn = cit->second;
            SPECFAAS_ASSERT(cn.matches(node.function, f.carry) &&
                                f.source == InputSource::Actual,
                            "committed-replay mismatch at %s",
                            orderKeyToString(f.order).c_str());
            // Branch targets inherit the branch input: only a
            // function's output replaces the carry.
            if (isBranch) {
                f.flowIdx = cn.target;
            } else {
                f.carry = cn.output;
                f.flowIdx = node.next;
            }
            f.order = increment(f.order);
            f.pathHash = next_path;
            // Committed ⇒ every earlier branch is resolved.
            f.afterUnresolvedBranch = false;
            continue;
        }

        const FunctionDef& def = registry_.get(node.function);

        // `non-speculative` annotation (§VI): don't launch until
        // every predecessor has committed.
        if (def.nonSpeculativeAnnotation && !inv.slots.empty() &&
            orderKeyLess(inv.slots.begin()->first, f.order)) {
            inv.depthBlocked.push_back(std::move(f));
            return;
        }

        // Pure-function fast path (§V-B): skip execution on a memo
        // hit for an annotated pure function.
        if (!isBranch && config_.speculation && config_.memoization &&
            config_.pureFunctionSkip && def.pureAnnotation) {
            const MemoRow* row = memo_.table(node.function).lookup(f.carry);
            if (row != nullptr) {
                Slot& slot = newSlot(inv, node.function, f);
                slot.completed = true;
                slot.output = row->output;
                ++ctrPureSkips_;
                ++inv.result.memoHits;
                if (auto& tr = sim_.context().trace(); tr.enabled()) {
                    tr.instant(obs::cat::kSpec, "pure-skip", sim_.now(),
                               obs::kControlPlanePid, inv.result.id,
                               {{"function", node.function.str()}});
                }
                // Purity: input fully determines output, so the carry
                // keeps its source and producer.
                f.carry = row->output;
                f.flowIdx = node.next;
                f.order = increment(f.order);
                f.pathHash = next_path;
                tryCommit(inv);
                continue;
            }
        }

        const bool speculative =
            f.afterUnresolvedBranch || f.source != InputSource::Actual;
        if (speculative && inv.specLive >= effectiveSpecDepth()) {
            inv.depthBlocked.push_back(std::move(f));
            return;
        }

        const bool first =
            inv.slots.empty() && inv.result.functionsExecuted == 0;
        const Tick dispatch = fleet_.clusterConfig().sequenceTableDispatch;
        if (!first)
            inv.result.transferOverhead += dispatch;
        Slot& slot = launchSlot(
            inv, node.function, f,
            first ? fleet_.clusterConfig().platformOverhead : dispatch);
        // Every path below moves the walk past this node.
        f.order = increment(f.order);
        f.pathHash = next_path;

        if (isBranch) {
            // An outcome already observed during this invocation (a
            // rewind re-executing the branch) beats the predictor.
            auto hint = inv.branchHints.find(slot.order);
            if (hint != inv.branchHints.end() &&
                hint->second.matches(node.function, slot.input)) {
                slot.predictionMade = true;
                slot.predictedTarget = hint->second.target;
                if (auto& tr = sim_.context().trace(); tr.enabled()) {
                    tr.instant(obs::cat::kSpec, "branch-predict",
                               sim_.now(), obs::kControlPlanePid,
                               inv.result.id,
                               {{"function", node.function.str()},
                                {"source", "replay-hint"}});
                }
            } else if (config_.speculation && config_.branchPrediction) {
                auto pred = bp_.predict(
                    branchKey(node.function, slot.flowNode),
                    config_.bpPathHistory ? slot.pathHash
                                          : pathhash::kEmpty);
                if (pred && pred->target < node.targets.size()) {
                    slot.predictionMade = true;
                    slot.predictedTarget = node.targets[pred->target];
                    if (auto& tr = sim_.context().trace(); tr.enabled()) {
                        tr.instant(
                            obs::cat::kSpec, "branch-predict",
                            sim_.now(), obs::kControlPlanePid,
                            inv.result.id,
                            {{"function", node.function.str()},
                             {"source", "predictor"},
                             {"target", pred->target},
                             {"probability", pred->probability}});
                    }
                }
            }
            if (slot.predictionMade) {
                // Branch targets inherit the branch's input (§II-A):
                // carry, source and producer stay unchanged.
                f.flowIdx = slot.predictedTarget;
                f.afterUnresolvedBranch = true;
                continue;
            }
            // No usable prediction: wait for the branch to resolve
            // (the resume sets the target).
            inv.blocked.emplace(slot.order, std::move(f));
            return;
        }

        f.flowIdx = node.next;
        if (config_.speculation && config_.memoization) {
            // An output already observed during this invocation (a
            // rewind re-executing the function) beats the memo table:
            // the table only updates at commit and would replay a
            // stale prediction forever.
            const Value* predicted = nullptr;
            auto hint = inv.outputHints.find(slot.order);
            if (hint != inv.outputHints.end() &&
                hint->second.matches(node.function, slot.input)) {
                predicted = &hint->second.output;
            } else {
                const MemoRow* row =
                    memo_.table(node.function).lookup(slot.input);
                if (row != nullptr)
                    predicted = &row->output;
            }
            if (auto& tr = sim_.context().trace(); tr.enabled()) {
                tr.instant(obs::cat::kSpec,
                           predicted != nullptr ? "memo-hit" : "memo-miss",
                           sim_.now(), obs::kControlPlanePid,
                           inv.result.id,
                           {{"function", node.function.str()}});
            }
            if (predicted != nullptr) {
                // Data speculation: feed the memoized output to the
                // successor before this function completes.
                slot.outputFedForward = true;
                slot.memoPredictedOutput = *predicted;
                ++inv.result.memoHits;
                f.carry = *predicted;
                f.source = InputSource::Memoized;
                f.carryProducer = slot.order;
                continue;
            }
        }
        // No memoized output: the walk waits for this function.
        inv.blocked.emplace(slot.order, std::move(f));
        return;
    }
}

void
SpecController::resumeBlockedOn(SpecInvocation& inv, const Slot& slot)
{
    auto it = inv.blocked.find(slot.order);
    if (it == inv.blocked.end())
        return;
    Frontier f = std::move(it->second);
    inv.blocked.erase(it);

    if (slot.isBranch) {
        // The target inherits the branch's input; the walk resumes
        // past the branch, at the order and path recorded at block
        // time.
        const Frontier blockedAt = std::move(f);
        f = frontierAt(slot);
        f.flowIdx = slot.actualTarget;
        f.order = blockedAt.order;
        f.pathHash = blockedAt.pathHash;
    } else {
        // flowIdx was recorded at block time (the Func's successor).
        f.carry = slot.output;
        f.source = InputSource::Actual;
        f.carryProducer.clear();
    }
    f.afterUnresolvedBranch = inv.openBranches.anyBefore(f.order);
    walk(inv, std::move(f));
}

void
SpecController::rewind(SpecInvocation& inv, Frontier f, SquashReason reason)
{
    // A squash range starting inside a fork arm also kills the
    // sibling arms (everything later in program order dies), so the
    // walk must restart the whole fork, not just this arm.
    if (f.order.size() > 1) {
        auto fit = inv.forks.find(OrderKey{f.order.front()});
        if (fit != inv.forks.end()) // else an implicit-callee extension
            f = fit->second;
    }
    if (inv.openBranches.anyBefore(f.order))
        f.afterUnresolvedBranch = true;
    squashRange(inv, f.order, reason);
    walk(inv, std::move(f));
}

// ---------------------------------------------------------------------
// Squashing
// ---------------------------------------------------------------------

std::size_t
SpecController::squashRange(SpecInvocation& inv,
                            const OrderKey& from_ref,
                            SquashReason reason)
{
    OBS_ZONE(profiler_, "spec/squash");
    // Callers may pass a victim slot's own order; that slot is
    // destroyed below, so work on a copy.
    const OrderKey from = from_ref;
    const std::uint64_t squashId = nextSquashId_++;

    struct Relaunch
    {
        InstancePtr caller;
        std::size_t callSite;
        Symbol function;
        Value input;
        ValueCallback returnTo;
    };
    std::vector<Relaunch> relaunches;

    // Drop all speculative-callee bookkeeping pointing into the
    // squashed region in one compacting pass. Every pendingCallees
    // entry targets a live, not-yet-adopted slot, so the entries with
    // order >= from are exactly those whose slot dies below — this
    // replaces the old per-victim rescan of the whole map (quadratic
    // in deep cascades). The relaunches issued at the end of this
    // function may add fresh entries; they come after the purge in
    // event order, exactly as before.
    inv.pendingCallees.eraseIf([&from](const auto& e) {
        return !orderKeyLess(e.second, from);
    });

    // Snapshot the victims: retiring one pops it from inv.slots.
    SmallVector<SlotHandle, 8> victims;
    for (auto it = inv.slots.lower_bound(from); it != inv.slots.end();
         ++it)
        victims.push_back(it->second);
    const std::size_t nVictims = victims.size();

    for (std::size_t vi = nVictims; vi-- > 0;) {
        Slot& s = slotAt(victims[vi]);

        // An adopted callee whose caller survives is blocking that
        // caller at the call site: it must be relaunched with its
        // (already validated) arguments.
        if (s.adopted()) {
            Slot* caller = slotArena_.get(s.callerSlot);
            if (caller != nullptr &&
                orderKeyLess(caller->order, from) && caller->inst &&
                caller->inst->state != InstanceState::Dead) {
                relaunches.push_back(Relaunch{
                    caller->inst,
                    static_cast<std::size_t>(s.order.back()), s.function,
                    s.input, std::move(s.returnTo)});
            }
        }

        if (s.inst) {
            if (inv.buffer->hasColumn(s.inst->id))
                inv.buffer->invalidateColumn(s.inst->id);
            // Reason and squash id first: the interpreter's squash
            // trace events carry them.
            s.inst->squashReason = reason;
            s.inst->squashId = squashId;
            interp_.squash(s.inst, config_.squashPolicy);
            if (config_.squashPolicy == SquashPolicy::ContainerKill)
                ++inv.containerKillDebt;
        }

        if (s.launchedSpeculatively && !s.completed) {
            SPECFAAS_ASSERT(inv.specLive > 0, "specLive underflow");
            --inv.specLive;
        }

        ++ctrSquashes_;
        ++inv.result.squashes;
        // Reverse order: every removal must pop the current suffix
        // tail (no element shifting). popBackExpect asserts exactly
        // that — nothing in this loop (interpreter squash, container
        // release) re-enters the pipeline map, so a violation means a
        // new reentrant path and must be caught, not absorbed.
        inv.slots.popBackExpect(s.order);
        slotArena_.destroy(&s);
    }
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kSpec, "squash", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"reason", squashReasonName(reason)},
                    {"from", orderKeyToString(from)},
                    {"victims", nVictims},
                    {"id", squashId}});
    }
    SPECFAAS_ASSERT(inv.result.squashes < 20000,
                    "runaway squash loop:\n%s", debugDump().c_str());

    // Purge walk bookkeeping inside the squashed region: suffix
    // truncations over the order-indexed structures.
    inv.blocked.eraseFrom(from);
    inv.depthBlocked.remove_if([&from](const Frontier& f) {
        return !orderKeyLess(f.order, from);
    });
    for (auto it = inv.forks.lower_bound(from); it != inv.forks.end();
         ++it) {
        const FlowNode& fork = inv.program->node(it->second.flowIdx);
        inv.joins.erase(fork.join);
    }
    inv.forks.eraseFrom(from);
    inv.openBranches.eraseFrom(from);
    inv.responseSeen = false;

    for (auto& r : relaunches) {
        launchCalleeSlot(inv, r.caller, r.callSite, r.function,
                         std::move(r.input), InputSource::Actual,
                         std::move(r.returnTo));
    }
    return nVictims;
}

// ---------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------

void
SpecController::crashed(const InstancePtr& inst, FaultKind kind)
{
    auto* faults = sim_.faultInjector();
    SPECFAAS_ASSERT(faults != nullptr, "crash without an injector");
    if (inst->state == InstanceState::Dead)
        return;
    SpecInvocation* pinv = find(inst->invocation);
    if (pinv == nullptr || pinv->finished)
        return;
    SpecInvocation& inv = *pinv;
    Slot* slot = slotOf(inst);
    if (slot == nullptr)
        return; // a squash already removed this coordinate

    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFault, "crash", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"kind", faultKindName(kind)},
                    {"function", inst->def->name},
                    {"order", orderKeyToString(inst->order)}});
    }

    // Kill the handler immediately — no parked read or deferred side
    // effect may revive a crashed incarnation — but leave the slot in
    // place: the pipeline-level squash and re-walk run only after the
    // retry backoff, from recoverFromCrash.
    inst->squashReason = SquashReason::Fault;
    interp_.squash(inst, SquashPolicy::ContainerKill);

    const Symbol function = slot->function;
    const std::uint32_t attempt = ++inv.faultAttempts[slot->order];
    // Only a non-speculative slot can exhaust its retries: giving up
    // on a speculative coordinate could fail the request on work the
    // committed path never needed.
    if (slot->nonSpeculative && attempt >= faults->plan().maxAttempts) {
        faults->noteGaveUp(function.str());
        failInvocation(inv, function);
        return;
    }
    faults->noteRetry(function.str(), attempt);
    sim_.events().schedule(faults->backoffDelay(attempt),
                           [this, id = inst->invocation,
                            h = slotArena_.handleOf(*slot)]() {
                               recoverFromCrash(id, h);
                           });
}

void
SpecController::recoverFromCrash(InvocationId id, SlotHandle h)
{
    SpecInvocation* pinv = find(id);
    if (pinv == nullptr || pinv->finished)
        return;
    SpecInvocation& inv = *pinv;
    Slot* pslot = slotArena_.get(h);
    if (pslot == nullptr)
        return; // a wider squash already covered this coordinate
    Slot& slot = *pslot;

    if (slot.flowNode != kFlowNone) {
        // Explicit flow node: squash from the crash coordinate and
        // re-walk, exactly like a misprediction rewind (Figure 6).
        rewind(inv, frontierAt(slot), SquashReason::Fault);
    } else if (!slot.hasCaller()) {
        // Implicit root: everything hangs off it, so everything dies
        // with it; relaunch the root exactly as invoke() did.
        const Symbol root = slot.function;
        const Frontier at = frontierAt(slot);
        squashRange(inv, at.order, SquashReason::Fault);
        launchSlot(inv, root, at, fleet_.clusterConfig().platformOverhead);
    } else {
        // Implicit callee: the range squash itself relaunches it (and
        // any adopted descendants) under its surviving caller.
        const OrderKey from = slot.order;
        squashRange(inv, from, SquashReason::Fault);
    }
    resumeParkedReads(inv);
    tryCommit(inv);
}

void
SpecController::failInvocation(SpecInvocation& inv, Symbol function)
{
    // Retries exhausted at a non-speculative coordinate: the request
    // fails. Committed work stays committed (as on a real platform);
    // everything still in the pipeline is squashed unconditionally.
    squashRange(inv, OrderKey{}, SquashReason::Fault);
    inv.blocked.clear();
    inv.depthBlocked.clear();
    inv.joins.clear();
    inv.forks.clear();
    inv.pendingCallees.clear();
    inv.parkedReads.clear();
    inv.responseValue = FaultInjector::errorResponse(function.str());
    inv.responseSeen = true;
    finish(inv);
}

void
SpecController::onNodeFailure(NodeId node)
{
    // live_ iterates in id order, but failing an invocation mutates
    // it, so snapshot the handles and re-check liveness per victim.
    const std::vector<SlotHandle> handles = liveInvocationHandles();
    for (const SlotHandle h : handles) {
        while (true) {
            SpecInvocation* inv = invArena_.get(h);
            if (inv == nullptr || inv->finished)
                break;
            // Lowest live coordinate on the node first; each crash
            // marks its victim Dead, so the rescan terminates.
            InstancePtr victim;
            for (const auto& [order, sh] : inv->slots) {
                (void)order;
                const Slot& s = slotAt(sh);
                if (!s.inst ||
                    s.inst->state == InstanceState::Dead ||
                    s.inst->state == InstanceState::Committed ||
                    s.inst->container == nullptr ||
                    s.inst->node != node)
                    continue;
                victim = s.inst;
                break;
            }
            if (!victim)
                break;
            crashed(victim, FaultKind::NodeFailure);
        }
    }
}

// ---------------------------------------------------------------------
// Completion handling
// ---------------------------------------------------------------------

void
SpecController::completed(const InstancePtr& inst, Value output)
{
    OBS_ZONE(profiler_, "spec/completed");
    SpecInvocation& inv = invocationOf(inst);

    if (inst->container != nullptr) {
        fleet_.containers().release(*inst->container);
        inst->container = nullptr;
    }

    Slot* slot = slotOf(inst);
    SPECFAAS_ASSERT(slot != nullptr, "completion of unslotted %s",
                    inst->label().c_str());
    slot->completed = true;
    slot->output = std::move(output);
    if (slot->launchedSpeculatively) {
        SPECFAAS_ASSERT(inv.specLive > 0, "specLive underflow");
        --inv.specLive;
    }
    if (slot->isBranch)
        inv.openBranches.erase(slot->order);

    // Speculative callees spawned for call sites this function never
    // reached are garbage: the call prediction was wrong. Entries are
    // keyed (caller id, call site), so one caller's entries are a
    // contiguous run — no full-map scan.
    std::vector<OrderKey> garbage;
    for (auto pit = inv.pendingCallees.lower_bound({inst->id, 0});
         pit != inv.pendingCallees.end() && pit->first.first == inst->id;
         ++pit) {
        garbage.push_back(pit->second);
    }
    for (const auto& order : garbage) {
        auto git = inv.slots.find(order);
        if (git == inv.slots.end())
            continue;
        // Pending callees all rode on a predicted call.
        const Slot& g = slotAt(git->second);
        bp_.notePrediction(false);
        ++ctrControlMispredicts_;
        traceValidate(inv, "call", g.function, false);
        // Readers that consumed the garbage callee's buffered writes
        // consumed phantom data: squash from the earliest such
        // reader as well.
        OrderKey squash_from = order;
        if (g.inst) {
            for (InstanceId rd : inv.buffer->readersForwardedFrom(
                     g.inst->id)) {
                const OrderKey* ro = inv.buffer->columnOrder(rd);
                if (ro != nullptr &&
                    orderKeyLess(*ro, squash_from)) {
                    squash_from = *ro;
                }
            }
        }
        squashRange(inv, squash_from, SquashReason::ControlMispredict);
    }

    if (slot->flowNode == kFlowNone)
        onImplicitComplete(inv, *slot);
    else if (slot->isBranch)
        onBranchComplete(inv, *slot);
    else
        onFunctionComplete(inv, *slot);
}

void
SpecController::traceValidate(const SpecInvocation& inv, const char* kind,
                              Symbol function, bool correct)
{
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kSpec, "validate", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"kind", kind},
                    {"function", function.str()},
                    {"correct", correct}});
    }
}

void
SpecController::onBranchComplete(SpecInvocation& inv, Slot& slot)
{
    slot.actualTarget =
        inv.program->resolveBranch(slot.flowNode, slot.output);
    inv.branchHints[slot.order] =
        NodeRecord{slot.function, slot.input, {}, slot.actualTarget};
    if (slot.predictionMade) {
        traceValidate(inv, "control", slot.function,
                      slot.predictionHit());
        if (!slot.predictionHit()) {
            ++ctrControlMispredicts_;
            // The actual target inherits the branch's input.
            Frontier f = frontierAt(slot);
            f.flowIdx = slot.actualTarget;
            f.order = increment(slot.order);
            f.pathHash = pathhash::extend(slot.pathHash, slot.function);
            rewind(inv, std::move(f), SquashReason::ControlMispredict);
        }
    } else {
        resumeBlockedOn(inv, slot);
    }

    resumeParkedReads(inv);
    tryCommit(inv);
}

void
SpecController::onFunctionComplete(SpecInvocation& inv, Slot& slot)
{
    // Record an input-qualified replay hint: it only ever applies to
    // a re-execution of the same function with the same input.
    inv.outputHints[slot.order] =
        NodeRecord{slot.function, slot.input, slot.output};

    if (slot.outputFedForward) {
        const bool correct = slot.output == slot.memoPredictedOutput;
        traceValidate(inv, "data", slot.function, correct);
        if (!correct) {
            // Data misprediction (§V-B): successors consumed a stale
            // memoized output. Any frontier parked on this producer
            // (e.g. a join arm) is superseded by the rewind below.
            inv.blocked.erase(slot.order);
            ++ctrDataMispredicts_;
            Frontier f;
            f.flowIdx = inv.program->node(slot.flowNode).next;
            f.carry = slot.output;
            f.order = increment(slot.order);
            f.pathHash = pathhash::extend(slot.pathHash, slot.function);
            rewind(inv, std::move(f), SquashReason::DataMispredict);
        } else {
            // Prediction validated: consumers of this carry are now
            // running on confirmed inputs. A carry only ever flows
            // forward, so consumers sit strictly after the producer —
            // start the sweep there.
            for (auto it = inv.slots.lower_bound(slot.order);
                 it != inv.slots.end(); ++it) {
                Slot& s = slotAt(it->second);
                if (!s.inputActual() && s.carryProducer == slot.order) {
                    s.inputSource = InputSource::Actual;
                    s.carryProducer.clear();
                }
            }
            for (auto& f : inv.depthBlocked) {
                if (f.carryProducer == slot.order) {
                    f.source = InputSource::Actual;
                    f.carryProducer.clear();
                }
            }
            // A join arm may be parked on this producer even though
            // the prediction validated.
            resumeBlockedOn(inv, slot);
        }
    } else {
        resumeBlockedOn(inv, slot);
    }

    resumeParkedReads(inv);
    tryCommit(inv);
}

void
SpecController::onImplicitComplete(SpecInvocation& inv, Slot& slot)
{
    if (!slot.hasCaller()) {
        // Root function of an implicit application.
        inv.responseValue = slot.output;
        inv.responseSeen = true;
        resumeParkedReads(inv);
        tryCommit(inv);
        return;
    }

    if (slot.adopted()) {
        deliverCallee(inv, slot);
        // `slot` is dangling after deliverCallee; don't touch it.
    }
    resumeParkedReads(inv);
    tryCommit(inv);
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
SpecController::applyCommit(SpecInvocation& inv, const CommitRecord& c,
                            bool merged)
{
    // A record without an instance is a pure skip: it executed
    // nothing, so it teaches the tables nothing.
    if (c.inst) {
        // Memoization tables are only updated with committed,
        // validated data (§V-E). A committed instance is never read
        // again, so its call arguments move into the memo row.
        std::vector<CallSiteRecord>& sites = c.inst->callSites;
        if (config_.memoization) {
            MemoRow row;
            row.output = c.output;
            row.calleeArgs.reserve(static_cast<std::size_t>(
                std::count_if(sites.begin(), sites.end(),
                              [](const CallSiteRecord& r) {
                                  return r.taken;
                              })));
            for (CallSiteRecord& r : sites)
                if (r.taken)
                    row.calleeArgs.emplace(r.site, std::move(r.args));
            memo_.table(c.function).update(c.input, std::move(row));
        }
        // Learned sequence-table entries and call predictors for
        // implicit workflows (§V-D).
        for (const CallSiteRecord& r : sites) {
            if (r.taken)
                noteCallSite(c.function, r.site, r.callee);
            bp_.update(callKey(c.function, r.site),
                       config_.bpPathHistory ? c.pathHash
                                             : pathhash::kEmpty,
                       r.taken ? 1 : 0);
        }
        inv.result.containerCreation += c.inst->containerCreationTime;
        inv.result.runtimeSetup += c.inst->runtimeSetupTime;
        inv.result.platformOverhead += c.inst->platformOverheadTime;
        inv.result.execution += c.inst->execTime;
    }
    ++inv.result.functionsExecuted;
    inv.sequence.emplace_back(c.order, c.function);
    ++ctrCommits_;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        std::vector<obs::TraceArg> args = {
            {"function", c.function.str()},
            {"order", orderKeyToString(c.order)}};
        if (merged)
            args.push_back({"merged", 1});
        tr.instant(obs::cat::kSpec, "commit", sim_.now(),
                   obs::kControlPlanePid, inv.result.id, std::move(args));
    }
}

void
SpecController::noteCallSite(Symbol function, std::size_t call_site,
                             Symbol callee)
{
    CallSiteInfo& info = callGraph_[{function, call_site}];
    if (info.def != nullptr && info.callee == callee)
        return; // unchanged shape: keep the memoized derivation
    info.callee = callee;
    info.def = registry_.find(callee);
    info.nonSpec =
        info.def != nullptr && info.def->nonSpeculativeAnnotation;
    info.pure = info.def != nullptr && info.def->pureAnnotation;
}

void
SpecController::commitSlot(SpecInvocation& inv, Slot& slot)
{
    OBS_ZONE(profiler_, "spec/commit-slot");
    if (slot.inst && inv.buffer->hasColumn(slot.inst->id))
        inv.buffer->commitColumn(slot.inst->id);
    // Callees merged into this slot commit with it, in recorded
    // (program) order.
    for (const auto& p : slot.pending)
        applyCommit(inv, p, true);
    slot.pending.clear();
    if (slot.isBranch) {
        // The outcome the predictor learns is the index of the
        // resolved target among the branch's targets.
        const auto& targets = inv.program->node(slot.flowNode).targets;
        const auto outcome = static_cast<std::size_t>(
            std::find(targets.begin(), targets.end(), slot.actualTarget) -
            targets.begin());
        bp_.update(branchKey(slot.function, slot.flowNode),
                   config_.bpPathHistory ? slot.pathHash
                                         : pathhash::kEmpty,
                   outcome < targets.size() ? outcome : 0);
        if (slot.predictionMade)
            bp_.notePrediction(slot.predictionHit());
    }
    applyCommit(inv, slot, false);
    if (slot.flowNode != kFlowNone) {
        const bool fresh =
            inv.committed
                .emplace(slot.order,
                         NodeRecord{slot.function, slot.input, slot.output,
                                    slot.actualTarget})
                .second;
        SPECFAAS_ASSERT(fresh, "double commit at %s",
                        orderKeyToString(slot.order).c_str());
    }
    if (slot.inst)
        slot.inst->state = InstanceState::Committed;
    // Commit is strictly in-order: the committed slot is the pipeline
    // head, so retiring it advances the commit frontier — no erase,
    // no element shifting.
    SPECFAAS_ASSERT(!inv.slots.empty() &&
                        inv.slots.front().second == slotArena_.handleOf(slot),
                    "commit not at the pipeline head");
    inv.slots.popFront();
    slotArena_.destroy(&slot);
}

void
SpecController::tryCommit(SpecInvocation& inv)
{
    OBS_ZONE(profiler_, "spec/commit");
    if (inv.finished)
        return;
    while (!inv.slots.empty()) {
        Slot& head = slotAt(inv.slots.begin()->second);
        if (!head.completed || !head.inputActual())
            break;
        if (head.hasCaller() && !head.adopted())
            break;
        commitSlot(inv, head);
    }

    if (!inv.slots.empty()) {
        Slot& head = slotAt(inv.slots.begin()->second);
        maybePromote(inv, head);
    }
    resumeDepthBlocked(inv);

    if (inv.slots.empty() && inv.responseSeen && inv.blocked.empty() &&
        inv.depthBlocked.empty() && !inv.finished) {
        finish(inv);
    }
}

std::vector<SlotHandle>
SpecController::liveInvocationHandles() const
{
    std::vector<SlotHandle> out;
    out.reserve(live_.size());
    for (const auto& [id, h] : live_)
        out.push_back(h);
    return out;
}

std::vector<SlotHandle>
SpecController::liveSlotHandles() const
{
    std::vector<SlotHandle> out;
    for (const auto& [id, h] : live_)
        for (const auto& [order, sh] : invArena_.at(h).slots)
            out.push_back(sh);
    return out;
}

std::string
SpecController::debugDump() const
{
    std::string out;
    for (const auto& [id, h] : live_) {
        const SpecInvocation& inv = invArena_.at(h);
        out += strFormat("invocation %llu app=%s responseSeen=%d\n",
                         static_cast<unsigned long long>(id),
                         inv.result.app.c_str(),
                         inv.responseSeen ? 1 : 0);
        for (const auto& [order, sh] : inv.slots) {
            const Slot* slot = slotArena_.get(sh);
            if (slot == nullptr)
                continue;
            out += strFormat(
                "  slot %s %s node=%d completed=%d validated=%d "
                "adopted=%d state=%d\n",
                orderKeyToString(order).c_str(),
                slot->function.str().c_str(), slot->flowNode,
                slot->completed ? 1 : 0, slot->inputActual() ? 1 : 0,
                slot->adopted() ? 1 : 0,
                slot->inst ? static_cast<int>(slot->inst->state) : -1);
        }
        for (const auto& [order, f] : inv.blocked) {
            out += strFormat("  blocked-on %s -> node %d order %s\n",
                             orderKeyToString(order).c_str(), f.flowIdx,
                             orderKeyToString(f.order).c_str());
        }
        for (const auto& f : inv.depthBlocked) {
            out += strFormat("  depth-blocked node %d order %s\n",
                             f.flowIdx,
                             orderKeyToString(f.order).c_str());
        }
        for (const auto& [key, order] : inv.pendingCallees) {
            out += strFormat(
                "  pending callee caller=%llu cs=%zu order=%s\n",
                static_cast<unsigned long long>(key.first), key.second,
                orderKeyToString(order).c_str());
        }
    }
    return out;
}

void
SpecController::finish(SpecInvocation& inv)
{
    OBS_ZONE(profiler_, "spec/finish");
    inv.finished = true;
    inv.result.response = inv.responseValue;
    inv.result.completedAt = sim_.now();
    // End-to-end completion marker: invokeSync bypasses the platform
    // "response" wrapper, so the engine records it for the analyzer.
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kSpec, "complete", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"app", inv.result.app}});
    }
    std::sort(inv.sequence.begin(), inv.sequence.end(),
              [](const auto& a, const auto& b) {
                  return orderKeyLess(a.first, b.first);
              });
    inv.result.executedSequence.reserve(inv.sequence.size());
    for (const auto& [order, name] : inv.sequence) {
        (void)order;
        inv.result.executedSequence.push_back(name.str());
    }
    const std::size_t erased = live_.erase(inv.result.id);
    SPECFAAS_ASSERT(erased == 1, "finishing unknown invocation");
    // Frames up the completion stack still hold references to `inv`
    // (e.g. onFunctionComplete's tail after a resumeBlockedOn that
    // walked into this finish). Park its handle and destroy the
    // record at the event-loop boundary; `finished` (set above) turns
    // every later touch from those frames into a no-op. The drain
    // resolves through at(), so a double release panics. The daemon
    // event never keeps the simulation alive.
    auto done = std::move(inv.done);
    auto result = std::move(inv.result);
    graveyard_.push_back(invArena_.handleOf(inv));
    if (graveyard_.size() == 1) {
        sim_.events().scheduleDaemon(0, [this] {
            for (const SlotHandle h : graveyard_)
                invArena_.destroy(&invArena_.at(h));
            graveyard_.clear();
        });
    }
    done(std::move(result));
}

// ---------------------------------------------------------------------
// Promotion and parked work
// ---------------------------------------------------------------------

void
SpecController::maybePromote(SpecInvocation& inv, Slot& slot)
{
    if (slot.nonSpeculative)
        return;
    bool promote = false;
    if (slot.hasCaller()) {
        if (slot.adopted()) {
            const Slot* caller = slotArena_.get(slot.callerSlot);
            promote = caller != nullptr && caller->nonSpeculative;
        }
    } else {
        promote = !inv.slots.empty() &&
                  inv.slots.begin()->first == slot.order &&
                  slot.inputActual();
    }
    if (!promote)
        return;

    slot.nonSpeculative = true;
    auto parked = std::move(slot.parkedEffects);
    slot.parkedEffects.clear();
    for (auto& cb : parked)
        sim_.events().schedule(0, std::move(cb));

    // Cascade to adopted callees of this slot. A callee's order
    // extends its caller's with the call site, so the whole call
    // subtree sits in [slot.order, increment(slot.order)) — scan
    // that range, not the full pipeline. (The range also covers
    // deeper descendants; the callerSlot check keeps the cascade to
    // direct children, which recurse in turn.)
    if (slot.inst) {
        const OrderKey subtreeEnd = increment(slot.order);
        const SlotHandle self = slotArena_.handleOf(slot);
        SmallVector<SlotHandle, 8> children;
        for (auto it = inv.slots.lower_bound(slot.order);
             it != inv.slots.end() &&
             orderKeyLess(it->first, subtreeEnd);
             ++it) {
            const Slot& s = slotAt(it->second);
            if (s.callerSlot == self && s.adopted()) {
                children.push_back(it->second);
            }
        }
        for (const SlotHandle ch : children) {
            Slot* child = slotArena_.get(ch);
            if (child != nullptr)
                maybePromote(inv, *child);
        }
    }
}

void
SpecController::resumeDepthBlocked(SpecInvocation& inv)
{
    // Bounded pass: a frontier that re-parks itself (annotation gate
    // still closed, window still full) must not spin the loop.
    std::size_t remaining = inv.depthBlocked.size();
    while (remaining-- > 0 && !inv.depthBlocked.empty()) {
        if (inv.specLive >= effectiveSpecDepth())
            break;
        Frontier f = std::move(inv.depthBlocked.front());
        inv.depthBlocked.pop_front();
        walk(inv, std::move(f));
        if (inv.finished)
            return;
    }
}

void
SpecController::resumeParkedReads(SpecInvocation& inv)
{
    if (inv.finished || inv.parkedReads.empty())
        return;
    std::vector<ParkedRead> parked = std::move(inv.parkedReads);
    inv.parkedReads.clear();
    for (auto& p : parked) {
        if (p.reader->epoch != p.epoch ||
            p.reader->state == InstanceState::Dead) {
            continue; // squashed while parked (squash closed the span)
        }
        if (p.reader->stallSpanOpen) {
            p.reader->stallSpanOpen = false;
            if (auto& tr = sim_.context().trace(); tr.enabled()) {
                tr.end(obs::cat::kExec, "stall-read", sim_.now(),
                       obs::nodePid(p.reader->node), p.reader->id);
            }
        }
        // Re-attempt: if the stall condition still holds, the read
        // re-parks inside performRead's caller (storageGet).
        storageGet(p.reader, p.key, std::move(p.done));
    }
}

// ---------------------------------------------------------------------
// RuntimeHooks: storage, calls, side effects
// ---------------------------------------------------------------------

void
SpecController::performRead(SpecInvocation& inv, const InstancePtr& inst,
                            const std::string& key,
                            ValueCallback done)
{
    BufferReadResult r = inv.buffer->read(inst->id, key);
    if (r.forwarded) {
        if (auto& tr = sim_.context().trace(); tr.enabled()) {
            tr.instant(obs::cat::kSpec, "buffer-forward", sim_.now(),
                       obs::kControlPlanePid, inv.result.id,
                       {{"function", inst->def->name}, {"key", key}});
        }
        // Served by the Data Buffer on the controller node.
        auto forward = [v = std::move(*r.value),
                        done = std::move(done)]() mutable {
            done(std::move(v));
        };
        static_assert(
            EventQueue::Callback::fitsInline<decltype(forward)>());
        sim_.events().schedule(fleet_.clusterConfig().controllerMsgLatency,
                               std::move(forward));
        return;
    }
    auto read = [this, key, done = std::move(done)]() mutable {
        auto v = store_.get(key);
        done(v ? std::move(*v) : Value());
    };
    static_assert(EventQueue::Callback::fitsInline<decltype(read)>());
    sim_.events().schedule(store_.latency().readLatency, std::move(read));
}

void
SpecController::storageGet(const InstancePtr& inst, const std::string& key,
                           ValueCallback done)
{
    OBS_ZONE(profiler_, "spec/storage-get");
    SpecInvocation& inv = invocationOf(inst);
    Slot* slot = slotOf(inst);
    SPECFAAS_ASSERT(slot != nullptr, "read from unslotted instance");

    // Squash minimizer (§V-C): a read known to race with an upstream
    // producer stalls until the producer writes the record or
    // completes.
    if (config_.speculation && !slot->nonSpeculative) {
        auto producer = minimizer_.stallProducer(slot->function, key);
        if (producer) {
            for (const auto& [order, sh] : inv.slots) {
                if (!orderKeyLess(order, slot->order))
                    break;
                const Slot& s = slotAt(sh);
                if (s.function != *producer || s.completed || !s.inst ||
                    inv.buffer->hasWrite(s.inst->id, key)) {
                    continue;
                }
                // Never stall on a caller ancestor: it is (or will
                // be) blocked at a call site waiting for this very
                // subtree, so "wait until the producer writes or
                // completes" would deadlock. Its pre-call writes are
                // ordered by the Data Buffer anyway.
                bool is_ancestor = false;
                for (const FunctionInstance* c = inst->caller;
                     c != nullptr; c = c->caller) {
                    if (c->id == s.inst->id) {
                        is_ancestor = true;
                        break;
                    }
                }
                if (is_ancestor)
                    continue;
                // Park until the producer writes or completes.
                minimizer_.noteStall();
                ++ctrStalledReads_;
                if (auto& tr = sim_.context().trace(); tr.enabled()) {
                    tr.instant(obs::cat::kSpec, "stall-read",
                               sim_.now(), obs::kControlPlanePid,
                               inv.result.id,
                               {{"function", inst->def->name},
                                {"key", key}});
                    // Stall interval on the exec track, nested in the
                    // instance's exec span; ended on resume or squash.
                    tr.begin(obs::cat::kExec, "stall-read", sim_.now(),
                             obs::nodePid(inst->node), inst->id,
                             {{"key", key}});
                    inst->stallSpanOpen = true;
                }
                inst->state = InstanceState::StalledRead;
                inv.parkedReads.push_back(
                    ParkedRead{inst, inst->epoch, key, std::move(done)});
                return;
            }
        }
    }

    performRead(inv, inst, key, std::move(done));
}

void
SpecController::storagePut(const InstancePtr& inst, const std::string& key,
                           Value value, DoneCallback done)
{
    OBS_ZONE(profiler_, "spec/storage-put");
    SpecInvocation& inv = invocationOf(inst);
    Slot* slot = slotOf(inst);
    SPECFAAS_ASSERT(slot != nullptr, "write from unslotted instance");

    auto violators = inv.buffer->write(inst->id, key, std::move(value));
    if (!violators.empty()) {
        // Out-of-order RAW (§V-C): squash the earliest premature
        // reader and everything after it; the squashed functions are
        // relaunched on correct Data Buffer state.
        const Slot* reader = nullptr;
        for (InstanceId v : violators) {
            const OrderKey* vo = inv.buffer->columnOrder(v);
            if (vo != nullptr &&
                (reader == nullptr || orderKeyLess(*vo, reader->order)))
                reader = &slotAt(inv.slots.at(*vo));
        }
        if (reader != nullptr) {
            ++ctrBufferViolations_;
            if (auto& tr = sim_.context().trace(); tr.enabled()) {
                tr.instant(obs::cat::kSpec, "buffer-violation",
                           sim_.now(), obs::kControlPlanePid,
                           inv.result.id,
                           {{"writer", slot->function.str()},
                            {"reader", reader->function.str()},
                            {"key", key}});
            }
            minimizer_.recordSquash(slot->function, reader->function, key);

            // Squashed explicit work re-walks from the reader's own
            // coordinate; callees are relaunched by the squash itself.
            if (reader->flowNode != kFlowNone)
                rewind(inv, frontierAt(*reader),
                       SquashReason::BufferViolation);
            else
                squashRange(inv, reader->order,
                            SquashReason::BufferViolation);
        }
    }

    // A buffered write may unblock parked reads waiting for this
    // producer/record pair.
    resumeParkedReads(inv);

    auto ack = [done = std::move(done)]() mutable { done(); };
    static_assert(EventQueue::Callback::fitsInline<decltype(ack)>());
    sim_.events().schedule(fleet_.clusterConfig().controllerMsgLatency,
                           std::move(ack));
}

void
SpecController::httpRequest(const InstancePtr& inst,
                            DoneCallback done)
{
    SpecInvocation& inv = invocationOf(inst);
    Slot* slot = slotOf(inst);
    SPECFAAS_ASSERT(slot != nullptr, "http from unslotted instance");
    if (slot->nonSpeculative) {
        done();
        return;
    }
    // Deferred side effect (§VI): suspend until non-speculative.
    ++ctrDeferredSideEffects_;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kSpec, "defer-side-effect", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"function", slot->function.str()}});
    }
    inst->state = InstanceState::StalledSideEffect;
    slot->parkedEffects.push_back(std::move(done));
}

// ---------------------------------------------------------------------
// Implicit workflows: speculative callees
// ---------------------------------------------------------------------

void
SpecController::launchCalleeSlot(SpecInvocation& inv,
                                 const InstancePtr& caller,
                                 std::size_t call_site, Symbol callee,
                                 Value args, InputSource source,
                                 ValueCallback return_to)
{
    OBS_ZONE(profiler_, "spec/launch-callee");
    Slot* caller_slot = slotOf(caller);
    SPECFAAS_ASSERT(caller_slot != nullptr, "call from unslotted");
    Frontier at;
    at.carry = std::move(args);
    at.source = source;
    at.order = caller_slot->order;
    at.order.push_back(static_cast<std::int32_t>(call_site));
    at.pathHash =
        pathhash::extend(caller_slot->pathHash,
                         callSiteHash(caller_slot->function, call_site));
    // Predicted arguments come with a predicted call (§V-D).
    at.afterUnresolvedBranch = source != InputSource::Actual;
    launchSlot(inv, callee, at, fleet_.clusterConfig().controllerMsgLatency,
               caller_slot, std::move(return_to));
}

void
SpecController::speculateCallees(SpecInvocation& inv, Slot& slot)
{
    OBS_ZONE(profiler_, "spec/speculate-callees");
    // Implicit speculation needs both mechanisms (§VIII-B): the
    // memoization row supplies the callee arguments and the call
    // predictor decides whether the call site will execute.
    if (!config_.speculation || !config_.memoization ||
        !config_.branchPrediction) {
        return;
    }
    if (!slot.inst)
        return;

    const MemoRow* row = memo_.table(slot.function).lookup(slot.input);
    if (row == nullptr)
        return;

    for (const auto& [cs, args] : row->calleeArgs) {
        auto git = callGraph_.find({slot.function, cs});
        if (git == callGraph_.end())
            continue;
        // Eligibility was derived once at commit-time learning and
        // memoized on the call-graph entry (registry def + annotation
        // gates) — no registry probe per candidate.
        const CallSiteInfo& site = git->second;
        if (site.nonSpec)
            continue; // never launched early (§VI)
        if (config_.pureFunctionSkip && site.pure &&
            memo_.table(site.callee).lookup(args) != nullptr) {
            continue; // the call site will skip it entirely (§V-B)
        }
        auto pred = bp_.predict(callKey(slot.function, cs),
                                config_.bpPathHistory
                                    ? slot.pathHash
                                    : pathhash::kEmpty);
        if (!pred || pred->target != 1)
            continue; // predicted not-taken or unknown
        if (inv.specLive >= effectiveSpecDepth())
            break;
        launchCalleeSlot(inv, slot.inst, cs, site.callee, args,
                         InputSource::Memoized, nullptr);
    }
}

void
SpecController::deliverCallee(SpecInvocation& inv, Slot& slot)
{
    SPECFAAS_ASSERT(slot.completed && slot.adopted() && slot.inputActual(),
                    "delivering unready callee %s",
                    slot.function.str().c_str());

    Slot* caller_ptr = slotArena_.get(slot.callerSlot);
    SPECFAAS_ASSERT(caller_ptr != nullptr, "deliver without caller");
    Slot& caller = *caller_ptr;

    // Merge the callee's Data Buffer column into the caller's (§V-D).
    if (slot.inst && inv.buffer->hasColumn(slot.inst->id))
        inv.buffer->mergeColumn(slot.inst->id, caller.inst->id);

    // Commit-time effects (table updates, accounting) are deferred to
    // the caller's own commit: the caller may still be squashed, and
    // tables must never absorb speculative data (§V-E).
    caller.pending.insert(caller.pending.end(),
                          std::make_move_iterator(slot.pending.begin()),
                          std::make_move_iterator(slot.pending.end()));
    slot.pending.clear();
    caller.pending.push_back(static_cast<const CommitRecord&>(slot));

    Value output = slot.output;
    auto cb = std::move(slot.returnTo);
    if (slot.inst)
        slot.inst->state = InstanceState::Committed;
    inv.slots.erase(slot.order);
    slotArena_.destroy(&slot);

    auto deliver = [out = std::move(output), cb = std::move(cb)]() mutable {
        cb(std::move(out));
    };
    static_assert(EventQueue::Callback::fitsInline<decltype(deliver)>());
    sim_.events().schedule(fleet_.clusterConfig().controllerMsgLatency,
                           std::move(deliver));
}

void
SpecController::functionCall(const InstancePtr& inst,
                             std::size_t call_site, Symbol callee,
                             Value args, ValueCallback done)
{
    OBS_ZONE(profiler_, "spec/function-call");
    SpecInvocation& inv = invocationOf(inst);

    const Tick dispatch = fleet_.clusterConfig().sequenceTableDispatch;
    inv.result.transferOverhead += dispatch;

    auto key = std::make_pair(inst->id, call_site);
    auto pit = inv.pendingCallees.find(key);
    if (pit != inv.pendingCallees.end()) {
        auto sit = inv.slots.find(pit->second);
        SPECFAAS_ASSERT(sit != inv.slots.end(), "stale pending callee");
        Slot& cs_slot = slotAt(sit->second);
        if (cs_slot.input == args) {
            // Predicted arguments confirmed: adopt the speculative
            // callee (Fig. 10(e): the caller stalls only if the
            // callee has not finished yet).
            inv.pendingCallees.erase(pit);
            cs_slot.inputSource = InputSource::Actual;
            cs_slot.returnTo = std::move(done);
            bp_.notePrediction(true);
            ++inv.result.memoHits;
            maybePromote(inv, cs_slot);
            if (cs_slot.completed) {
                deliverCallee(inv, cs_slot);
            } else {
                inst->state = InstanceState::StalledCallee;
            }
            return;
        }
        // Argument misprediction: squash the speculative callee (and
        // everything after it) and perform the call for real.
        ++ctrDataMispredicts_;
        squashRange(inv, cs_slot.order, SquashReason::DataMispredict);
    }

    // Pure-function skip (§V-B): a pure callee with a memoized row
    // for these exact arguments never launches — its output comes
    // straight from the table.
    if (config_.speculation && config_.memoization &&
        config_.pureFunctionSkip) {
        const FunctionDef* cd = registry_.find(callee);
        if (cd != nullptr && cd->pureAnnotation) {
            const MemoRow* row = memo_.table(callee).lookup(args);
            if (row != nullptr) {
                ++ctrPureSkips_;
                ++inv.result.memoHits;
                Slot* caller_slot = slotOf(inst);
                SPECFAAS_ASSERT(caller_slot != nullptr,
                                "call from unslotted caller");
                // The skipped callee still commits with its caller, as
                // an instance-less record.
                CommitRecord record;
                record.order = caller_slot->order;
                record.order.push_back(
                    static_cast<std::int32_t>(call_site));
                record.function = callee;
                caller_slot->pending.push_back(std::move(record));
                auto skip = [out = row->output,
                             done = std::move(done)]() mutable {
                    done(std::move(out));
                };
                static_assert(
                    EventQueue::Callback::fitsInline<decltype(skip)>());
                sim_.events().schedule(dispatch, std::move(skip));
                return;
            }
        }
    }

    // The arguments stay on the caller's call-site record (the
    // interpreter keeps them there); the dispatch leg carries ids.
    inst->state = InstanceState::StalledCallee;
    auto launchCallee = [this, inst, call_site, callee,
                         done = std::move(done)]() mutable {
        SpecInvocation* inv2 = find(inst->invocation);
        if (inv2 == nullptr || inst->state == InstanceState::Dead)
            return;
        launchCalleeSlot(*inv2, inst, call_site, callee,
                         inst->callArgs(call_site), InputSource::Actual,
                         std::move(done));
    };
    static_assert(
        EventQueue::Callback::fitsInline<decltype(launchCallee)>());
    sim_.events().schedule(dispatch, std::move(launchCallee));
}

} // namespace specfaas

