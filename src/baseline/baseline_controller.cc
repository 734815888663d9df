#include "baseline_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/sim_context.hh"

namespace specfaas {

BaselineController::BaselineController(Simulation& sim, Fleet& fleet,
                                       KvStore& store,
                                       const FunctionRegistry& registry)
    : sim_(sim),
      fleet_(fleet),
      store_(store),
      registry_(registry),
      interp_(sim, fleet, *this),
      launcher_(sim, fleet, registry, interp_),
      profiler_(sim.context().profiler())
{
}

BaselineController::~BaselineController()
{
    counters_.mergeInto(sim_.context().counters());
}

std::vector<SlotHandle>
BaselineController::liveInvocationHandles() const
{
    std::vector<SlotHandle> out;
    for (const auto& [id, h] : live_)
        out.push_back(h);
    return out;
}

const FlowProgram&
BaselineController::compiled(const Application& app)
{
    auto it = programs_.find(&app);
    if (it == programs_.end())
        it = programs_.emplace(&app, compileWorkflow(app)).first;
    return it->second;
}

void
BaselineController::invoke(const Application& app, Value input,
                           ResultCallback done)
{
    OBS_ZONE(profiler_, "base/invoke");
    const InvocationId id = sim_.context().nextInvocationId();

    // Admission control: shed load when the control plane is backed
    // up (OpenWhisk returns 429 TooManyRequests).
    if (fleet_.controller().queueLength() >
        fleet_.clusterConfig().admissionQueueLimit) {
        InvocationResult rejected;
        rejected.id = id;
        rejected.app = app.name;
        rejected.submittedAt = sim_.now();
        rejected.completedAt = sim_.now();
        rejected.rejected = true;
        ++ctrRejections_;
        if (auto& tr = sim_.context().trace(); tr.enabled()) {
            tr.instant(obs::cat::kBaseline, "reject", sim_.now(),
                       obs::kControlPlanePid, id, {{"app", app.name}});
        }
        done(std::move(rejected));
        return;
    }

    ++ctrInvocations_;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kBaseline, "invoke", sim_.now(),
                   obs::kControlPlanePid, id, {{"app", app.name}});
    }

    const SlotHandle h = invArena_.create();
    Invocation& ref = invArena_.at(h);
    ref.self = h;
    ref.app = &app;
    ref.done = std::move(done);
    ref.result.id = id;
    ref.result.app = app.name;
    ref.result.submittedAt = sim_.now();
    // Typically one committed record per defined function.
    ref.sequence.reserve(app.functions.size());
    ref.instances.reserve(app.functions.size());
    live_[id] = h;

    if (app.type == WorkflowType::Explicit) {
        ref.program = &compiled(app);
        continueAt(ref, ref.program->entry, std::move(input), OrderKey{0});
    } else {
        dispatch(ref, kFlowNone, std::move(input), OrderKey{0});
    }
}

BaselineController::Invocation&
BaselineController::invocationOf(const InstancePtr& inst)
{
    Invocation* inv = invArena_.get(inst->slotHandle);
    SPECFAAS_ASSERT(inv != nullptr, "instance %s of dead invocation",
                    inst->label().c_str());
    return *inv;
}

void
BaselineController::dispatch(Invocation& inv, FlowIndex idx, Value input,
                             OrderKey order)
{
    OBS_ZONE(profiler_, "base/dispatch");
    const Symbol fname =
        idx == kFlowNone
            ? (order == OrderKey{0} ? Symbol(inv.app->rootFunction)
                                    : Symbol())
            : inv.program->node(idx).function;
    SPECFAAS_ASSERT(!fname.empty(), "dispatch without function");

    LaunchSpec spec;
    spec.function = fname;
    spec.input = std::move(input);
    spec.invocation = inv.result.id;
    spec.order = std::move(order);
    spec.flowNode = idx;
    spec.preOverhead = fleet_.clusterConfig().platformOverhead;
    spec.controllerService = fleet_.clusterConfig().baselineLaunchService;
    ++inv.liveInstances;
    ++ctrDispatches_;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kBaseline, "dispatch", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"function", fname.str()}});
    }
    InstancePtr inst = launcher_.launch(std::move(spec));
    inst->slotHandle = inv.self;
    inv.instances[inst->id] = std::move(inst);
}

void
BaselineController::continueAt(Invocation& inv, FlowIndex idx, Value carry,
                               OrderKey order)
{
    OBS_ZONE(profiler_, "base/continue-at");
    if (idx == kFlowNone) {
        finish(inv, std::move(carry));
        return;
    }
    const FlowNode& node = inv.program->node(idx);
    switch (node.kind) {
      case FlowNode::Kind::Func:
      case FlowNode::Kind::Branch:
        dispatch(inv, idx, std::move(carry), std::move(order));
        return;
      case FlowNode::Kind::Fork: {
        auto& join = inv.joins[node.join];
        join.pending = node.targets.size();
        join.outputs.assign(node.targets.size(), Value());
        for (std::size_t arm = 0; arm < node.targets.size(); ++arm) {
            OrderKey arm_order = order;
            arm_order.push_back(static_cast<std::int32_t>(arm));
            arm_order.push_back(0);
            continueAt(inv, node.targets[arm], carry,
                       std::move(arm_order));
        }
        return;
      }
      case FlowNode::Kind::Join: {
        auto it = inv.joins.find(idx);
        SPECFAAS_ASSERT(it != inv.joins.end(), "join without fork");
        auto& join = it->second;
        // The arm index is the second-to-last component of the order
        // key laid down at the fork.
        SPECFAAS_ASSERT(order.size() >= 2, "join from non-arm order key");
        const auto arm = static_cast<std::size_t>(order[order.size() - 2]);
        SPECFAAS_ASSERT(arm < join.outputs.size(), "bad arm index");
        join.outputs[arm] = std::move(carry);
        SPECFAAS_ASSERT(join.pending > 0, "join underflow");
        if (--join.pending == 0) {
            Value all = Value(std::move(join.outputs));
            inv.joins.erase(it);
            OrderKey next_order(order.begin(), order.end() - 2);
            next_order.back() += 1;
            continueAt(inv, node.next, std::move(all),
                       std::move(next_order));
        }
        return;
      }
    }
    panic("unreachable flow node kind");
}

void
BaselineController::stepFlow(Invocation& inv, const InstancePtr& inst,
                             const Value& output)
{
    OBS_ZONE(profiler_, "base/step-flow");
    const FlowIndex idx = inst->flowNode;
    if (idx == kFlowNone) {
        // Implicit root function: its output is the response.
        finish(inv, output);
        return;
    }
    const FlowNode& node = inv.program->node(idx);
    FlowIndex next;
    Value carry;
    if (node.kind == FlowNode::Kind::Branch) {
        // Branch targets inherit the branch function's input (§II-A);
        // only the choice of target depends on the output.
        next = inv.program->resolveBranch(idx, output);
        carry = inst->env.input;
    } else {
        next = node.next;
        carry = output;
    }

    OrderKey next_order = inst->order;
    next_order.back() += 1;

    // Worker → controller message, conductor execution, controller →
    // worker launch: the Transfer Function Overhead of Fig. 3.
    const Tick transfer = fleet_.clusterConfig().conductorOverhead;
    inv.result.transferOverhead += transfer;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kBaseline, "conductor", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"after", inst->def->name}});
    }
    const SlotHandle h = inv.self;
    sim_.events().schedule(transfer, [this, h, next, carry,
                                      next_order]() mutable {
        Invocation* pinv = invArena_.get(h);
        if (pinv == nullptr)
            return;
        continueAt(*pinv, next, std::move(carry),
                   std::move(next_order));
    });
}

void
BaselineController::completed(const InstancePtr& inst, Value output)
{
    OBS_ZONE(profiler_, "base/completed");
    Invocation& inv = invocationOf(inst);

    if (inst->container != nullptr) {
        fleet_.containers().release(*inst->container);
        inst->container = nullptr;
    }

    // Accounting.
    ++ctrCompletions_;
    ++inv.result.functionsExecuted;
    inv.sequence.emplace_back(inst->order, inst->def->sym);
    inv.result.containerCreation += inst->containerCreationTime;
    inv.result.runtimeSetup += inst->runtimeSetupTime;
    inv.result.platformOverhead += inst->platformOverheadTime;
    inv.result.execution += inst->execTime;
    SPECFAAS_ASSERT(inv.liveInstances > 0, "live-instance underflow");
    --inv.liveInstances;
    inv.instances.erase(inst->id);
    // A completed callee's writes stay attached to its caller: if the
    // caller later crashes, its whole attempt — nested calls included —
    // rolls back before the retry, mirroring the spec engine where a
    // returning callee's buffer column merges into its caller's. Only
    // a root's writes become final here (the request is done).
    if (auto uit = inv.undo.find(inst->id); uit != inv.undo.end()) {
        std::vector<UndoEntry> entries = std::move(uit->second);
        inv.undo.erase(uit);
        if (inst->caller != nullptr) {
            auto& up = inv.undo[inst->caller->id];
            up.insert(up.end(),
                      std::make_move_iterator(entries.begin()),
                      std::make_move_iterator(entries.end()));
        }
    }
    inst->state = InstanceState::Committed;

    if (inst->caller != nullptr) {
        // Implicit callee: the caller's continuation (stored by
        // functionCall) gets the result one RPC hop later.
        auto it = inv.callReturns.find(inst->id);
        SPECFAAS_ASSERT(it != inv.callReturns.end(),
                        "callee without return");
        auto ret = [out = std::move(output),
                    done = std::move(it->second)]() mutable {
            done(std::move(out));
        };
        inv.callReturns.erase(it);
        static_assert(EventQueue::Callback::fitsInline<decltype(ret)>());
        sim_.events().schedule(fleet_.clusterConfig().rpcLatency,
                               std::move(ret));
        return;
    }

    stepFlow(inv, inst, output);
}

void
BaselineController::storageGet(const InstancePtr& inst,
                               const std::string& key,
                               ValueCallback done)
{
    OBS_ZONE(profiler_, "base/storage-get");
    (void)inst;
    auto read = [this, key, done = std::move(done)]() mutable {
        auto v = store_.get(key);
        done(v ? std::move(*v) : Value());
    };
    static_assert(EventQueue::Callback::fitsInline<decltype(read)>());
    sim_.events().schedule(store_.latency().readLatency, std::move(read));
}

void
BaselineController::storagePut(const InstancePtr& inst,
                               const std::string& key, Value value,
                               DoneCallback done)
{
    OBS_ZONE(profiler_, "base/storage-put");
    const std::uint64_t epoch = inst->epoch;
    auto write =
        [this, inst, epoch, key, value = std::move(value),
         done = std::move(done)]() mutable {
            // A write in flight when its handler crashed never
            // reaches the store (without faults the baseline never
            // squashes, so this guard is inert).
            if (inst->epoch != epoch ||
                inst->state == InstanceState::Dead)
                return;
            if (sim_.faultInjector() != nullptr) {
                // Attempt-scoped undo log: capture the prior value so
                // a later crash of this handler rolls the write back.
                if (Invocation* pinv = invArena_.get(inst->slotHandle);
                    pinv != nullptr) {
                    pinv->undo[inst->id].emplace_back(
                        key, store_.peek(key));
                }
            }
            store_.put(key, std::move(value));
            done();
        };
    static_assert(EventQueue::Callback::fitsInline<decltype(write)>());
    sim_.events().schedule(store_.latency().writeLatency, std::move(write));
}

void
BaselineController::functionCall(const InstancePtr& inst,
                                 std::size_t call_site,
                                 Symbol callee, Value args,
                                 ValueCallback done)
{
    OBS_ZONE(profiler_, "base/function-call");

    Invocation& inv = invocationOf(inst);
    const Tick rpc = fleet_.clusterConfig().rpcLatency;
    inv.result.transferOverhead += 2 * rpc;
    inst->state = InstanceState::StalledCallee;

    // The arguments stay on the caller's call-site record (the
    // interpreter keeps them there); the RPC leg carries only ids.
    (void)args;
    const SlotHandle h = inv.self;
    const InstanceId callerId = inst->id;
    auto launchCallee = [this, h, callerId, callee, call_site,
                         done = std::move(done)]() mutable {
        Invocation* pinv = invArena_.get(h);
        if (pinv == nullptr)
            return;
        Invocation& inv2 = *pinv;
        // The caller crashed while the RPC was in flight: its retried
        // incarnation re-issues the call.
        auto cit = inv2.instances.find(callerId);
        if (cit == inv2.instances.end())
            return;
        FunctionInstance* caller = cit->second.get();

        OrderKey order = caller->order;
        order.push_back(static_cast<std::int32_t>(call_site));

        LaunchSpec spec;
        spec.function = callee;
        spec.input = caller->callArgs(call_site);
        spec.invocation = inv2.result.id;
        spec.order = std::move(order);
        spec.flowNode = kFlowNone;
        spec.preOverhead = fleet_.clusterConfig().platformOverhead;
        spec.controllerService =
            fleet_.clusterConfig().baselineLaunchService;
        spec.caller = caller;
        ++inv2.liveInstances;
        InstancePtr callee_inst = launcher_.launch(std::move(spec));
        callee_inst->slotHandle = h;
        inv2.instances[callee_inst->id] = callee_inst;
        // completed() sends the result one more RPC hop back.
        inv2.callReturns[callee_inst->id] = std::move(done);
    };
    static_assert(
        EventQueue::Callback::fitsInline<decltype(launchCallee)>());
    sim_.events().schedule(rpc, std::move(launchCallee));
}

void
BaselineController::httpRequest(const InstancePtr& inst,
                                DoneCallback done)
{
    // Nothing speculative in the baseline: requests go out directly.
    (void)inst;
    done();
}

void
BaselineController::teardown(Invocation& inv, const InstancePtr& inst)
{
    // Roll back this attempt's storage writes, newest first, restoring
    // what each write overwrote.
    if (auto uit = inv.undo.find(inst->id); uit != inv.undo.end()) {
        for (auto rit = uit->second.rbegin(); rit != uit->second.rend();
             ++rit) {
            if (rit->second.has_value())
                store_.put(rit->first, *rit->second);
            else
                store_.erase(rit->first);
        }
        inv.undo.erase(uit);
    }
    inv.callReturns.erase(inst->id);
    inst->squashReason = SquashReason::Fault;
    // The container dies with the handler: a crash takes out the
    // whole sandbox, so there is no process to kill selectively.
    interp_.squash(inst, SquashPolicy::ContainerKill);
    SPECFAAS_ASSERT(inv.liveInstances > 0, "live-instance underflow");
    --inv.liveInstances;
    inv.instances.erase(inst->id);
}

void
BaselineController::crashed(const InstancePtr& inst, FaultKind kind)
{
    OBS_ZONE(profiler_, "base/crashed");
    auto* faults = sim_.faultInjector();
    SPECFAAS_ASSERT(faults != nullptr, "crash without an injector");
    Invocation* pinv = invArena_.get(inst->slotHandle);
    if (pinv == nullptr || inst->state == InstanceState::Dead)
        return;
    Invocation& inv = *pinv;

    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFault, "crash", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"kind", faultKindName(kind)},
                    {"function", inst->def->name},
                    {"order", orderKeyToString(inst->order)}});
    }

    // Save the callee-return continuation before teardown drops it;
    // a retried incarnation re-registers it under its new id.
    ValueCallback ret;
    if (inst->caller != nullptr) {
        auto rit = inv.callReturns.find(inst->id);
        SPECFAAS_ASSERT(rit != inv.callReturns.end(),
                        "crashed callee without return path");
        ret = std::move(rit->second);
    }

    // Kill the crashed handler's live callee subtree, deepest first:
    // their RPC return paths died with their callers, and the retried
    // handler re-issues every call.
    std::vector<InstancePtr> subtree;
    for (const auto& [iid, p] : inv.instances) {
        (void)iid;
        if (p.get() != inst.get() &&
            orderKeyIsPrefix(inst->order, p->order))
            subtree.push_back(p);
    }
    std::sort(subtree.begin(), subtree.end(),
              [](const InstancePtr& a, const InstancePtr& b) {
                  return orderKeyLess(b->order, a->order);
              });
    for (const InstancePtr& victim : subtree)
        teardown(inv, victim);
    teardown(inv, inst);

    const std::uint32_t attempt = ++inv.attempts[inst->order];
    if (attempt >= faults->plan().maxAttempts) {
        faults->noteGaveUp(inst->def->name);
        failInvocation(inv, inst->def->name);
        return;
    }
    faults->noteRetry(inst->def->name, attempt);
    scheduleRetry(inv, inst, faults->backoffDelay(attempt),
                  std::move(ret));
}

void
BaselineController::scheduleRetry(Invocation& inv,
                                  const InstancePtr& inst, Tick delay,
                                  ValueCallback ret)
{
    const SlotHandle h = inv.self;
    if (inst->caller == nullptr) {
        // Flow node or implicit root: re-dispatch at the same
        // pipeline coordinate with the original input.
        const FlowIndex idx = inst->flowNode;
        sim_.events().schedule(
            delay, [this, h, idx, order = inst->order,
                    input = inst->env.input]() mutable {
                Invocation* pinv = invArena_.get(h);
                if (pinv == nullptr)
                    return;
                dispatch(*pinv, idx, std::move(input),
                         std::move(order));
            });
        return;
    }
    // Implicit callee: relaunch under the same caller, wiring the
    // saved return continuation to the new incarnation. Dropped when
    // the caller itself crashed meanwhile — its retry re-issues the
    // call from scratch.
    const InstanceId callerId = inst->caller->id;
    sim_.events().schedule(
        delay,
        [this, h, callerId, fn = inst->def->sym, order = inst->order,
         input = inst->env.input, ret = std::move(ret)]() mutable {
            Invocation* pinv = invArena_.get(h);
            if (pinv == nullptr)
                return;
            Invocation& inv2 = *pinv;
            auto cit = inv2.instances.find(callerId);
            if (cit == inv2.instances.end())
                return;
            LaunchSpec spec;
            spec.function = fn;
            spec.input = std::move(input);
            spec.invocation = inv2.result.id;
            spec.order = std::move(order);
            spec.flowNode = kFlowNone;
            spec.preOverhead = fleet_.clusterConfig().platformOverhead;
            spec.controllerService =
                fleet_.clusterConfig().baselineLaunchService;
            spec.caller = cit->second.get();
            ++inv2.liveInstances;
            InstancePtr callee = launcher_.launch(std::move(spec));
            callee->slotHandle = h;
            inv2.instances[callee->id] = callee;
            inv2.callReturns[callee->id] = std::move(ret);
        });
}

void
BaselineController::failInvocation(Invocation& inv,
                                   const std::string& function)
{
    // Retries exhausted: kill every remaining live handler (parallel
    // arms, the callers above a failed callee), deepest first so undo
    // logs roll back in reverse write order.
    while (!inv.instances.empty()) {
        auto vit = std::max_element(
            inv.instances.begin(), inv.instances.end(),
            [](const auto& a, const auto& b) {
                return orderKeyLess(a.second->order, b.second->order);
            });
        InstancePtr victim = vit->second;
        teardown(inv, victim);
    }
    // Every handler is gone, and teardown drops each one's return
    // path: a continuation left here would be a leaked caller.
    SPECFAAS_ASSERT(inv.callReturns.empty(),
                    "%zu callee returns leaked by failed invocation %llu",
                    inv.callReturns.size(),
                    static_cast<unsigned long long>(inv.result.id));
    inv.joins.clear();
    finish(inv, FaultInjector::errorResponse(function));
}

void
BaselineController::onNodeFailure(NodeId node)
{
    // live_ iterates in id order, but failing an invocation mutates
    // it, so snapshot the handles and re-check liveness per victim.
    std::vector<SlotHandle> handles;
    handles.reserve(live_.size());
    for (const auto& [id, h] : live_) {
        (void)id;
        handles.push_back(h);
    }
    for (const SlotHandle h : handles) {
        while (true) {
            Invocation* pinv = invArena_.get(h);
            if (pinv == nullptr)
                break; // the sweep itself failed the invocation
            Invocation& inv = *pinv;
            // Topmost victim first: crashing it also tears down its
            // callee subtree, so rescan until the node is clear.
            InstancePtr victim;
            for (const auto& [iid, p] : inv.instances) {
                (void)iid;
                if (p->container == nullptr || p->node != node ||
                    p->state == InstanceState::Dead)
                    continue;
                if (!victim || orderKeyLess(p->order, victim->order))
                    victim = p;
            }
            if (!victim)
                break;
            crashed(victim, FaultKind::NodeFailure);
        }
    }
}

void
BaselineController::finish(Invocation& inv, Value response)
{
    OBS_ZONE(profiler_, "base/finish");
    // Callers block until their callees return, so no callee return
    // can still be pending once the response exists.
    SPECFAAS_ASSERT(inv.callReturns.empty(),
                    "%zu callee returns leaked by invocation %llu",
                    inv.callReturns.size(),
                    static_cast<unsigned long long>(inv.result.id));
    inv.result.response = std::move(response);
    inv.result.completedAt = sim_.now();
    // End-to-end completion marker: invokeSync bypasses the platform
    // "response" wrapper, so the engine records it for the analyzer.
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kBaseline, "complete", sim_.now(),
                   obs::kControlPlanePid, inv.result.id,
                   {{"app", inv.result.app}});
    }
    std::sort(inv.sequence.begin(), inv.sequence.end(),
              [](const auto& a, const auto& b) {
                  return orderKeyLess(a.first, b.first);
              });
    inv.result.executedSequence.reserve(inv.sequence.size());
    for (auto& [order, name] : inv.sequence) {
        (void)order;
        inv.result.executedSequence.push_back(name.str());
    }
    const std::size_t erased = live_.erase(inv.result.id);
    SPECFAAS_ASSERT(erased == 1, "finishing unknown invocation");
    // Move the deliverables out, then retire the record before the
    // callback runs: done() may re-enter invoke(), and the freed slot
    // must be reusable by then. Every handle still in flight (retry
    // timers, RPC legs) now misses on the bumped generation.
    const SlotHandle h = inv.self;
    ResultCallback done = std::move(inv.done);
    InvocationResult result = std::move(inv.result);
    invArena_.destroy(h);
    done(std::move(result));
}

} // namespace specfaas
