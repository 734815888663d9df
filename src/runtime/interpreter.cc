#include "interpreter.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "sim/sim_context.hh"

namespace specfaas {

Interpreter::Interpreter(Simulation& sim, Fleet& fleet,
                         RuntimeHooks& hooks)
    : sim_(sim), fleet_(fleet), hooks_(hooks),
      trace_(sim.context().trace()),
      profiler_(sim.context().profiler())
{
}

void
Interpreter::start(const InstancePtr& inst)
{
    SPECFAAS_ASSERT(inst->def != nullptr, "starting undefined function");
    OBS_ZONE(profiler_, "interp/start");
    inst->state = InstanceState::Running;
    inst->startedAt = sim_.now();
    inst->pc = 0;
    // Execution span on the node the handler landed on.
    if (auto& tr = trace_; tr.enabled()) {
        tr.begin(obs::cat::kExec, inst->def->sym.str().c_str(), sim_.now(),
                 obs::nodePid(inst->node), inst->id,
                 {{"order", orderKeyToString(inst->order)},
                  {"container_creation", inst->containerCreationTime},
                  {"runtime_setup", inst->runtimeSetupTime}});
    }
    step(inst);
}

void
Interpreter::advance(const InstancePtr& inst)
{
    ++inst->pc;
    step(inst);
}

void
Interpreter::step(const InstancePtr& inst)
{
    if (inst->state == InstanceState::Dead)
        return;
    OBS_ZONE(profiler_, "interp/step");
    // Injected container crash at an op boundary: the handler process
    // dies and the controller's recovery machinery takes over.
    if (auto* faults = sim_.faultInjector();
        faults != nullptr && inst->pc < inst->def->body.size() &&
        faults->shouldCrash(inst->def->name,
                            CrashPhase::MidExecution)) {
        hooks_.crashed(inst, FaultKind::ContainerCrash);
        return;
    }
    // Skip over guarded ops whose guard is false without paying any
    // simulated time (the guard evaluation is part of the preceding
    // compute work).
    while (inst->pc < inst->def->body.size()) {
        const Op& op = inst->def->body[inst->pc];
        if (op.guard && !op.guard(inst->env)) {
            if (op.kind == Op::Kind::Call)
                inst->callSites.push_back({inst->pc, false, {}, {}});
            ++inst->pc;
            continue;
        }
        execOp(inst, op);
        return;
    }
    // Injected crash between finishing the body and reporting
    // completion: the controller never hears from this handler.
    if (auto* faults = sim_.faultInjector();
        faults != nullptr &&
        faults->shouldCrash(inst->def->name, CrashPhase::AtCommit)) {
        hooks_.crashed(inst, FaultKind::ContainerCrash);
        return;
    }
    // Body finished: produce the output and notify the controller.
    inst->state = InstanceState::Completed;
    inst->completedAt = sim_.now();
    inst->output = inst->def->output ? inst->def->output(inst->env)
                                     : inst->env.input;
    inst->ownFiles.clear(); // temp files are discarded (§VI)
    if (auto& tr = trace_; tr.enabled()) {
        const char* name = inst->def->sym.str().c_str();
        tr.end(obs::cat::kExec, name, sim_.now(), obs::nodePid(inst->node),
               inst->id, {{"exec_ticks", inst->execTime}});
        tr.end(obs::cat::kLifecycle, name, sim_.now(),
               obs::kControlPlanePid, inst->id);
    }
    hooks_.completed(inst, inst->output);
}

void
Interpreter::execOp(const InstancePtr& inst, const Op& op)
{
    const std::uint64_t epoch = inst->epoch;
    switch (op.kind) {
      case Op::Kind::Compute: {
        // Stuck handler: the burst hangs, the core stays occupied for
        // the watchdog timeout, then the platform kills the handler.
        if (auto* faults = sim_.faultInjector(); faults != nullptr) {
            if (const Tick timeout =
                    faults->stuckDuration(inst->def->name);
                timeout > 0) {
                Node& node = fleet_.worker(inst->node);
                inst->activeTask =
                    node.submit(timeout, [this, inst, epoch]() {
                        if (!fresh(inst, epoch))
                            return;
                        inst->activeTask = 0;
                        hooks_.crashed(inst,
                                       FaultKind::StuckFunction);
                    });
                return;
            }
        }
        Tick duration = static_cast<Tick>(inst->jitterRng.lognormal(
            static_cast<double>(op.duration), inst->def->computeCv));
        duration = std::max<Tick>(duration, 10);
        OBS_ZONE_SCOPE(zone, profiler_, "interp/op/compute");
        zone.addCount(static_cast<std::uint64_t>(duration));
        Node& node = fleet_.worker(inst->node);
        auto burnt = [this, inst, epoch, duration]() {
            if (!fresh(inst, epoch))
                return;
            inst->activeTask = 0;
            inst->execTime += duration;
            advance(inst);
        };
        static_assert(ComputeCallback::fitsInline<decltype(burnt)>());
        inst->activeTask = node.submit(duration, std::move(burnt));
        return;
      }
      case Op::Kind::StorageRead: {
        OBS_ZONE(profiler_, "interp/op/storage-read");
        const std::string key = op.key(inst->env);
        Tick extraDelay = 0;
        if (auto* faults = sim_.faultInjector(); faults != nullptr) {
            // A failed read crashes the handler (the SDK retries
            // internally; what the platform sees is a dead handler).
            if (faults->shouldFailStorage(inst->def->name, false)) {
                hooks_.crashed(inst, FaultKind::StorageReadError);
                return;
            }
            extraDelay = faults->storageDelay(inst->def->name);
        }
        auto doRead = [this, inst, epoch, key, var = op.var]() {
            if (auto& tr = trace_; tr.enabled()) {
                tr.instant(obs::cat::kStorage, "storage-read",
                           sim_.now(), obs::nodePid(inst->node),
                           inst->id, {{"key", key}});
            }
            auto got = [this, inst, epoch, var](Value v) {
                if (!fresh(inst, epoch))
                    return;
                inst->state = InstanceState::Running;
                inst->env.set(var, std::move(v));
                advance(inst);
            };
            static_assert(ValueCallback::fitsInline<decltype(got)>());
            hooks_.storageGet(inst, key, std::move(got));
        };
        if (extraDelay > 0) {
            sim_.events().schedule(
                extraDelay, [inst, epoch, doRead]() {
                    if (!fresh(inst, epoch))
                        return;
                    doRead();
                });
        } else {
            doRead();
        }
        return;
      }
      case Op::Kind::StorageWrite: {
        OBS_ZONE(profiler_, "interp/op/storage-write");
        const std::string key = op.key(inst->env);
        Value v = op.value(inst->env);
        Tick extraDelay = 0;
        if (auto* faults = sim_.faultInjector(); faults != nullptr) {
            if (faults->shouldFailStorage(inst->def->name, true)) {
                hooks_.crashed(inst, FaultKind::StorageWriteError);
                return;
            }
            extraDelay = faults->storageDelay(inst->def->name);
        }
        auto doWrite = [this, inst, epoch, key,
                        v = std::move(v)]() mutable {
            if (auto& tr = trace_; tr.enabled()) {
                tr.instant(obs::cat::kStorage, "storage-write",
                           sim_.now(), obs::nodePid(inst->node),
                           inst->id, {{"key", key}});
            }
            auto put = [this, inst, epoch]() {
                if (!fresh(inst, epoch))
                    return;
                inst->state = InstanceState::Running;
                advance(inst);
            };
            static_assert(DoneCallback::fitsInline<decltype(put)>());
            hooks_.storagePut(inst, key, std::move(v), std::move(put));
        };
        if (extraDelay > 0) {
            sim_.events().schedule(
                extraDelay,
                [inst, epoch, doWrite = std::move(doWrite)]() mutable {
                    if (!fresh(inst, epoch))
                        return;
                    doWrite();
                });
        } else {
            doWrite();
        }
        return;
      }
      case Op::Kind::Call: {
        OBS_ZONE(profiler_, "interp/op/call");
        Value args = op.value(inst->env);
        inst->callSites.push_back({inst->pc, true, op.callee, args});
        auto returned = [this, inst, epoch, var = op.var](Value result) {
            if (!fresh(inst, epoch))
                return;
            inst->state = InstanceState::Running;
            if (!var.empty())
                inst->env.set(var, std::move(result));
            advance(inst);
        };
        static_assert(ValueCallback::fitsInline<decltype(returned)>());
        hooks_.functionCall(inst, inst->pc, op.callee, std::move(args),
                            std::move(returned));
        return;
      }
      case Op::Kind::Http: {
        OBS_ZONE(profiler_, "interp/op/http");
        if (auto* faults = sim_.faultInjector();
            faults != nullptr &&
            faults->shouldFailHttp(inst->def->name)) {
            hooks_.crashed(inst, FaultKind::HttpFailure);
            return;
        }
        auto sent = [this, inst, epoch]() {
            if (!fresh(inst, epoch))
                return;
            inst->state = InstanceState::Running;
            sim_.events().schedule(costs_.httpRequest,
                                   [this, inst, epoch]() {
                                       if (!fresh(inst, epoch))
                                           return;
                                       advance(inst);
                                   });
        };
        static_assert(DoneCallback::fitsInline<decltype(sent)>());
        hooks_.httpRequest(inst, std::move(sent));
        return;
      }
      case Op::Kind::FileWrite: {
        OBS_ZONE(profiler_, "interp/op/file-write");
        // Copy-on-write local temp file (§VI): the handler gets its
        // own uniquely named file; no globally visible effect.
        inst->ownFiles.insert(op.key(inst->env));
        sim_.events().schedule(costs_.fileWrite, [this, inst, epoch]() {
            if (!fresh(inst, epoch))
                return;
            advance(inst);
        });
        return;
      }
      case Op::Kind::FileRead: {
        OBS_ZONE(profiler_, "interp/op/file-read");
        const std::string name = op.key(inst->env);
        auto fileRead = [this, inst, epoch, name, var = op.var]() {
            if (!fresh(inst, epoch))
                return;
            if (!var.empty()) {
                // Reads observe the handler's own copy when one
                // exists; content is modelled as the file name.
                inst->env.set(var, Value(name));
            }
            advance(inst);
        };
        static_assert(
            EventQueue::Callback::fitsInline<decltype(fileRead)>());
        sim_.events().schedule(costs_.fileRead, std::move(fileRead));
        return;
      }
      case Op::Kind::SetVar: {
        OBS_ZONE(profiler_, "interp/op/setvar");
        Value v = op.value(inst->env);
        auto setVar = [this, inst, epoch, var = op.var,
                       v = std::move(v)]() mutable {
            if (!fresh(inst, epoch))
                return;
            inst->env.set(var, std::move(v));
            advance(inst);
        };
        static_assert(EventQueue::Callback::fitsInline<decltype(setVar)>());
        sim_.events().schedule(costs_.localStep, std::move(setVar));
        return;
      }
    }
    panic("unreachable op kind");
}

void
Interpreter::squash(const InstancePtr& inst, SquashPolicy policy)
{
    SPECFAAS_ASSERT(inst->state != InstanceState::Committed,
                    "squashing committed instance %s",
                    inst->label().c_str());
    if (inst->state == InstanceState::Dead)
        return;
    OBS_ZONE(profiler_, "interp/squash");

    const ComputeTaskId task = inst->activeTask;
    Container* container = inst->container;
    Node& node = fleet_.worker(inst->node);

    // Close any spans the dead incarnation left open so the trace
    // stays balanced: the exec span if the body was still running,
    // and the lifecycle span unless completion already closed it.
    if (auto& tr = trace_; tr.enabled()) {
        const bool executing =
            inst->state == InstanceState::Running ||
            inst->state == InstanceState::StalledSideEffect ||
            inst->state == InstanceState::StalledRead ||
            inst->state == InstanceState::StalledCallee;
        if (inst->stallSpanOpen) {
            // The squash minimizer's stall span is still open inside
            // the exec span; close it first to keep nesting balanced.
            inst->stallSpanOpen = false;
            tr.end(obs::cat::kExec, "stall-read", sim_.now(),
                   obs::nodePid(inst->node), inst->id, {{"squashed", 1}});
        }
        const char* name = inst->def->sym.str().c_str();
        if (executing) {
            tr.end(obs::cat::kExec, name, sim_.now(),
                   obs::nodePid(inst->node), inst->id,
                   {{"squashed", 1}, {"exec_ticks", inst->execTime}});
        }
        if (inst->state != InstanceState::Completed) {
            tr.end(obs::cat::kLifecycle, name, sim_.now(),
                   obs::kControlPlanePid, inst->id,
                   {{"squashed", 1},
                    {"reason", squashReasonName(inst->squashReason)},
                    {"squash_id", inst->squashId},
                    {"exec_ticks", inst->execTime}});
        } else {
            // Completed-but-uncommitted work still vanishes; record
            // the kill as an instant since both spans are closed.
            tr.instant(obs::cat::kLifecycle, "squash-completed",
                       sim_.now(), obs::kControlPlanePid, inst->id,
                       {{"reason", squashReasonName(inst->squashReason)},
                        {"squash_id", inst->squashId},
                        {"exec_ticks", inst->execTime}});
        }
    }

    // CPU the Lazy policy will keep burning in the background: every
    // compute burst from the current op to the end of the body.
    Tick lazyRemaining = 0;
    if (policy == SquashPolicy::Lazy &&
        inst->state != InstanceState::Completed) {
        for (std::size_t i = inst->pc; i < inst->def->body.size(); ++i)
            if (inst->def->body[i].kind == Op::Kind::Compute)
                lazyRemaining += inst->def->body[i].duration;
    }

    // Kill the incarnation: all pending continuations become stale.
    ++inst->epoch;
    inst->state = InstanceState::Dead;
    inst->activeTask = 0;
    inst->container = nullptr;
    inst->ownFiles.clear();

    switch (policy) {
      case SquashPolicy::Lazy: {
        // Replace the in-flight burst with one background task that
        // burns the whole remaining body, then free the container.
        if (task != 0)
            node.abort(task, 0);
        auto finish = [this, container]() {
            if (container != nullptr)
                fleet_.containers().release(*container);
        };
        if (lazyRemaining > 0)
            node.submit(lazyRemaining, std::move(finish));
        else
            finish();
        break;
      }
      case SquashPolicy::ProcessKill: {
        if (task != 0)
            node.abort(task, fleet_.clusterConfig().processKillOverhead);
        if (container != nullptr)
            fleet_.containers().release(*container);
        break;
      }
      case SquashPolicy::ContainerKill: {
        if (task != 0)
            node.abort(task, fleet_.clusterConfig().processKillOverhead);
        if (container != nullptr)
            fleet_.containers().destroy(*container);
        break;
      }
    }
}

} // namespace specfaas
