#include "launcher.hh"

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "sim/sim_context.hh"

namespace specfaas {

namespace {

const char*
inputSourceName(InputSource source)
{
    switch (source) {
    case InputSource::Actual:
        return "actual";
    case InputSource::Memoized:
        return "memoized";
    case InputSource::Inherited:
        return "inherited";
    }
    return "?";
}

} // namespace

Launcher::Launcher(Simulation& sim, Fleet& fleet,
                   const FunctionRegistry& registry, Interpreter& interp)
    : sim_(sim), fleet_(fleet), registry_(registry), interp_(interp)
{
}

InstancePtr
Launcher::launch(LaunchSpec spec)
{
    OBS_ZONE(sim_.context().profiler(), "runtime/launch");
    auto inst = std::allocate_shared<FunctionInstance>(
        FreeListAllocator<FunctionInstance>(sim_.instanceBlocks()));
    inst->id = sim_.context().nextInstanceId();
    inst->invocation = spec.invocation;
    inst->def = &registry_.get(spec.function);
    // Sized once from the compiled definition: the handler never
    // grows its environment or call-site records while it runs.
    inst->env.reserve(inst->def->varSlots);
    inst->callSites.reserve(inst->def->callSiteCount);
    inst->order = std::move(spec.order);
    inst->flowNode = spec.flowNode;
    inst->controlSpeculative = spec.controlSpeculative;
    inst->dataSpeculative = spec.dataSpeculative;
    inst->inputSource = spec.inputSource;
    inst->caller = spec.caller;
    inst->env.input = std::move(spec.input);
    inst->state = InstanceState::Launching;
    inst->launchedAt = sim_.now();
    inst->platformOverheadTime = spec.preOverhead;
    inst->jitterRng = sim_.forkRng();

    // Lifecycle span: launch → completion (or squash). Closed by the
    // interpreter so both engines share one emission point.
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.begin(obs::cat::kLifecycle, inst->def->sym.str().c_str(),
                 sim_.now(), obs::kControlPlanePid, inst->id,
                 {{"order", orderKeyToString(inst->order)},
                  {"invocation", inst->invocation},
                  {"input", inputSourceName(inst->inputSource)},
                  {"control_speculative", inst->controlSpeculative}});
    }

    const std::uint64_t epoch = inst->epoch;
    // The launch holds a controller thread for the service time; any
    // preOverhead beyond it is pure wire latency.
    const Tick service = spec.controllerService;
    const Tick wire =
        std::max<Tick>(0, spec.preOverhead - service);
    auto after_controller = [this, inst, epoch, wire]() {
        if (inst->epoch != epoch || inst->state == InstanceState::Dead)
            return;
        sim_.events().schedule(wire, [this, inst, epoch]() {
            proceedToContainer(inst, epoch);
        });
    };
    static_assert(ComputeCallback::fitsInline<decltype(after_controller)>());
    if (service > 0)
        fleet_.controller().submit(service, std::move(after_controller));
    else
        after_controller();
    return inst;
}

void
Launcher::proceedToContainer(const InstancePtr& inst, std::uint64_t epoch)
{
    if (inst->epoch != epoch || inst->state == InstanceState::Dead)
        return;
    auto acquired = [this, inst, epoch](Container& c,
                                        const AcquireTiming& t) {
        if (inst->epoch != epoch ||
            inst->state == InstanceState::Dead) {
            // Squashed while the container was being set up;
            // hand the (now warm) container back.
            fleet_.containers().release(c);
            return;
        }
        inst->container = &c;
        inst->node = c.node;
        inst->containerCreationTime = t.containerCreation;
        inst->runtimeSetupTime = t.runtimeSetup;
        // Injected crash during container start-up: the handler
        // never begins executing; the controller retries.
        if (auto* faults = sim_.faultInjector();
            faults != nullptr &&
            faults->shouldCrash(inst->def->name,
                                CrashPhase::ColdStart)) {
            interp_.hooks().crashed(inst,
                                    FaultKind::ContainerCrash);
            return;
        }
        interp_.start(inst);
    };
    static_assert(
        ContainerPool::AcquireCallback::fitsInline<decltype(acquired)>());
    // Registry defs always carry a valid sym.
    fleet_.containers().acquire(inst->def->sym, std::move(acquired));
}

} // namespace specfaas
