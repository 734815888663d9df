#include "fault_injector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/sim_context.hh"
#include "storage/kv_store.hh"

namespace specfaas {

FaultInjector::FaultInjector(Simulation& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)), rng_(plan_.seed)
{
    remaining_.reserve(plan_.rules.size());
    for (const FaultRule& r : plan_.rules)
        remaining_.push_back(r.budget);
}

FaultInjector::~FaultInjector()
{
    counters_.mergeInto(sim_.context().counters());
}

void
FaultInjector::armNodeFailures(
    std::function<void(NodeId, Tick)> onNodeFailure)
{
    for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
        const FaultRule& r = plan_.rules[i];
        if (r.kind != FaultKind::NodeFailure)
            continue;
        // Daemon: a node failure scheduled past the last real event
        // must not keep the simulation alive on its own.
        sim_.events().scheduleDaemon(
            std::max<Tick>(0, r.atTick - sim_.now()),
            [this, i, cb = onNodeFailure]() {
                if (remaining_[i] == 0)
                    return;
                const FaultRule& rule = plan_.rules[i];
                if (remaining_[i] != kUnlimitedBudget)
                    --remaining_[i];
                recordInjection(FaultKind::NodeFailure,
                                strFormat("node%u", rule.node));
                cb(rule.node, rule.downtime);
            });
    }
}

std::size_t
FaultInjector::decide(FaultKind kind, const std::string& function,
                      CrashPhase phase)
{
    for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
        const FaultRule& r = plan_.rules[i];
        if (r.kind != kind || remaining_[i] == 0)
            continue;
        if (r.function != "*" && r.function != function)
            continue;
        if (kind == FaultKind::ContainerCrash && r.phase != phase)
            continue;
        if (!rng_.bernoulli(r.probability))
            continue;
        if (remaining_[i] != kUnlimitedBudget)
            --remaining_[i];
        recordInjection(kind, function);
        return i;
    }
    return static_cast<std::size_t>(-1);
}

void
FaultInjector::recordInjection(FaultKind kind,
                               const std::string& function)
{
    counters_.add(strFormat("fault.injected.%s", faultKindName(kind)),
                  1);
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFault, "fault-injected", sim_.now(),
                   obs::kControlPlanePid, 0,
                   {{"kind", faultKindName(kind)},
                    {"function", function}});
    }
}

bool
FaultInjector::shouldCrash(const std::string& function,
                           CrashPhase phase)
{
    return decide(FaultKind::ContainerCrash, function, phase) !=
           static_cast<std::size_t>(-1);
}

bool
FaultInjector::shouldFailStorage(const std::string& function,
                                 bool write)
{
    const FaultKind kind = write ? FaultKind::StorageWriteError
                                 : FaultKind::StorageReadError;
    const std::size_t hit =
        decide(kind, function, CrashPhase::MidExecution);
    if (hit == static_cast<std::size_t>(-1))
        return false;
    if (store_ != nullptr)
        store_->noteInjectedError(write);
    return true;
}

Tick
FaultInjector::storageDelay(const std::string& function)
{
    const std::size_t hit =
        decide(FaultKind::StorageDelay, function,
               CrashPhase::MidExecution);
    if (hit == static_cast<std::size_t>(-1))
        return 0;
    return std::max<Tick>(1, plan_.rules[hit].extraDelay);
}

bool
FaultInjector::shouldFailHttp(const std::string& function)
{
    return decide(FaultKind::HttpFailure, function,
                  CrashPhase::MidExecution) !=
           static_cast<std::size_t>(-1);
}

Tick
FaultInjector::stuckDuration(const std::string& function)
{
    if (decide(FaultKind::StuckFunction, function,
               CrashPhase::MidExecution) ==
        static_cast<std::size_t>(-1))
        return 0;
    return std::max<Tick>(1, plan_.stuckTimeout);
}

void
FaultInjector::noteRetry(const std::string& function,
                         std::uint32_t attempt)
{
    ++ctrRetries_;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFault, "fault-retry", sim_.now(),
                   obs::kControlPlanePid, 0,
                   {{"function", function},
                    {"attempt", attempt}});
    }
}

void
FaultInjector::noteGaveUp(const std::string& function)
{
    ++ctrGaveUp_;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFault, "fault-gave-up", sim_.now(),
                   obs::kControlPlanePid, 0,
                   {{"function", function}});
    }
}

Tick
FaultInjector::backoffDelay(std::uint32_t attempt) const
{
    Tick delay = plan_.retryBackoffBase;
    for (std::uint32_t i = 1; i < attempt; ++i) {
        delay *= 2;
        if (delay >= plan_.retryBackoffCap)
            break;
    }
    return std::min(delay, plan_.retryBackoffCap);
}

Value
FaultInjector::errorResponse(const std::string& function)
{
    return Value::object({{"error", Value("function_failed")},
                          {"function", Value(function)}});
}

std::uint64_t
FaultInjector::injected(FaultKind kind) const
{
    return counters_.value(
        strFormat("fault.injected.%s", faultKindName(kind)));
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    std::uint64_t total = 0;
    for (const auto& [name, v] : counters_.snapshot()) {
        if (name.rfind("fault.injected.", 0) == 0)
            total += static_cast<std::uint64_t>(v);
    }
    return total;
}

} // namespace specfaas
