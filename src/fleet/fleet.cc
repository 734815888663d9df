#include "fleet.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "sim/sim_context.hh"

namespace specfaas {

const char*
nodeStateName(NodeState state)
{
    switch (state) {
    case NodeState::Provisioning:
        return "provisioning";
    case NodeState::Ready:
        return "ready";
    case NodeState::Draining:
        return "draining";
    case NodeState::Retired:
        return "retired";
    }
    return "?";
}

Fleet::Fleet(Simulation& sim, const ClusterConfig& cluster,
             const FleetConfig& fleet)
    : sim_(sim),
      cluster_(cluster),
      config_(fleet),
      scaler_(fleet.autoscaler, fleet.minNodes,
              fleet.maxNodes != 0 ? fleet.maxNodes : cluster.numNodes),
      keepAlive_(fleet.eviction)
{
    // Configuration errors, not simulator bugs: reject loudly with
    // the offending field instead of asserting deep inside Node.
    // (admissionQueueLimit needs no lower bound: 0 is meaningful —
    // reject whenever any launch is queued — and the unsigned type
    // rules out negatives.)
    if (cluster.numNodes == 0)
        fatal("ClusterConfig: numNodes must be > 0");
    if (cluster.coresPerNode == 0)
        fatal("ClusterConfig: coresPerNode must be > 0");
    if (cluster.controllerThreads == 0)
        fatal("ClusterConfig: controllerThreads must be > 0 "
              "(the control plane needs at least one thread; with "
              "none, no launch can ever be admitted)");
    if (cluster.baselineLaunchService < 0 ||
        cluster.specLaunchService < 0)
        fatal("ClusterConfig: negative launch service time");
    if (config_.dynamics) {
        const std::uint32_t max_nodes = config_.maxNodes != 0
                                            ? config_.maxNodes
                                            : cluster.numNodes;
        if (config_.minNodes == 0)
            fatal("FleetConfig: minNodes must be > 0");
        if (config_.minNodes > cluster.numNodes)
            fatal("FleetConfig: minNodes (%u) exceeds the initial "
                  "node count (%u)",
                  config_.minNodes, cluster.numNodes);
        if (max_nodes < cluster.numNodes)
            fatal("FleetConfig: maxNodes (%u) below the initial node "
                  "count (%u)",
                  max_nodes, cluster.numNodes);
        if (config_.provisioningDelay < 0)
            fatal("FleetConfig: negative provisioningDelay");
        if (config_.autoscaler.enabled &&
            config_.autoscaler.interval <= 0)
            fatal("FleetConfig: autoscaler interval must be > 0");
        if (config_.eviction.policy != EvictionConfig::Policy::None &&
            config_.eviction.scanInterval <= 0)
            fatal("FleetConfig: eviction scanInterval must be > 0");
    }

    workers_.reserve(cluster.numNodes);
    for (std::uint32_t i = 0; i < cluster.numNodes; ++i)
        addWorker(NodeState::Ready);
    stats_.peakReadyNodes = cluster.numNodes;
    controller_ = std::make_unique<Node>(sim_, kControllerNode,
                                         cluster.controllerThreads);
    containers_ =
        std::make_unique<ContainerPool>(sim_, *this, cluster_);

    if (config_.dynamics) {
        if (config_.autoscaler.enabled)
            scheduleAutoscale();
        if (config_.eviction.policy != EvictionConfig::Policy::None)
            scheduleEviction();
    }
}

void
Fleet::scheduleAutoscale()
{
    // Self-rescheduling daemon: daemons never keep the event loop
    // alive, so an idle run still terminates with ticks pending.
    sim_.events().scheduleDaemon(config_.autoscaler.interval,
                                 [this]() {
                                     autoscaleTick();
                                     scheduleAutoscale();
                                 });
}

void
Fleet::scheduleEviction()
{
    sim_.events().scheduleDaemon(config_.eviction.scanInterval,
                                 [this]() {
                                     evictionTick();
                                     scheduleEviction();
                                 });
}

Fleet::~Fleet()
{
    if (!config_.dynamics)
        return;
    auto& counters = sim_.context().counters();
    counters.add("fleet.scale_ups", stats_.scaleUps);
    counters.add("fleet.scale_downs", stats_.scaleDowns);
    counters.add("fleet.nodes_provisioned", stats_.provisioned);
    counters.add("fleet.nodes_retired", stats_.retired);
    counters.add("fleet.evictions", stats_.evictions);
    counters.add("fleet.fair_rejects", stats_.fairRejects);
}

Node&
Fleet::worker(NodeId id)
{
    SPECFAAS_ASSERT(id < workers_.size(), "bad node id %u", id);
    return *workers_[id];
}

NodeState
Fleet::state(NodeId id) const
{
    SPECFAAS_ASSERT(id < meta_.size(), "bad node id %u", id);
    return meta_[id].state;
}

std::uint32_t
Fleet::readyWorkers() const
{
    std::uint32_t n = 0;
    for (const NodeMeta& m : meta_)
        if (m.state == NodeState::Ready)
            ++n;
    return n;
}

std::uint32_t
Fleet::provisioningWorkers() const
{
    std::uint32_t n = 0;
    for (const NodeMeta& m : meta_)
        if (m.state == NodeState::Provisioning)
            ++n;
    return n;
}

std::uint32_t
Fleet::liveCores() const
{
    std::uint32_t cores = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i)
        if (meta_[i].state != NodeState::Retired)
            cores += workers_[i]->cores();
    return cores;
}

void
Fleet::addWorker(NodeState state)
{
    const NodeId id = static_cast<NodeId>(workers_.size());
    workers_.push_back(std::make_unique<Node>(
        sim_, id, cluster_.coresPerNode, &busyCores_));
    meta_.push_back(NodeMeta{state});
}

void
Fleet::traceLifecycle(NodeId id, const char* what)
{
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFleet, what, sim_.now(),
                   obs::nodePid(id), 0,
                   {{"state", nodeStateName(meta_[id].state)}});
    }
}

void
Fleet::provision(std::uint32_t count)
{
    OBS_ZONE(sim_.context().profiler(), "fleet/provision");
    for (std::uint32_t i = 0; i < count; ++i) {
        addWorker(NodeState::Provisioning);
        const NodeId id = static_cast<NodeId>(workers_.size() - 1);
        ++stats_.provisioned;
        traceLifecycle(id, "node-provision");
        sim_.events().scheduleDaemon(
            config_.provisioningDelay, [this, id]() {
                if (meta_[id].state != NodeState::Provisioning)
                    return;
                meta_[id].state = NodeState::Ready;
                stats_.peakReadyNodes = std::max(
                    stats_.peakReadyNodes, readyWorkers());
                traceLifecycle(id, "node-ready");
            });
    }
}

void
Fleet::drain(std::uint32_t count)
{
    for (std::uint32_t i = 0; i < count; ++i) {
        if (readyWorkers() <= config_.minNodes)
            return;
        // Deterministic victim: the least-loaded Ready worker, newest
        // (highest id) on ties, so the original node set survives
        // longest and scale-down unwinds scale-up.
        NodeId victim = kControllerNode;
        std::uint64_t bestLoad =
            std::numeric_limits<std::uint64_t>::max();
        for (std::size_t id = 0; id < workers_.size(); ++id) {
            if (meta_[id].state != NodeState::Ready)
                continue;
            const std::uint64_t load =
                workers_[id]->busyCores() +
                workers_[id]->queueLength();
            if (load < bestLoad ||
                (load == bestLoad && victim != kControllerNode &&
                 id > victim)) {
                bestLoad = load;
                victim = static_cast<NodeId>(id);
            }
        }
        if (victim == kControllerNode)
            return;
        meta_[victim].state = NodeState::Draining;
        // The warm pool is node-local state; give it up immediately
        // so the memory is released while in-flight work drains.
        stats_.evictions += containers_->evictWarmOnNode(victim);
        traceLifecycle(victim, "node-drain");
    }
}

void
Fleet::retire(NodeId id)
{
    meta_[id].state = NodeState::Retired;
    ++stats_.retired;
    traceLifecycle(id, "node-retire");
}

void
Fleet::failNode(NodeId id)
{
    worker(id).setDown(true);
    containers_->dropNode(id);
}

void
Fleet::restoreNode(NodeId id)
{
    worker(id).setDown(false);
}

void
Fleet::resetUtilization()
{
    for (auto& n : workers_)
        n->resetUtilization();
}

double
Fleet::utilization() const
{
    double sum = 0.0;
    std::size_t counted = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (meta_[i].state == NodeState::Retired)
            continue;
        sum += workers_[i]->utilization();
        ++counted;
    }
    return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

ScaleSignals
Fleet::sampleSignals() const
{
    ScaleSignals s;
    std::uint32_t busy = 0;
    std::uint32_t cores = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        switch (meta_[i].state) {
        case NodeState::Ready:
            ++s.readyNodes;
            busy += workers_[i]->busyCores();
            cores += workers_[i]->cores();
            break;
        case NodeState::Provisioning:
            ++s.provisioningNodes;
            break;
        default:
            break;
        }
    }
    s.utilization = cores == 0 ? 0.0
                               : static_cast<double>(busy) /
                                     static_cast<double>(cores);
    s.controllerQueue = controller_->queueLength();
    return s;
}

void
Fleet::autoscaleTick()
{
    OBS_ZONE(sim_.context().profiler(), "fleet/autoscale");
    // Finish draining: a node retires once nothing runs or waits on
    // it and no container (busy or warm) is placed there.
    for (std::size_t id = 0; id < workers_.size(); ++id) {
        if (meta_[id].state != NodeState::Draining)
            continue;
        Node& n = *workers_[id];
        if (n.busyCores() == 0 && n.queueLength() == 0 &&
            containers_->liveOnNode(static_cast<NodeId>(id)) == 0) {
            retire(static_cast<NodeId>(id));
        }
    }

    const ScaleDecision d =
        scaler_.evaluate(sampleSignals(), sim_.now());
    if (d.delta > 0) {
        ++stats_.scaleUps;
        provision(static_cast<std::uint32_t>(d.delta));
    } else if (d.delta < 0) {
        ++stats_.scaleDowns;
        drain(static_cast<std::uint32_t>(-d.delta));
    }
}

void
Fleet::evictionTick()
{
    OBS_ZONE(sim_.context().profiler(), "fleet/evict");
    stats_.evictions += containers_->evictIdle(sim_.now());
}

void
Fleet::noteAcquire(Symbol function)
{
    if (config_.eviction.policy == EvictionConfig::Policy::Histogram)
        keepAlive_.noteAcquire(function, sim_.now());
}

Tick
Fleet::keepAliveFor(Symbol function) const
{
    if (config_.eviction.policy == EvictionConfig::Policy::None)
        return config_.eviction.maxKeepAlive;
    return keepAlive_.keepAliveFor(function);
}

bool
Fleet::admit(Symbol tenant)
{
    if (!admissionActive())
        return true;
    OBS_ZONE(sim_.context().profiler(), "fleet/admission");
    const std::size_t i = tenant.id();
    if (i >= tenantInFlight_.size())
        tenantInFlight_.resize(i + 1, 0);
    const AdmissionConfig& cfg = config_.admission;
    if (controller_->queueLength() >
            static_cast<std::size_t>(cfg.engageQueueDepth) &&
        activeTenants_ > 0) {
        const double share = static_cast<double>(totalInFlight_) /
                             static_cast<double>(activeTenants_);
        const std::uint64_t limit = std::max<std::uint64_t>(
            cfg.minTenantInFlight,
            static_cast<std::uint64_t>(share * cfg.fairFactor));
        if (tenantInFlight_[i] >= limit) {
            ++stats_.fairRejects;
            return false;
        }
    }
    if (tenantInFlight_[i]++ == 0)
        ++activeTenants_;
    ++totalInFlight_;
    return true;
}

void
Fleet::complete(Symbol tenant)
{
    if (!admissionActive())
        return;
    const std::size_t i = tenant.id();
    SPECFAAS_ASSERT(i < tenantInFlight_.size() &&
                        tenantInFlight_[i] > 0,
                    "completion for tenant with no in-flight requests");
    if (--tenantInFlight_[i] == 0)
        --activeTenants_;
    --totalInFlight_;
}

std::uint64_t
Fleet::tenantInFlight(Symbol tenant) const
{
    const std::size_t i = tenant.id();
    return i < tenantInFlight_.size() ? tenantInFlight_[i] : 0;
}

} // namespace specfaas
