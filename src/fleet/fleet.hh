/**
 * @file
 * The dynamic fleet: nodes and warm pools as first-class objects with
 * lifecycle.
 *
 * A Fleet owns what the Cluster facade used to own directly — the
 * worker nodes, the control-plane service station and the container
 * pool — and adds platform dynamics on top:
 *
 *   - node lifecycle: Provisioning → Ready → Draining → Retired,
 *     with a configurable provisioning delay;
 *   - a reactive autoscaler driven by utilization and control-plane
 *     queue depth (see fleet/autoscaler.hh);
 *   - warm-pool keep-alive/eviction policies (fixed TTL and the
 *     Azure-style per-function histogram policy);
 *   - fleet-level admission control with per-tenant fair sharing
 *     under backpressure.
 *
 * Cluster is now a thin view over the fleet. With `dynamics = false`
 * (every pre-existing bench and test) the fleet constructs exactly
 * the static node set the old Cluster did, schedules no events, and
 * adds no counters, so all artifacts stay byte-identical.
 *
 * Determinism: scaling and eviction decisions are pure functions of
 * simulated state sampled at daemon ticks; node ids, scan orders and
 * drain victim selection are all derived from deterministic indices.
 * No RNG is consumed, so enabling dynamics never perturbs the
 * arrival/input streams of the load layer above.
 */

#ifndef SPECFAAS_FLEET_FLEET_HH
#define SPECFAAS_FLEET_FLEET_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster_config.hh"
#include "cluster/container.hh"
#include "cluster/node.hh"
#include "common/symbol.hh"
#include "fleet/autoscaler.hh"
#include "fleet/eviction.hh"
#include "fleet/fleet_config.hh"
#include "sim/simulation.hh"

namespace specfaas {

/** Lifecycle state of one fleet node. */
enum class NodeState : std::uint8_t
{
    Provisioning, ///< requested; becomes Ready after the delay
    Ready,        ///< serving placements
    Draining,     ///< no new placements; retires when empty
    Retired,      ///< permanently out of service
};

/** Human-readable state name (traces, tests). */
const char* nodeStateName(NodeState state);

/** Deterministic lifetime statistics of one fleet. */
struct FleetStats
{
    std::uint64_t scaleUps = 0;      ///< scale-up actions
    std::uint64_t scaleDowns = 0;    ///< scale-down actions
    std::uint64_t provisioned = 0;   ///< nodes requested beyond initial
    std::uint64_t retired = 0;       ///< nodes fully drained
    std::uint64_t evictions = 0;     ///< warm containers evicted
    std::uint64_t fairRejects = 0;   ///< fair-share admission rejects
    std::uint32_t peakReadyNodes = 0;
};

/** Dynamic node set with lifecycle, scaling, eviction and admission. */
class Fleet
{
  public:
    /** Id of the control-plane service node (never a worker id). */
    static constexpr NodeId kControllerNode = ~NodeId{0};

    /**
     * @param sim simulation context
     * @param cluster node geometry and platform cost constants
     *        (validated here: zero nodes, zero cores or zero
     *        controller threads are configuration errors)
     * @param fleet dynamics configuration
     */
    Fleet(Simulation& sim, const ClusterConfig& cluster,
          const FleetConfig& fleet);

    /** Folds fleet lifetime statistics into the global counters. */
    ~Fleet();

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    /** @{ Configuration in effect. */
    const ClusterConfig& clusterConfig() const { return cluster_; }
    const FleetConfig& config() const { return config_; }
    /** True when any dynamics are active. */
    bool dynamic() const { return config_.dynamics; }
    /** @} */

    /**
     * @{ Node access (the Cluster view). Worker ids equal their index
     * in workers(); retired nodes keep their slot so ids stay stable
     * for the whole run.
     */
    const std::vector<std::unique_ptr<Node>>& workers() const
    {
        return workers_;
    }
    Node& worker(NodeId id);
    Node& controller() { return *controller_; }
    ContainerPool& containers() { return *containers_; }
    /** @} */

    /** Lifecycle state of worker @p id. */
    NodeState state(NodeId id) const;

    /** True when worker @p id may receive new placements. */
    bool placeable(NodeId id) const
    {
        return meta_[id].state == NodeState::Ready &&
               !workers_[id]->isDown();
    }

    /** Workers currently Ready. */
    std::uint32_t readyWorkers() const;

    /** Workers currently Provisioning. */
    std::uint32_t provisioningWorkers() const;

    /** Cores across non-retired workers. */
    std::uint32_t liveCores() const;

    /**
     * @{ Cores across every worker ever added, retired ones included,
     * and how many of them are busy. Both are O(1): every worker
     * reports core occupancy into one running total, and all workers
     * have ClusterConfig::coresPerNode cores.
     */
    std::uint32_t allWorkerBusyCores() const { return busyCores_; }
    std::uint32_t
    allWorkerCores() const
    {
        return static_cast<std::uint32_t>(workers_.size()) *
               cluster_.coresPerNode;
    }
    /** @} */

    /**
     * @{ Explicit lifecycle actions (the autoscaler calls these; tests
     * and scenario drivers may too).
     */
    void provision(std::uint32_t count);
    void drain(std::uint32_t count);
    /** @} */

    /**
     * @{ Injected node failure (the fault layer enters through the
     * Cluster view): a down node receives no placements and loses its
     * warm containers; restore brings it back empty.
     */
    void failNode(NodeId id);
    void restoreNode(NodeId id);
    /** @} */

    /** @{ Cluster-wide utilization window over non-retired workers. */
    void resetUtilization();
    double utilization() const;
    /** @} */

    /**
     * Fleet-level admission decision for one request of @p tenant.
     * Returns false — reject with backpressure — when fair sharing is
     * engaged and the tenant is over its share. Every admitted
     * request must be paired with a complete() call.
     */
    bool admit(Symbol tenant);

    /** Request of @p tenant finished (served or rejected below). */
    void complete(Symbol tenant);

    /** True when platform-level admission accounting is needed. */
    bool admissionActive() const
    {
        return config_.dynamics && config_.admission.fairShare;
    }

    /** In-flight requests of @p tenant (admission accounting). */
    std::uint64_t tenantInFlight(Symbol tenant) const;

    /**
     * Container-pool hook: one acquisition of @p function happened.
     * Feeds the histogram keep-alive policy.
     */
    void noteAcquire(Symbol function);

    /** Keep-alive TTL currently in effect for @p function. */
    Tick keepAliveFor(Symbol function) const;

    /** Deterministic lifetime statistics. */
    const FleetStats& stats() const { return stats_; }

  private:
    void addWorker(NodeState state);
    void retire(NodeId id);
    void scheduleAutoscale();
    void scheduleEviction();
    void autoscaleTick();
    void evictionTick();
    ScaleSignals sampleSignals() const;
    void traceLifecycle(NodeId id, const char* what);

    Simulation& sim_;
    ClusterConfig cluster_;
    FleetConfig config_;

    struct NodeMeta
    {
        NodeState state = NodeState::Ready;
    };

    std::vector<std::unique_ptr<Node>> workers_;
    std::vector<NodeMeta> meta_;
    /** Busy cores summed over workers_, kept by the nodes. */
    std::uint32_t busyCores_ = 0;
    std::unique_ptr<Node> controller_;
    std::unique_ptr<ContainerPool> containers_;

    Autoscaler scaler_;
    KeepAliveTracker keepAlive_;
    FleetStats stats_;

    /** @{ Fair-share admission accounting, indexed by Symbol id. */
    std::vector<std::uint64_t> tenantInFlight_;
    std::uint64_t totalInFlight_ = 0;
    std::uint32_t activeTenants_ = 0;
    /** @} */
};

} // namespace specfaas

#endif // SPECFAAS_FLEET_FLEET_HH
