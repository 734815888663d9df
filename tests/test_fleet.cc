/**
 * @file
 * Unit tests for the dynamic fleet layer: autoscaler policy,
 * keep-alive tracking, node lifecycle, fair-share admission, the
 * configuration validation at fleet construction, and a differential
 * suite pinning the running counts (live containers per node, busy
 * cores across the fleet) to a full recount under random churn.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cluster/cluster.hh"
#include "common/rng.hh"
#include "fleet/autoscaler.hh"
#include "fleet/eviction.hh"
#include "fleet/fleet.hh"
#include "sim/simulation.hh"

namespace specfaas {
namespace {

AutoscalerConfig
testScalerConfig()
{
    AutoscalerConfig c;
    c.enabled = true;
    c.interval = 100 * kMillisecond;
    c.utilHigh = 0.70;
    c.queueDepthHigh = 64;
    c.utilLow = 0.20;
    c.lowStreak = 3;
    c.scaleUpStep = 16;
    c.scaleDownStep = 8;
    c.cooldown = 500 * kMillisecond;
    return c;
}

ScaleSignals
signals(std::uint32_t ready, double util, std::size_t queue)
{
    ScaleSignals s;
    s.readyNodes = ready;
    s.utilization = util;
    s.controllerQueue = queue;
    return s;
}

TEST(Autoscaler, ScalesUpOnUtilizationPressure)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    const ScaleDecision d =
        scaler.evaluate(signals(10, 0.9, 0), kSecond);
    EXPECT_EQ(d.delta, 16);
}

TEST(Autoscaler, ScalesUpOnQueuePressure)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    const ScaleDecision d =
        scaler.evaluate(signals(10, 0.1, 200), kSecond);
    EXPECT_EQ(d.delta, 16);
}

TEST(Autoscaler, ScaleUpClampsToMaxNodes)
{
    Autoscaler scaler(testScalerConfig(), 10, 20);
    ScaleSignals s = signals(15, 0.9, 0);
    s.provisioningNodes = 2; // 15 + 2 in flight, room for 3
    EXPECT_EQ(scaler.evaluate(s, kSecond).delta, 3);
    Autoscaler full(testScalerConfig(), 10, 15);
    EXPECT_EQ(full.evaluate(signals(15, 0.9, 0), kSecond).delta, 0);
}

TEST(Autoscaler, CooldownBlocksBackToBackActions)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    EXPECT_EQ(scaler.evaluate(signals(10, 0.9, 0), kSecond).delta, 16);
    // Still pressured 100 ms later: inside the 500 ms cooldown.
    EXPECT_EQ(scaler
                  .evaluate(signals(10, 0.9, 0),
                            kSecond + 100 * kMillisecond)
                  .delta,
              0);
    // Past the cooldown the pressure acts again.
    EXPECT_EQ(scaler
                  .evaluate(signals(10, 0.9, 0),
                            kSecond + 600 * kMillisecond)
                  .delta,
              16);
}

TEST(Autoscaler, ScaleDownNeedsSustainedIdle)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    const Tick step = 100 * kMillisecond;
    // Two idle ticks are not enough (lowStreak = 3).
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), step).delta, 0);
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), 2 * step).delta, 0);
    EXPECT_EQ(scaler.lowStreak(), 2u);
    // A busy tick resets the streak.
    EXPECT_EQ(scaler.evaluate(signals(40, 0.5, 0), 3 * step).delta, 0);
    EXPECT_EQ(scaler.lowStreak(), 0u);
    // Three consecutive idle ticks drain one step.
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), 4 * step).delta, 0);
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), 5 * step).delta, 0);
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), 6 * step).delta,
              -8);
}

TEST(Autoscaler, ScaleDownClampsToMinNodes)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    const Tick step = 100 * kMillisecond;
    scaler.evaluate(signals(12, 0.05, 0), step);
    scaler.evaluate(signals(12, 0.05, 0), 2 * step);
    EXPECT_EQ(scaler.evaluate(signals(12, 0.05, 0), 3 * step).delta,
              -2);
    // At the floor nothing happens even when idle persists.
    Autoscaler at_floor(testScalerConfig(), 10, 100);
    at_floor.evaluate(signals(10, 0.05, 0), step);
    at_floor.evaluate(signals(10, 0.05, 0), 2 * step);
    EXPECT_EQ(
        at_floor.evaluate(signals(10, 0.05, 0), 3 * step).delta, 0);
}

TEST(KeepAlive, FixedTtlIgnoresHistory)
{
    EvictionConfig cfg;
    cfg.policy = EvictionConfig::Policy::FixedTtl;
    cfg.fixedTtl = 42 * kSecond;
    KeepAliveTracker tracker(cfg);
    const Symbol fn("keepalive-fixed-fn");
    tracker.noteAcquire(fn, 0);
    tracker.noteAcquire(fn, kMillisecond);
    EXPECT_EQ(tracker.keepAliveFor(fn), 42 * kSecond);
}

TEST(KeepAlive, NoHistoryUsesMaxKeepAlive)
{
    EvictionConfig cfg;
    cfg.policy = EvictionConfig::Policy::Histogram;
    cfg.maxKeepAlive = 90 * kSecond;
    KeepAliveTracker tracker(cfg);
    EXPECT_EQ(tracker.keepAliveFor(Symbol("keepalive-cold-fn")),
              90 * kSecond);
}

TEST(KeepAlive, HistogramCoversObservedGaps)
{
    EvictionConfig cfg;
    cfg.policy = EvictionConfig::Policy::Histogram;
    cfg.keepAlivePercentile = 99.0;
    cfg.minKeepAlive = kMillisecond;
    cfg.maxKeepAlive = 600 * kSecond;
    KeepAliveTracker tracker(cfg);
    const Symbol fn("keepalive-hist-fn");
    // Acquisitions 3 s apart: the keep-alive must cover that gap
    // (next power-of-two bucket), but stay well below the maximum.
    Tick now = 0;
    for (int i = 0; i < 50; ++i) {
        tracker.noteAcquire(fn, now);
        now += 3 * kSecond;
    }
    const Tick keep = tracker.keepAliveFor(fn);
    EXPECT_GE(keep, 3 * kSecond);
    EXPECT_LE(keep, 8 * kSecond);
    EXPECT_EQ(tracker.observations(fn), 49u);
}

TEST(KeepAlive, ClampsToConfiguredBounds)
{
    EvictionConfig cfg;
    cfg.policy = EvictionConfig::Policy::Histogram;
    cfg.minKeepAlive = 10 * kSecond;
    cfg.maxKeepAlive = 20 * kSecond;
    KeepAliveTracker tracker(cfg);
    const Symbol fast("keepalive-fast-fn");
    for (int i = 0; i < 20; ++i)
        tracker.noteAcquire(fast, i * kMillisecond);
    EXPECT_EQ(tracker.keepAliveFor(fast), 10 * kSecond); // clamp up
    const Symbol slow("keepalive-slow-fn");
    for (int i = 0; i < 20; ++i)
        tracker.noteAcquire(slow, i * 300 * kSecond);
    EXPECT_EQ(tracker.keepAliveFor(slow), 20 * kSecond); // clamp down
}

FleetConfig
dynamicConfig()
{
    FleetConfig fleet;
    fleet.dynamics = true;
    fleet.minNodes = 2;
    fleet.maxNodes = 8;
    fleet.provisioningDelay = 200 * kMillisecond;
    fleet.autoscaler.enabled = false; // lifecycle driven by hand
    fleet.eviction.policy = EvictionConfig::Policy::None;
    return fleet;
}

ClusterConfig
smallCluster()
{
    ClusterConfig cluster;
    cluster.numNodes = 3;
    cluster.coresPerNode = 4;
    return cluster;
}

TEST(Fleet, StaticFleetSchedulesNoEvents)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), FleetConfig{});
    EXPECT_FALSE(fleet.dynamic());
    sim.events().run();
    EXPECT_EQ(sim.now(), 0); // nothing pending, no daemons
    EXPECT_EQ(fleet.readyWorkers(), 3u);
    EXPECT_EQ(fleet.liveCores(), 12u);
    EXPECT_EQ(fleet.stats().peakReadyNodes, 3u);
}

TEST(Fleet, ProvisionBecomesReadyAfterDelay)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), dynamicConfig());
    fleet.provision(2);
    EXPECT_EQ(fleet.provisioningWorkers(), 2u);
    EXPECT_EQ(fleet.readyWorkers(), 3u);
    EXPECT_FALSE(fleet.placeable(3));
    // The provisioning daemon needs a live event to run alongside.
    sim.events().schedule(300 * kMillisecond, []() {});
    sim.events().run();
    EXPECT_EQ(fleet.provisioningWorkers(), 0u);
    EXPECT_EQ(fleet.readyWorkers(), 5u);
    EXPECT_TRUE(fleet.placeable(3));
    EXPECT_EQ(fleet.stats().provisioned, 2u);
    EXPECT_EQ(fleet.stats().peakReadyNodes, 5u);
    EXPECT_EQ(fleet.liveCores(), 20u);
}

TEST(Fleet, DrainStopsPlacementAndEvictsWarmPool)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), dynamicConfig());
    // Park a warm container on every node, round-robin.
    fleet.containers().prewarm(Symbol("drain-test-fn"), 3);
    fleet.drain(1);
    // The least-loaded Ready worker with the highest id drains.
    EXPECT_EQ(fleet.state(2), NodeState::Draining);
    EXPECT_FALSE(fleet.placeable(2));
    EXPECT_EQ(fleet.readyWorkers(), 2u);
    EXPECT_EQ(fleet.stats().evictions, 1u); // its warm container
    // liveCores still counts draining nodes (not yet retired).
    EXPECT_EQ(fleet.liveCores(), 12u);
}

TEST(Fleet, DrainKeepsMinNodes)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), dynamicConfig());
    fleet.drain(10); // asks for far more than allowed
    EXPECT_EQ(fleet.readyWorkers(), 2u); // minNodes floor
}

TEST(Fleet, FailedNodeIsNotPlaceable)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), FleetConfig{});
    EXPECT_TRUE(fleet.placeable(1));
    fleet.failNode(1);
    EXPECT_FALSE(fleet.placeable(1));
    EXPECT_EQ(fleet.state(1), NodeState::Ready); // down, not retired
    fleet.restoreNode(1);
    EXPECT_TRUE(fleet.placeable(1));
}

FleetConfig
fairShareConfig()
{
    FleetConfig fleet = dynamicConfig();
    fleet.admission.fairShare = true;
    fleet.admission.engageQueueDepth = 0; // engage on any queue
    fleet.admission.fairFactor = 1.0;
    fleet.admission.minTenantInFlight = 2;
    return fleet;
}

TEST(Fleet, FairShareThrottlesTheHogTenantOnly)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), fairShareConfig());
    EXPECT_TRUE(fleet.admissionActive());
    // Back up the control plane so fair sharing engages.
    for (std::uint32_t i = 0;
         i < smallCluster().controllerThreads + 2; ++i)
        fleet.controller().submit(10 * kSecond, []() {});
    ASSERT_GT(fleet.controller().queueLength(), 0u);

    const Symbol hog("fair-hog-tenant");
    const Symbol meek("fair-meek-tenant");
    ASSERT_TRUE(fleet.admit(meek)); // both tenants active
    std::uint64_t admitted = 0;
    while (fleet.admit(hog) && admitted < 100)
        ++admitted;
    EXPECT_LT(admitted, 100u); // the hog eventually throttles
    EXPECT_GT(fleet.stats().fairRejects, 0u);
    // The meek tenant is under its share and still admits.
    EXPECT_TRUE(fleet.admit(meek));
    EXPECT_EQ(fleet.tenantInFlight(meek), 2u);
    // Completions free the hog's budget again.
    const std::uint64_t before = fleet.tenantInFlight(hog);
    fleet.complete(hog);
    EXPECT_EQ(fleet.tenantInFlight(hog), before - 1);
}

TEST(Fleet, AdmissionInactiveWithoutDynamics)
{
    Simulation sim;
    FleetConfig fleet_cfg;
    fleet_cfg.admission.fairShare = true; // ignored: static fleet
    Fleet fleet(sim, smallCluster(), fleet_cfg);
    EXPECT_FALSE(fleet.admissionActive());
    EXPECT_TRUE(fleet.admit(Symbol("any-tenant")));
}

using FleetConfigDeath = ::testing::Test;

TEST(FleetConfigDeath, ZeroControllerThreadsDies)
{
    ClusterConfig cluster = smallCluster();
    cluster.controllerThreads = 0;
    EXPECT_DEATH(
        {
            Simulation sim;
            Fleet fleet(sim, cluster, FleetConfig{});
        },
        "controllerThreads");
}

TEST(FleetConfigDeath, ZeroNodesDies)
{
    ClusterConfig cluster = smallCluster();
    cluster.numNodes = 0;
    EXPECT_DEATH(
        {
            Simulation sim;
            Fleet fleet(sim, cluster, FleetConfig{});
        },
        "numNodes");
}

TEST(FleetConfigDeath, MinNodesAboveInitialDies)
{
    FleetConfig fleet_cfg = dynamicConfig();
    fleet_cfg.minNodes = 99;
    EXPECT_DEATH(
        {
            Simulation sim;
            Fleet fleet(sim, smallCluster(), fleet_cfg);
        },
        "minNodes");
}

TEST(FleetConfigDeath, MaxNodesBelowInitialDies)
{
    FleetConfig fleet_cfg = dynamicConfig();
    fleet_cfg.maxNodes = 2;
    EXPECT_DEATH(
        {
            Simulation sim;
            Fleet fleet(sim, smallCluster(), fleet_cfg);
        },
        "maxNodes");
}

// ---------------------------------------------------------------------------
// Differential suite: running counts vs a full recount under churn.
// ---------------------------------------------------------------------------

/**
 * Reference recount of the live containers on @p node: a full scan of
 * every warm record of every function pool plus every busy container
 * object (held by the test or still being handed over), against which
 * the pool's per-node running count is checked.
 */
std::size_t
recountLiveOnNode(const ContainerPool& pool,
                  const std::vector<ContainerFunctionPool*>& pools,
                  NodeId node)
{
    std::size_t n = 0;
    for (const ContainerFunctionPool* fp : pools)
        for (const WarmContainer& w : fp->warm)
            if (w.node == node)
                ++n;
    pool.busyContainers().forEach([&](const Container& c) {
        if (c.node == node)
            ++n;
    });
    return n;
}

/**
 * Assert every running count equals its recount: live containers per
 * node, and the fleet's busy and total cores against a sum over
 * every worker.
 */
void
expectCountsMatch(Fleet& fleet,
                  const std::vector<ContainerFunctionPool*>& pools,
                  const std::vector<Symbol>& functions)
{
    std::uint32_t busy = 0;
    std::uint32_t cores = 0;
    std::size_t liveSum = 0;
    for (const auto& n : fleet.workers()) {
        busy += n->busyCores();
        cores += n->cores();
        const std::size_t live = fleet.containers().liveOnNode(n->id());
        ASSERT_EQ(live,
                  recountLiveOnNode(fleet.containers(), pools, n->id()))
            << "node " << n->id();
        liveSum += live;
    }
    ASSERT_EQ(fleet.allWorkerBusyCores(), busy);
    ASSERT_EQ(fleet.allWorkerCores(), cores);
    std::size_t perFunction = 0;
    for (Symbol f : functions)
        perFunction += fleet.containers().containerCount(f);
    ASSERT_EQ(liveSum, perFunction);
}

/** Op-mix weights, in the order the dispatcher draws them. */
struct FleetOpMix
{
    double acquire;   // warm or cold acquisition
    double release;   // return a held container to the warm pool
    double destroy;   // kill a held (busy) container
    double prewarm;   // batch placement
    double evictIdle; // keep-alive sweep
    double reclaim;   // dropNode / evictWarmOnNode
    double lifecycle; // drain one node / provision one node
    double submit;    // node compute burst
    double abort;     // abort a submitted burst
    double setDown;   // toggle a node's failure flag
    double advance;   // run the simulation forward
};

/**
 * Drive one fleet through @p ops random pool and fleet operations
 * drawn from @p mix, checking every running count against its
 * recount after each one. An inert autoscaler ticks every 20 ms so
 * drained nodes retire; a fixed 40 ms keep-alive evicts idle
 * containers in the background as well.
 */
void
runFleetDifferential(std::uint64_t seed, std::size_t ops,
                     const FleetOpMix& mix)
{
    Rng rng(seed);
    Simulation sim;
    ClusterConfig cluster;
    cluster.numNodes = 6;
    cluster.coresPerNode = 2;
    // Cold starts short enough to land inside the op stream.
    cluster.containerCreation = 15 * kMillisecond;
    cluster.runtimeSetup = 5 * kMillisecond;
    FleetConfig cfg;
    cfg.dynamics = true;
    cfg.minNodes = 2;
    cfg.maxNodes = 24;
    cfg.provisioningDelay = 30 * kMillisecond;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.interval = 20 * kMillisecond;
    cfg.autoscaler.utilHigh = 2.0; // never pressured
    cfg.autoscaler.queueDepthHigh =
        std::numeric_limits<std::uint32_t>::max();
    cfg.autoscaler.utilLow = -1.0; // never idle
    cfg.eviction.policy = EvictionConfig::Policy::FixedTtl;
    cfg.eviction.fixedTtl = 40 * kMillisecond;
    cfg.eviction.scanInterval = 25 * kMillisecond;
    Fleet fleet(sim, cluster, cfg);
    ContainerPool& pool = fleet.containers();

    const std::vector<Symbol> functions = {
        Symbol("fleet-diff-a"), Symbol("fleet-diff-b"),
        Symbol("fleet-diff-c")};
    std::vector<ContainerFunctionPool*> pools;
    std::vector<Container*> held; // busy containers the test owns
    const auto acquire = [&](Symbol f) {
        pool.acquire(f, [&](Container& c, const AcquireTiming&) {
            held.push_back(&c);
        });
    };
    // One cold start per function exposes its pool's warm records.
    for (Symbol f : functions)
        acquire(f);
    sim.events().runUntil(sim.now() + kSecond);
    ASSERT_EQ(held.size(), functions.size());
    for (Container* c : held)
        pools.push_back(c->owner);

    struct Task
    {
        NodeId node;
        ComputeTaskId id;
    };
    std::vector<Task> tasks;
    const auto pickIndex = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.uniformInt(n));
    };
    const auto pickNode = [&]() {
        return static_cast<NodeId>(pickIndex(fleet.workers().size()));
    };
    const auto takeHeld = [&]() {
        const std::size_t i = pickIndex(held.size());
        Container* c = held[i];
        held[i] = held.back();
        held.pop_back();
        return c;
    };

    const std::vector<double> weights = {
        mix.acquire, mix.release,   mix.destroy, mix.prewarm,
        mix.evictIdle, mix.reclaim, mix.lifecycle, mix.submit,
        mix.abort,   mix.setDown,   mix.advance};
    for (std::size_t i = 0; i < ops; ++i) {
        switch (rng.weightedPick(weights)) {
        case 0:
            acquire(functions[pickIndex(functions.size())]);
            break;
        case 1:
            if (!held.empty())
                pool.release(*takeHeld());
            break;
        case 2:
            // Only a busy container is ever destroyed; warm ones
            // leave through dropNode, evictWarmOnNode and evictIdle.
            if (!held.empty())
                pool.destroy(*takeHeld());
            break;
        case 3:
            pool.prewarm(functions[pickIndex(functions.size())],
                         static_cast<std::uint32_t>(rng.uniformInt(
                             std::uint64_t{9})));
            break;
        case 4:
            pool.evictIdle(sim.now());
            break;
        case 5:
            if (rng.bernoulli(0.5))
                pool.dropNode(pickNode());
            else
                pool.evictWarmOnNode(pickNode());
            break;
        case 6:
            if (rng.bernoulli(0.5))
                fleet.drain(1);
            else if (fleet.workers().size() < cfg.maxNodes)
                fleet.provision(1);
            break;
        case 7: {
            const NodeId n = pickNode();
            const Tick d = static_cast<Tick>(rng.uniformInt(
                               std::uint64_t{50})) *
                           kMillisecond;
            tasks.push_back(Task{n, fleet.worker(n).submit(d, []() {})});
            break;
        }
        case 8:
            if (!tasks.empty()) {
                const std::size_t t = pickIndex(tasks.size());
                fleet.worker(tasks[t].node)
                    .abort(tasks[t].id, kMillisecond);
                tasks[t] = tasks.back();
                tasks.pop_back();
            }
            break;
        case 9: {
            Node& n = fleet.worker(pickNode());
            n.setDown(!n.isDown());
            break;
        }
        case 10:
            sim.events().runUntil(
                sim.now() + static_cast<Tick>(rng.uniformInt(
                                std::uint64_t{30})) *
                                kMillisecond);
            break;
        }
        ASSERT_NO_FATAL_FAILURE(expectCountsMatch(fleet, pools, functions))
            << "seed " << seed << " op " << i;
    }
    // Let everything in flight land, then recheck at quiescence.
    for (Container* c : held)
        pool.release(*c);
    held.clear();
    for (const auto& n : fleet.workers())
        n->setDown(false);
    sim.events().runUntil(sim.now() + 2 * kSecond);
    ASSERT_NO_FATAL_FAILURE(expectCountsMatch(fleet, pools, functions));
    EXPECT_EQ(fleet.allWorkerBusyCores(), 0u);
    // The stream reached the lifecycle paths it is meant to pin.
    EXPECT_GT(fleet.stats().retired, 0u) << "seed " << seed;
    EXPECT_GT(pool.coldStarts(), functions.size()) << "seed " << seed;
}

TEST(Fleet, DifferentialCountsPoolChurn)
{
    const FleetOpMix mix{6, 5, 2, 2, 1, 1, 1, 3, 1, 1, 3};
    for (std::uint64_t seed : {1u, 2u, 3u})
        runFleetDifferential(seed, 3000, mix);
}

TEST(Fleet, DifferentialCountsLifecycleChurn)
{
    const FleetOpMix mix{4, 3, 1, 1, 1, 3, 3, 2, 1, 3, 3};
    for (std::uint64_t seed : {11u, 12u, 13u})
        runFleetDifferential(seed, 3000, mix);
}

TEST(Cluster, ViewDelegatesToFleet)
{
    Simulation sim;
    Cluster cluster(sim, smallCluster());
    EXPECT_EQ(&cluster.containers(), &cluster.fleet().containers());
    EXPECT_EQ(cluster.fleet().liveCores(), 12u);
    EXPECT_FALSE(cluster.fleet().dynamic());
}

} // namespace
} // namespace specfaas
