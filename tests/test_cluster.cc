/** @file Unit tests for nodes, core scheduling, and containers. */

#include <gtest/gtest.h>

#include "fleet/fleet.hh"
#include "sim/simulation.hh"

namespace specfaas {
namespace {

TEST(Node, RunsTaskForDuration)
{
    Simulation sim;
    Node node(sim, 0, 2);
    bool done = false;
    node.submit(100, [&]() { done = true; });
    EXPECT_EQ(node.busyCores(), 1u);
    sim.events().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 100);
    EXPECT_EQ(node.busyCores(), 0u);
}

TEST(Node, QueuesBeyondCoreCount)
{
    Simulation sim;
    Node node(sim, 0, 1);
    std::vector<int> order;
    node.submit(100, [&]() { order.push_back(1); });
    node.submit(100, [&]() { order.push_back(2); });
    EXPECT_EQ(node.queueLength(), 1u);
    sim.events().run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.now(), 200); // serialized on the single core
}

TEST(Node, ParallelismUsesAllCores)
{
    Simulation sim;
    Node node(sim, 0, 4);
    int done = 0;
    for (int i = 0; i < 4; ++i)
        node.submit(100, [&]() { ++done; });
    sim.events().run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(sim.now(), 100); // all in parallel
}

TEST(Node, AbortQueuedTaskNeverRuns)
{
    Simulation sim;
    Node node(sim, 0, 1);
    node.submit(100, []() {});
    bool ran = false;
    const ComputeTaskId second = node.submit(100, [&]() { ran = true; });
    EXPECT_TRUE(node.abort(second, 0));
    sim.events().run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Node, AbortRunningTaskFreesCoreAfterOverhead)
{
    Simulation sim;
    Node node(sim, 0, 1);
    bool first_ran = false;
    const ComputeTaskId id = node.submit(1000, [&]() { first_ran = true; });
    bool second_ran = false;
    node.submit(10, [&]() { second_ran = true; });
    EXPECT_TRUE(node.abort(id, 5)); // kill overhead 5 ticks
    sim.events().run();
    EXPECT_FALSE(first_ran);
    EXPECT_TRUE(second_ran);
    EXPECT_EQ(sim.now(), 15); // 5 kill + 10 run
}

TEST(Node, AbortUnknownTaskIsFalse)
{
    Simulation sim;
    Node node(sim, 0, 1);
    EXPECT_FALSE(node.abort(42, 0));
}

TEST(Node, UtilizationIntegral)
{
    Simulation sim;
    Node node(sim, 0, 2);
    node.resetUtilization();
    node.submit(100, []() {});
    sim.events().run();
    sim.events().runUntil(200);
    // One of two cores busy for 100 of 200 ticks = 25%.
    EXPECT_NEAR(node.utilization(), 0.25, 1e-9);
}

TEST(ContainerPool, WarmAcquireIsFast)
{
    Simulation sim;
    Fleet fleet(sim, ClusterConfig{}, FleetConfig{});
    fleet.containers().prewarm("f", 1);
    Tick ready_at = -1;
    fleet.containers().acquire("f", [&](Container& c,
                                        const AcquireTiming& t) {
        ready_at = sim.now();
        EXPECT_EQ(t.containerCreation, 0);
        EXPECT_EQ(c.function(), "f");
    });
    sim.events().run();
    EXPECT_EQ(ready_at, fleet.clusterConfig().handlerForkOverhead);
    EXPECT_EQ(fleet.containers().warmStarts(), 1u);
    EXPECT_EQ(fleet.containers().coldStarts(), 0u);
}

TEST(ContainerPool, ColdAcquirePaysCreation)
{
    Simulation sim;
    Fleet fleet(sim, ClusterConfig{}, FleetConfig{});
    Tick ready_at = -1;
    AcquireTiming timing;
    fleet.containers().acquire("g", [&](Container&,
                                        const AcquireTiming& t) {
        ready_at = sim.now();
        timing = t;
    });
    sim.events().run();
    EXPECT_EQ(timing.containerCreation,
              fleet.clusterConfig().containerCreation);
    EXPECT_EQ(timing.runtimeSetup, fleet.clusterConfig().runtimeSetup);
    EXPECT_EQ(ready_at, timing.total());
    EXPECT_EQ(fleet.containers().coldStarts(), 1u);
}

TEST(ContainerPool, ReleaseEnablesWarmReuse)
{
    Simulation sim;
    Fleet fleet(sim, ClusterConfig{}, FleetConfig{});
    Container* first = nullptr;
    fleet.containers().acquire("f", [&](Container& c,
                                        const AcquireTiming&) {
        first = &c;
    });
    sim.events().run();
    ASSERT_NE(first, nullptr);
    const std::uint32_t firstId = first->id;
    const NodeId firstNode = first->node;
    fleet.containers().release(*first); // `first` is dead from here
    Container* second = nullptr;
    fleet.containers().acquire("f", [&](Container& c,
                                        const AcquireTiming&) {
        second = &c;
    });
    sim.events().run();
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->id, firstId);
    EXPECT_EQ(second->node, firstNode);
    EXPECT_EQ(fleet.containers().coldStarts(), 1u);
    EXPECT_EQ(fleet.containers().warmStarts(), 1u);
}

TEST(ContainerPool, DestroyForcesColdStartNextTime)
{
    Simulation sim;
    Fleet fleet(sim, ClusterConfig{}, FleetConfig{});
    fleet.containers().prewarm("f", 1);
    Container* c = nullptr;
    fleet.containers().acquire("f", [&](Container& got,
                                        const AcquireTiming&) {
        c = &got;
    });
    sim.events().run();
    fleet.containers().destroy(*c);
    EXPECT_EQ(fleet.containers().containerCount("f"), 0u);
    fleet.containers().acquire("f",
                               [](Container&, const AcquireTiming&) {});
    sim.events().run();
    EXPECT_EQ(fleet.containers().coldStarts(), 1u);
}

TEST(ContainerPool, WarmAcquireKeepsIdsAndFifoOrder)
{
    // Trace tids are kContainerTidBase + id, so a container keeps its
    // id and node through every warm -> busy -> warm cycle, and warm
    // containers are reused oldest release first.
    Simulation sim;
    ClusterConfig cluster;
    cluster.numNodes = 3;
    Fleet fleet(sim, cluster, FleetConfig{});
    ContainerPool& pool = fleet.containers();
    std::vector<Container*> busy;
    const auto acquire = [&](std::size_t n) {
        busy.clear();
        for (std::size_t i = 0; i < n; ++i)
            pool.acquire("f", [&](Container& c, const AcquireTiming&) {
                busy.push_back(&c);
            });
        sim.events().run();
        std::vector<std::pair<std::uint32_t, NodeId>> got;
        for (const Container* c : busy)
            got.emplace_back(c->id, c->node);
        return got;
    };
    using Got = std::vector<std::pair<std::uint32_t, NodeId>>;

    // Prewarm numbers containers in placement order, one per node.
    pool.prewarm("f", 3);
    EXPECT_EQ(acquire(3), (Got{{1, 0}, {2, 1}, {3, 2}}));
    ContainerFunctionPool& fp = *busy[0]->owner;
    EXPECT_TRUE(fp.warm.empty());
    EXPECT_EQ(fp.busy, 3u);

    // Release out of id order at three times: the warm FIFO holds the
    // records in release (idleSince) order.
    const Tick t0 = sim.now();
    pool.release(*busy[2]);
    sim.events().runUntil(t0 + 10);
    pool.release(*busy[0]);
    sim.events().runUntil(t0 + 20);
    pool.release(*busy[1]);
    busy.clear();
    ASSERT_EQ(fp.warm.size(), 3u);
    EXPECT_EQ(fp.busy, 0u);
    const std::uint32_t ids[] = {3, 1, 2};
    const NodeId nodes[] = {2, 0, 1};
    const Tick idle[] = {t0, t0 + 10, t0 + 20};
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(fp.warm[i].id, ids[i]) << i;
        EXPECT_EQ(fp.warm[i].node, nodes[i]) << i;
        EXPECT_EQ(fp.warm[i].idleSince, idle[i]) << i;
    }

    // Warm acquisition pops the oldest record first, id and node
    // intact; the next cold start takes the next id.
    EXPECT_EQ(acquire(4), (Got{{3, 2}, {1, 0}, {2, 1}, {4, 0}}));
    EXPECT_EQ(pool.warmStarts(), 6u);
    EXPECT_EQ(pool.coldStarts(), 1u);
    EXPECT_EQ(pool.containerCount("f"), 4u);
}

/**
 * Reference placement: pickNode()'s rule, applied once per container.
 * @p rr mirrors the pool's rotation start and advances exactly as
 * pickNode() advances it.
 */
NodeId
referencePick(const Fleet& fleet, std::uint32_t& rr)
{
    const auto& workers = fleet.workers();
    const Node* best = nullptr;
    std::uint32_t bestLoad = ~0u;
    for (std::size_t i = 0; i < workers.size(); ++i) {
        const Node* n = workers[(rr + i) % workers.size()].get();
        if (!fleet.placeable(n->id()))
            continue;
        const auto load = n->busyCores() +
                          static_cast<std::uint32_t>(n->queueLength());
        if (load < bestLoad) {
            bestLoad = load;
            best = n;
        }
    }
    rr = (rr + 1) % static_cast<std::uint32_t>(workers.size());
    if (best == nullptr)
        best = workers[rr % workers.size()].get();
    return best->id();
}

/** Prewarm @p count containers, predicting each node by reference. */
std::vector<NodeId>
prewarmWithReference(Fleet& fleet, Symbol fn, std::uint32_t count,
                     std::uint32_t& rr)
{
    std::vector<NodeId> expect;
    for (std::uint32_t i = 0; i < count; ++i)
        expect.push_back(referencePick(fleet, rr));
    fleet.containers().prewarm(fn, count);
    return expect;
}

/** Acquire @p count warm containers of @p fn: their nodes, in order. */
std::vector<NodeId>
acquireWarmNodes(Simulation& sim, ContainerPool& pool, Symbol fn,
                 std::size_t count)
{
    std::vector<NodeId> nodes(count, Fleet::kControllerNode);
    for (std::size_t i = 0; i < count; ++i)
        pool.acquire(fn, [&nodes, i](Container& c, const AcquireTiming&) {
            nodes[i] = c.node;
        });
    sim.events().run();
    return nodes;
}

/**
 * Mixed fleet: uneven loads plus a Draining, a down and two
 * Provisioning nodes. Prewarm batches and the cold start after them
 * land where the reference loop puts them.
 */
void
checkPrewarmOnMixedFleet()
{
    Simulation sim;
    ClusterConfig cluster;
    cluster.numNodes = 10;
    cluster.coresPerNode = 2;
    FleetConfig dyn;
    dyn.dynamics = true;
    dyn.minNodes = 2;
    dyn.maxNodes = 16;
    dyn.provisioningDelay = 200 * kMillisecond;
    dyn.autoscaler.enabled = false;
    Fleet fleet(sim, cluster, dyn);
    ContainerPool& pool = fleet.containers();

    // Uneven loads: busy cores and a queued task.
    fleet.worker(0).submit(kSecond, []() {});
    for (int i = 0; i < 3; ++i) // 2 running + 1 queued
        fleet.worker(2).submit(kSecond, []() {});
    fleet.worker(5).submit(kSecond, []() {});
    fleet.worker(8).submit(kSecond, []() {});
    fleet.worker(8).submit(kSecond, []() {});
    ASSERT_EQ(fleet.worker(2).queueLength(), 1u);
    // One node of every unplaceable kind.
    fleet.drain(1); // least-loaded, highest id: node 9
    ASSERT_EQ(fleet.state(9), NodeState::Draining);
    fleet.failNode(3);
    fleet.provision(2); // nodes 10 and 11
    ASSERT_EQ(fleet.state(11), NodeState::Provisioning);

    // Several batches, each longer than the fleet, so the rotation
    // wraps inside a batch and carries across batches.
    std::uint32_t rr = 0;
    const Symbol a("prewarm-pin-a");
    const Symbol b("prewarm-pin-b");
    const std::vector<NodeId> expectA =
        prewarmWithReference(fleet, a, 29, rr);
    const std::vector<NodeId> expectNone =
        prewarmWithReference(fleet, b, 0, rr);
    EXPECT_TRUE(expectNone.empty());
    const std::vector<NodeId> expectB =
        prewarmWithReference(fleet, b, 7, rr);

    std::vector<std::size_t> perNode(fleet.workers().size(), 0);
    for (NodeId id : expectA)
        ++perNode[id];
    for (NodeId id : expectB)
        ++perNode[id];
    for (NodeId id = 0; id < perNode.size(); ++id)
        EXPECT_EQ(pool.liveOnNode(id), perNode[id]) << "node " << id;

    // A cold start after the batches continues the same rotation.
    const NodeId expectCold = referencePick(fleet, rr);
    NodeId cold = Fleet::kControllerNode;
    pool.acquire(Symbol("prewarm-pin-cold"),
                 [&](Container& c, const AcquireTiming&) {
                     cold = c.node;
                 });

    EXPECT_EQ(acquireWarmNodes(sim, pool, a, expectA.size()), expectA);
    EXPECT_EQ(acquireWarmNodes(sim, pool, b, expectB.size()), expectB);
    EXPECT_EQ(cold, expectCold);
    EXPECT_EQ(pool.coldStarts(), 1u);
}

/** No placeable node at all: pickNode()'s fallback rotation. */
void
checkPrewarmWithNoPlaceableNode()
{
    Simulation sim;
    ClusterConfig cluster;
    cluster.numNodes = 4;
    Fleet fleet(sim, cluster, FleetConfig{});
    ContainerPool& pool = fleet.containers();
    for (NodeId id = 0; id < 4; ++id)
        fleet.failNode(id);

    std::uint32_t rr = 0;
    const Symbol fn("prewarm-fallback");
    const std::vector<NodeId> expect =
        prewarmWithReference(fleet, fn, 6, rr);

    // Bring two nodes back: the next cold start picks among them from
    // where the fallback rotation left off.
    fleet.restoreNode(0);
    fleet.restoreNode(1);
    const NodeId expectCold = referencePick(fleet, rr);
    NodeId cold = Fleet::kControllerNode;
    pool.acquire(Symbol("prewarm-fallback-cold"),
                 [&](Container& c, const AcquireTiming&) {
                     cold = c.node;
                 });

    EXPECT_EQ(acquireWarmNodes(sim, pool, fn, expect.size()), expect);
    EXPECT_EQ(cold, expectCold);
}

TEST(ContainerPool, PrewarmPlacementMatchesPerContainerPick)
{
    // prewarm() places a whole batch from one fleet scan; it must
    // reproduce pickNode() called once per container, rotation
    // included.
    checkPrewarmOnMixedFleet();
    checkPrewarmWithNoPlaceableNode();
}

TEST(Cluster, GeometryAndUtilization)
{
    Simulation sim;
    ClusterConfig config;
    config.numNodes = 3;
    config.coresPerNode = 4;
    Fleet fleet(sim, config, FleetConfig{});
    EXPECT_EQ(fleet.liveCores(), 12u);
    EXPECT_EQ(fleet.workers().size(), 3u);
    fleet.resetUtilization();
    fleet.worker(0).submit(100, []() {});
    sim.events().run();
    sim.events().runUntil(100);
    // 1 of 12 cores busy the whole window.
    EXPECT_NEAR(fleet.utilization(), 1.0 / 12.0, 1e-9);
}

TEST(Cluster, ControllerStationIsSeparate)
{
    Simulation sim;
    Fleet fleet(sim, ClusterConfig{}, FleetConfig{});
    EXPECT_EQ(fleet.controller().cores(),
              fleet.clusterConfig().controllerThreads);
    fleet.controller().submit(10, []() {});
    EXPECT_EQ(fleet.controller().busyCores(), 1u);
    // Worker utilization unaffected by controller work.
    EXPECT_EQ(fleet.worker(0).busyCores(), 0u);
}

} // namespace
} // namespace specfaas
