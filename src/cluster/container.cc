#include "container.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "sim/sim_context.hh"

namespace specfaas {

namespace {

/** The load pickNode() balances: running plus queued tasks. */
std::uint32_t
placementLoad(const Node& n)
{
    return n.busyCores() + static_cast<std::uint32_t>(n.queueLength());
}

} // namespace

ContainerPool::ContainerPool(Simulation& sim, Fleet& fleet,
                             const ClusterConfig& config)
    : sim_(sim), fleet_(fleet), config_(config)
{
    SPECFAAS_ASSERT(!fleet_.workers().empty(),
                    "container pool with no nodes");
}

ContainerPool::~ContainerPool()
{
    sim_.context().counters().add("cluster.cold_starts", coldStarts_);
    sim_.context().counters().add("cluster.warm_starts", warmStarts_);
}

Node&
ContainerPool::pickNode()
{
    // Least-loaded placement with round-robin tie-breaking, so cold
    // starts spread across the cluster deterministically. Only
    // placeable (Ready, up) nodes receive placements unless the whole
    // fleet is unplaceable.
    const auto& workers = fleet_.workers();
    Node* best = nullptr;
    std::uint32_t bestLoad = ~0u;
    for (std::size_t i = 0; i < workers.size(); ++i) {
        Node* n = workers[(rrNext_ + i) % workers.size()].get();
        if (!fleet_.placeable(n->id()))
            continue;
        const std::uint32_t load = placementLoad(*n);
        if (load < bestLoad) {
            bestLoad = load;
            best = n;
        }
    }
    rrNext_ = (rrNext_ + 1) % static_cast<std::uint32_t>(workers.size());
    if (best == nullptr)
        best = workers[rrNext_ % workers.size()].get();
    return *best;
}

Node*
ContainerPool::nodeById(NodeId id) const
{
    // Worker ids equal their index in the fleet's worker table.
    const auto& workers = fleet_.workers();
    return id < workers.size() ? workers[id].get() : nullptr;
}

ContainerFunctionPool&
ContainerPool::poolFor(Symbol function)
{
    const std::size_t i = function.id();
    if (i >= pools_.size())
        pools_.resize(i + 1);
    if (pools_[i] == nullptr) {
        pools_[i] = std::make_unique<ContainerFunctionPool>();
        pools_[i]->sym = function;
        pools_[i]->name = function.str();
    }
    return *pools_[i];
}

Container*
ContainerPool::createContainer(ContainerFunctionPool& pool, NodeId node)
{
    Container* c;
    if (!pool.free_.empty()) {
        c = pool.free_.back();
        pool.free_.pop_back();
    } else {
        c = &pool.slots.emplace_back();
    }
    c->id = nextContainer_++;
    c->owner = &pool;
    c->node = node;
    c->busy = false;
    c->dead = false;
    ++pool.live;
    if (node >= liveOnNode_.size())
        liveOnNode_.resize(node + 1, 0);
    ++liveOnNode_[node];
    return c;
}

void
ContainerPool::retireSlot(Container& c)
{
    ContainerFunctionPool& pool = *c.owner;
    c.dead = true;
    --pool.live;
    --liveOnNode_[c.node];
    pool.free_.push_back(&c);
}

void
ContainerPool::acquire(Symbol function, AcquireCallback done)
{
    OBS_ZONE(sim_.context().profiler(), "cluster/acquire");
    if (fleet_.dynamic())
        fleet_.noteAcquire(function);
    ContainerFunctionPool& pool = poolFor(function);
    if (!pool.warm.empty()) {
        Container* c = pool.warm.front();
        pool.warm.pop_front();
        c->busy = true;
        ++warmStarts_;
        if (auto& tr = sim_.context().trace(); tr.enabled()) {
            tr.instant(obs::cat::kContainer, "warm-start", sim_.now(),
                       obs::nodePid(c->node),
                       obs::kContainerTidBase + c->id,
                       {{"function", pool.name}});
        }
        AcquireTiming timing;
        timing.handlerFork = config_.handlerForkOverhead;
        sim_.events().schedule(timing.handlerFork,
                               [c, timing,
                                cb = std::move(done)]() mutable {
                                   cb(*c, timing);
                               });
        return;
    }

    // Cold start: create a container on the least-loaded node.
    ++coldStarts_;
    Node& node = pickNode();
    Container* c = createContainer(pool, node.id());
    c->busy = true;

    AcquireTiming timing;
    timing.containerCreation = config_.containerCreation;
    timing.runtimeSetup = config_.runtimeSetup;
    timing.handlerFork = config_.handlerForkOverhead;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.begin(obs::cat::kContainer, "cold-start", sim_.now(),
                 obs::nodePid(c->node), obs::kContainerTidBase + c->id,
                 {{"function", pool.name},
                  {"container_creation_us", timing.containerCreation},
                  {"runtime_setup_us", timing.runtimeSetup},
                  {"handler_fork_us", timing.handlerFork}});
    }
    sim_.events().schedule(
        timing.total(),
        [this, c, timing, cb = std::move(done)]() mutable {
            if (auto& tr = sim_.context().trace(); tr.enabled()) {
                tr.end(obs::cat::kContainer, "cold-start", sim_.now(),
                       obs::nodePid(c->node),
                       obs::kContainerTidBase + c->id);
            }
            // The node died (or left service) while this container
            // was being created: the creation is lost; place the
            // request again.
            if (!fleet_.placeable(c->node)) {
                ContainerFunctionPool& p = *c->owner;
                destroy(*c);
                acquire(p.sym, std::move(cb));
                return;
            }
            cb(*c, timing);
        });
}

void
ContainerPool::release(Container& c)
{
    OBS_ZONE(sim_.context().profiler(), "cluster/release");
    SPECFAAS_ASSERT(c.busy, "releasing idle container %llu",
                    static_cast<unsigned long long>(c.id));
    // A container on a failed or draining node cannot rejoin the warm
    // pool; its state dies with the node.
    if (!fleet_.placeable(c.node)) {
        destroy(c);
        return;
    }
    c.busy = false;
    c.idleSince = sim_.now();
    c.owner->warm.push_back(&c);
}

void
ContainerPool::destroy(Container& c)
{
    SPECFAAS_ASSERT(!c.dead, "destroying container %llu twice",
                    static_cast<unsigned long long>(c.id));
    // Only an idle container can sit in the warm deque.
    if (!c.busy) {
        std::deque<Container*>& warm = c.owner->warm;
        auto wit = std::find(warm.begin(), warm.end(), &c);
        if (wit != warm.end())
            warm.erase(wit);
    }
    retireSlot(c);
}

void
ContainerPool::prewarm(Symbol function, std::uint32_t count)
{
    ContainerFunctionPool& pool = poolFor(function);
    // Prewarming submits no work, so loads and placeability stay
    // fixed for the whole batch and each pickNode() call would rescan
    // the same fleet. Scan it once instead. pickNode() returns the
    // first least-loaded placeable node at or after the rotation
    // start rrNext_, wrapping around, and then advances rrNext_ by
    // one; with the least-loaded nodes listed in id order, that is
    // the first entry at or after rrNext_, else the first entry.
    const auto& workers = fleet_.workers();
    const auto n = static_cast<std::uint32_t>(workers.size());
    std::vector<NodeId> least;
    std::uint32_t leastLoad = ~0u;
    for (NodeId id = 0; id < n; ++id) {
        if (!fleet_.placeable(id))
            continue;
        const std::uint32_t load = placementLoad(*workers[id]);
        if (load < leastLoad) {
            leastLoad = load;
            least.clear();
        }
        if (load == leastLoad)
            least.push_back(id);
    }
    std::size_t next = 0; // first entry of `least` at or after rrNext_
    for (std::uint32_t i = 0; i < count; ++i) {
        while (next < least.size() && least[next] < rrNext_)
            ++next;
        NodeId node;
        if (least.empty())
            node = (rrNext_ + 1) % n; // pickNode()'s fallback
        else
            node = next < least.size() ? least[next] : least.front();
        rrNext_ = (rrNext_ + 1) % n;
        if (rrNext_ == 0)
            next = 0; // the rotation wrapped
        Container* c = createContainer(pool, node);
        c->idleSince = sim_.now();
        pool.warm.push_back(c);
    }
}

std::size_t
ContainerPool::reclaimWarmOnNode(NodeId node)
{
    std::size_t dropped = 0;
    if (liveOnNode(node) == 0)
        return dropped;
    for (auto& entry : pools_) {
        if (entry == nullptr)
            continue;
        // One back-to-front pass: victims join the free list newest
        // first, survivors slide toward the back in their original
        // (idleSince) order, and the vacated front goes in one erase.
        std::deque<Container*>& warm = entry->warm;
        std::size_t keep = warm.size();
        for (std::size_t i = warm.size(); i-- > 0;) {
            Container* c = warm[i];
            if (c->node == node) {
                retireSlot(*c);
                ++dropped;
            } else {
                warm[--keep] = c;
            }
        }
        warm.erase(warm.begin(),
                   warm.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    return dropped;
}

std::size_t
ContainerPool::dropNode(NodeId node)
{
    const std::size_t dropped = reclaimWarmOnNode(node);
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFault, "warm-pool-lost", sim_.now(),
                   obs::nodePid(node), 0,
                   {{"dropped", dropped}});
    }
    return dropped;
}

std::size_t
ContainerPool::evictWarmOnNode(NodeId node)
{
    const std::size_t dropped = reclaimWarmOnNode(node);
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFleet, "warm-pool-drained", sim_.now(),
                   obs::nodePid(node), 0,
                   {{"dropped", dropped}});
    }
    return dropped;
}

std::size_t
ContainerPool::evictIdle(Tick now)
{
    std::size_t evicted = 0;
    for (auto& entry : pools_) {
        if (entry == nullptr)
            continue;
        ContainerFunctionPool& pool = *entry;
        if (pool.warm.empty())
            continue;
        const Tick keepAlive = fleet_.keepAliveFor(pool.sym);
        // Warm deques are ordered by idleSince (releases append at
        // nondecreasing simulated times), so the expired prefix is
        // exactly the containers to evict.
        while (!pool.warm.empty()) {
            Container* c = pool.warm.front();
            if (now - c->idleSince < keepAlive)
                break;
            pool.warm.pop_front();
            retireSlot(*c);
            ++evicted;
        }
    }
    return evicted;
}

std::size_t
ContainerPool::liveOnNode(NodeId node) const
{
    return node < liveOnNode_.size() ? liveOnNode_[node] : 0;
}

std::size_t
ContainerPool::containerCount(Symbol function) const
{
    const std::size_t i = function.id();
    return i < pools_.size() && pools_[i] != nullptr ? pools_[i]->live
                                                     : 0;
}

} // namespace specfaas
