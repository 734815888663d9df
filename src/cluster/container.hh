/**
 * @file
 * Function containers and the warm pool.
 *
 * Each container hosts one function's runtime: an initializer process
 * that stays alive across requests, and a per-request handler process
 * forked from it (§VI). A container serves one request at a time;
 * concurrent invocations of the same function need multiple
 * containers. Cold acquisition pays container creation plus runtime
 * setup (Fig. 3); warm acquisition pays only the handler fork.
 *
 * Only a busy container is an object (Container, created and
 * destroyed through the pool's SlotArray by pointer); a warm one is
 * a 16-byte WarmContainer record in its function's FIFO, since only
 * the warm pool's count and order matter to the model.
 */

#ifndef SPECFAAS_CLUSTER_CONTAINER_HH
#define SPECFAAS_CLUSTER_CONTAINER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/inline_function.hh"
#include "common/slot_array.hh"
#include "common/symbol.hh"

#include "cluster/cluster_config.hh"
#include "cluster/node.hh"
#include "common/types.hh"
#include "sim/simulation.hh"

namespace specfaas {

class Fleet;
struct ContainerFunctionPool;

/**
 * A busy container: one bound to a function and a node and serving a
 * request. It exists from acquire() (warm pop or cold start) until
 * release() or destroy(); a reference to it is dead after either.
 */
struct Container
{
    std::uint32_t id;
    NodeId node;
    ContainerFunctionPool* owner;

    const std::string& function() const;
};

/**
 * A warm (idle) container: a value record, not an object. Its id is
 * carried warm -> busy -> warm, so trace tids stay stable.
 */
struct WarmContainer
{
    Tick idleSince; ///< last release time (keep-alive eviction)
    std::uint32_t id;
    NodeId node;
};
static_assert(sizeof(WarmContainer) == 16,
              "a warm container is a 16-byte record");

/**
 * Per-function pool: the function's interned name, its warm records
 * in idleSince order (FIFO: acquire pops the oldest, release appends),
 * and the count of its busy containers. Busy containers point back at
 * their pool, so the per-request release path touches no string
 * hashing at all.
 */
struct ContainerFunctionPool
{
    Symbol sym;
    std::string name; ///< resolved once, for trace rendering
    std::deque<WarmContainer> warm;
    std::size_t busy = 0;
};

inline const std::string&
Container::function() const
{
    return owner->name;
}

/** Timing split of one container acquisition, for Fig. 3. */
struct AcquireTiming
{
    Tick containerCreation = 0;
    Tick runtimeSetup = 0;
    Tick handlerFork = 0;

    Tick total() const
    {
        return containerCreation + runtimeSetup + handlerFork;
    }
};

/**
 * Cluster-wide container manager with per-function warm pools.
 *
 * Placement is least-loaded-node (ties broken by node id) at cold
 * creation time; warm containers are reused wherever they live.
 */
class ContainerPool
{
  public:
    using AcquireCallback =
        InlineFunction<void(Container&, const AcquireTiming&), 48>;

    /**
     * @param sim simulation context
     * @param fleet the owning fleet (placement consults its node
     *        lifecycle states; acquisitions feed its keep-alive
     *        tracker when dynamics are on)
     * @param config platform cost constants
     */
    ContainerPool(Simulation& sim, Fleet& fleet,
                  const ClusterConfig& config);

    /** Folds cold/warm start totals into the global counters. */
    ~ContainerPool();

    /**
     * Acquire a container for @p function. Completes asynchronously:
     * immediately (plus handler fork time) when a warm container is
     * free, after a cold start otherwise.
     */
    void acquire(Symbol function, AcquireCallback done);

    /** Convenience: interns @p function (tests, setup code). */
    void
    acquire(std::string_view function, AcquireCallback done)
    {
        acquire(Symbol(function), std::move(done));
    }

    /**
     * Return busy container @p c to the warm pool after a request: it
     * becomes a warm record and the object is destroyed.
     */
    void release(Container& c);

    /**
     * Destroy busy container @p c (container-kill squash policy, or a
     * cold start whose node died). It does not return to the warm
     * pool; the next acquisition of this function may cold-start.
     */
    void destroy(Container& c);

    /**
     * Pre-provision @p count warm containers for @p function without
     * charging cold-start time (models a warmed-up environment where
     * prior optimizations removed start-up overheads, §IV).
     */
    void prewarm(Symbol function, std::uint32_t count);

    /** Convenience: interns @p function (tests, setup code). */
    void
    prewarm(std::string_view function, std::uint32_t count)
    {
        prewarm(Symbol(function), count);
    }

    /**
     * Node @p node failed: drop its free warm containers (the warm
     * pool is node-local state and dies with the node). Busy
     * containers are destroyed by the engines when they crash the
     * handlers running in them.
     * @return number of warm containers lost
     */
    std::size_t dropNode(NodeId node);

    /**
     * Drain node @p node's warm pool (fleet scale-down). Same
     * mechanics as dropNode but traced as a fleet lifecycle action,
     * not a fault.
     * @return number of warm containers released
     */
    std::size_t evictWarmOnNode(NodeId node);

    /**
     * Evict warm containers idle past their function's keep-alive TTL
     * (fleet eviction daemon). Warm deques are ordered by idleSince,
     * so each scan stops at the first unexpired container.
     * @return number of containers evicted
     */
    std::size_t evictIdle(Tick now);

    /** Live (warm + busy) containers placed on @p node (O(1)). */
    std::size_t liveOnNode(NodeId node) const;

    /** Total containers (warm + busy) for @p function. */
    std::size_t containerCount(Symbol function) const;

    /** Convenience: non-interning lookup by name (tests). */
    std::size_t
    containerCount(std::string_view function) const
    {
        return containerCount(Symbol::lookup(function));
    }

    /** Busy container objects, for recounting liveOnNode(). */
    const SlotArray<Container>& busyContainers() const { return busy_; }

    /** @{ Counters. */
    std::uint64_t coldStarts() const { return coldStarts_; }
    std::uint64_t warmStarts() const { return warmStarts_; }
    /** @} */

  private:
    Node& pickNode();
    /** Shared dropNode/evictWarmOnNode loop. */
    std::size_t reclaimWarmOnNode(NodeId node);

    Simulation& sim_;
    Fleet& fleet_;
    const ClusterConfig& config_;
    std::uint64_t nextContainer_ = 1;

    ContainerFunctionPool& poolFor(Symbol function);

    /** Id for a new container on @p node; counts it live there. */
    std::uint32_t newContainer(NodeId node);

    /**
     * Indexed by Symbol id — a per-function lookup is one array
     * access, no string hashing. Entries are heap-allocated so
     * Container::owner back-pointers survive table growth; unused
     * ids (symbols interned by other subsystems) stay null.
     */
    std::vector<std::unique_ptr<ContainerFunctionPool>> pools_;
    /** Live containers per node, indexed by NodeId (grown lazily). */
    std::vector<std::uint32_t> liveOnNode_;
    /** Busy container objects; warm ones are records in pools_. */
    SlotArray<Container> busy_;
    std::uint64_t coldStarts_ = 0;
    std::uint64_t warmStarts_ = 0;
    std::uint32_t rrNext_ = 0;
};

} // namespace specfaas

#endif // SPECFAAS_CLUSTER_CONTAINER_HH
