/**
 * @file
 * Worker node: a fixed set of cores with an FCFS run queue and
 * utilization accounting.
 *
 * Compute tasks are abortable, which is how the squash policies are
 * modelled: a process-kill squash frees the core ~1 ms after the
 * abort; LazySquash simply never aborts and lets the task finish.
 */

#ifndef SPECFAAS_CLUSTER_NODE_HH
#define SPECFAAS_CLUSTER_NODE_HH

#include <cstdint>
#include <vector>

#include "common/inline_function.hh"
#include "common/types.hh"
#include "sim/simulation.hh"

namespace specfaas {

/** Handle to a submitted compute task. */
using ComputeTaskId = std::uint64_t;

/** Completion callback for a compute burst (small-buffer, no heap). */
using ComputeCallback = InlineFunction<void(), 72>;

/** A worker node with @c cores cores and an FCFS queue. */
class Node
{
  public:
    /**
     * @param sim simulation context
     * @param id node identifier
     * @param cores number of cores
     * @param busy_total optional running total shared by a set of
     *        nodes (the fleet's workers): every core this node
     *        occupies or frees adjusts it too, so the set's busy
     *        cores are one read instead of a scan
     */
    Node(Simulation& sim, NodeId id, std::uint32_t cores,
         std::uint32_t* busy_total = nullptr);

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    /** Node identifier. */
    NodeId id() const { return id_; }

    /** Total cores. */
    std::uint32_t cores() const { return cores_; }

    /** Cores currently executing a task. */
    std::uint32_t busyCores() const { return busy_; }

    /** Tasks waiting for a core. */
    std::size_t queueLength() const { return waiting_.size() - waitHead_; }

    /**
     * @{ Failure state (fault injection). A down node receives no new
     * container placements; its in-flight work is crashed by the
     * engines and its warm containers dropped by the pool.
     */
    bool isDown() const { return down_; }
    void setDown(bool down) { down_ = down; }
    /** @} */

    /**
     * Submit a compute burst. When a core is free the task runs for
     * @p duration ticks, then @p done fires. Otherwise it waits FCFS.
     * @return handle usable with abort()
     */
    ComputeTaskId submit(Tick duration, ComputeCallback done);

    /**
     * Abort a pending or running task. The completion callback never
     * fires. A queued task is removed instantly; a running task holds
     * its core for @p kill_overhead more ticks (the time to kill the
     * handler process) and is then reclaimed.
     * @return true when the task existed
     */
    bool abort(ComputeTaskId task, Tick kill_overhead);

    /** True while @p task is queued or running. */
    bool isActive(ComputeTaskId task) const;

    /**
     * Busy core-ticks accumulated up to now (integral of busyCores
     * over time). utilization = busyCoreTicks / (cores × elapsed).
     */
    Tick busyCoreTicks() const;

    /** Reset the utilization integral (start of measurement window). */
    void resetUtilization();

    /** Mean utilization in [0,1] since the last reset. */
    double utilization() const;

  private:
    struct Waiting
    {
        ComputeTaskId id;
        Tick duration;
        ComputeCallback done;
    };

    struct Running
    {
        ComputeTaskId id;
        EventId completion;
        ComputeCallback done;
    };

    void accountBusy();
    void startTask(ComputeTaskId id, Tick duration,
                   ComputeCallback done);
    void coreReleased();
    Running* findRunning(ComputeTaskId id);

    Simulation& sim_;
    NodeId id_;
    std::uint32_t cores_;
    bool down_ = false;
    std::uint32_t busy_ = 0;
    std::uint32_t* busyTotal_;
    ComputeTaskId nextTask_ = 1;
    // FCFS queue as a vector with a consumed-prefix head index; the
    // prefix is compacted once it dominates so memory stays bounded
    // without per-pop reallocation.
    std::vector<Waiting> waiting_;
    std::size_t waitHead_ = 0;
    // Tasks currently on a core. Bounded by the core count, so a flat
    // vector with linear lookup beats a node-per-entry hash map.
    std::vector<Running> running_;

    // Utilization accounting.
    Tick windowStart_ = 0;
    Tick lastChange_ = 0;
    Tick busyTicks_ = 0;
};

} // namespace specfaas

#endif // SPECFAAS_CLUSTER_NODE_HH
