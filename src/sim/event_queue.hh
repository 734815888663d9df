/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The whole platform model is event-driven: components schedule
 * callbacks at future simulated times and the queue executes them in
 * timestamp order. Events are cancellable, which the SpecFaaS
 * controller relies on to squash in-flight speculative work (pending
 * storage completions, compute completions, launch timers).
 *
 * Hot-path layout: every event is one slab-pooled Entry
 * {next, id, when, callback} (see common/arena.hh; the callback type
 * has inline storage, common/inline_function.hh), so scheduling
 * touches the general-purpose heap only when a capture exceeds the
 * inline buffer. Entries due within ~16 ms sit in a two-level
 * calendar wheel, the rest in an overflow binary heap of 24-byte POD
 * items {when, id, entry}; the two lane minima are compared
 * (when, id) at dispatch.
 *
 * The wheel is sized to the traffic the platform model produces: on
 * specbench's suites_medium a queue holds 40 pending events on
 * average (105 at most), 7% of delays are 0 ticks, 39% 101-1,000
 * ticks and 54% 1,001-16,383 ticks. So it is 1,024 coarse buckets of
 * 16 ticks (a 16,368-tick horizon in 8 KiB plus a 128-byte bitmap),
 * each a newest-first stack whose insert is one push. When the clock
 * is about to reach a coarse bucket's first tick, the bucket is
 * refined: its stack is popped into 16 per-tick FIFO lists, and
 * events scheduled into that 16-tick block append to those lists.
 * A bucket is refined only once the clock will advance to at least
 * its base, so between calls the refined block contains now() and no
 * insert can land before it.
 */

#ifndef SPECFAAS_SIM_EVENT_QUEUE_HH
#define SPECFAAS_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/inline_function.hh"
#include "common/types.hh"

namespace specfaas::obs {
class Profiler;
}

namespace specfaas {

/**
 * Time-ordered queue of cancellable callbacks.
 *
 * Events scheduled for the same tick run in scheduling (FIFO) order,
 * which keeps simulations deterministic.
 */
class EventQueue
{
  public:
    /**
     * Event callback. The buffer holds the largest hot-path capture:
     * the baseline's storage write, which carries the instance, its
     * epoch, the key, the value and the handler's DoneCallback. Hot
     * call sites static_assert Callback::fitsInline on their lambdas.
     */
    using Callback = InlineFunction<void(), 160>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run @p delay ticks from now.
     * @param delay non-negative delay
     * @return id usable with cancel()
     */
    EventId schedule(Tick delay, Callback cb);

    /** Schedule @p cb at absolute tick @p when (>= now). */
    EventId scheduleAt(Tick when, Callback cb);

    /**
     * Schedule a daemon event: it fires in timestamp order like any
     * other event, but does not keep run() alive — when only daemon
     * events remain pending, run() returns and leaves them queued.
     * Periodic background work (the fleet autoscaler and eviction
     * scans) self-reschedules with this, and deferred housekeeping
     * (node restores, fault timers, the SpecController graveyard)
     * runs on it, so simulations still terminate when real work
     * drains.
     */
    EventId scheduleDaemon(Tick delay, Callback cb);

    /**
     * Cancel a pending event. Cancelling an already-fired or
     * already-cancelled event is a no-op.
     * @return true if the event was pending and is now cancelled
     */
    bool cancel(EventId id);

    /** True when no runnable events remain. */
    bool empty() const;

    /**
     * Run the earliest pending event.
     * @return false when the queue is empty
     */
    bool runOne();

    /** Run until the queue drains. */
    void run();

    /**
     * Run events with timestamp <= @p until, then set now() to
     * @p until even if no event fired exactly there.
     */
    void runUntil(Tick until);

    /** Number of pending (uncancelled) events, daemons included. */
    std::size_t pendingCount() const
    {
        return wheelItems_ + heap_.size() - cancelledPending_;
    }

    /** Pending non-daemon events (what keeps run() alive). */
    std::size_t pendingWorkCount() const
    {
        return wheelItems_ + heap_.size() - cancelledPending_ -
               daemonIds_.size();
    }

    /** Total number of events executed so far. */
    std::uint64_t executedCount() const { return executed_; }

    /**
     * Attach the owning simulation's zone profiler (Simulation's
     * constructor does this). Every dispatched callback then runs
     * under the "sim/dispatch" zone, whose deterministic count is the
     * simulated ticks the clock advanced. Null (the default for a
     * bare EventQueue) and a disabled profiler both cost one
     * predictable branch per event.
     */
    void setProfiler(obs::Profiler* profiler)
    {
        profiler_ = profiler;
    }

    /**
     * Width of the per-id state window (testing/diagnostics). Stays
     * proportional to the span of ids with undecided outcomes, not to
     * the total number of events ever scheduled.
     */
    std::size_t stateWindowSize() const { return states_.size(); }

  private:
    /** One scheduled event; wheel lists and heap items point at it. */
    struct Entry
    {
        Entry* next;
        EventId id; ///< monotonic, doubles as the FIFO tie-break
        Tick when;
        Callback cb;
    };

    /** POD heap item; the callback lives in the pooled entry. */
    struct Item
    {
        Tick when;
        EventId id;
        Entry* entry;
    };

    /**
     * @{ Calendar-wheel lane: events due before refinedBase_ +
     * kBuckets * kBucketTicks, so every delay up to 16,368 ticks
     * lands here.
     *
     * Coarse bucket c holds the events of 16-tick block b with
     * b % kBuckets == c, for the kBuckets - 1 blocks after the
     * refined one, pushed newest first. Refining pops a stack
     * newest first and prepends to the per-tick lists, which
     * restores id order within each tick; later inserts append, and
     * ids are monotonic, so every per-tick list is FIFO by id. Bit t
     * of tickBits_ is set while tick list t is non-empty, so the
     * fire path pops the lowest set bit. A cancelled entry stays
     * queued and is reclaimed when its list head reaches it.
     */
    static constexpr int kTickBits = 4; ///< 16-tick coarse buckets
    static constexpr Tick kBucketTicks = Tick{1} << kTickBits;
    static constexpr std::size_t kBuckets = 1024;

    struct TickList
    {
        Entry* head = nullptr;
        Entry* tail = nullptr;
    };

    /**
     * Earliest live entry of the refined block, reclaiming cancelled
     * heads on the way. While the block is empty, refines the next
     * occupied coarse bucket whose base is <= @p limit (the time the
     * caller would otherwise advance the clock to). Null when the
     * refined block stays empty.
     */
    Entry* wheelFront(Tick limit);
    /** Unlink and return the head of tick list @p t. */
    Entry* popTick(unsigned t);
    /** Pop coarse bucket @p c, whose first tick is @p base. */
    void refine(std::size_t c, Tick base);
    /**
     * Fire the earliest pending event if it is due by @p limit.
     * @return false when none is
     */
    bool runNext(Tick limit);
    /**
     * Set the clock to @p t. An empty refined block moves to the
     * block of @p t, which the caller has already refined past.
     */
    void advanceClock(Tick t);
    /** @} */

    /**
     * Lifecycle of one scheduled id. Ids are monotonic from 1 and
     * stored densely in a window starting at baseId_: every id below
     * the window is resolved (Done), so schedule/cancel/fire cost a
     * byte access instead of hash-set operations on the hot path.
     * Once the resolved prefix of the window grows past half its
     * width it is compacted away (epoch base + dense tail), keeping
     * memory proportional to the in-flight id span instead of one
     * byte per event ever scheduled. Only Pending ids are
     * cancellable: accepting an already-fired (or already-cancelled)
     * id would grow cancelledPending_ with no matching heap entry and
     * underflow pendingCount().
     */
    enum class State : std::uint8_t { Pending, Cancelled, Done };

    EventId scheduleEntry(Tick when, Callback cb, bool daemon);

    /** Remove @p id from daemonIds_ if present. */
    bool dropDaemonId(EventId id);

    State& stateOf(EventId id) { return states_[id - baseId_]; }

    static bool
    earlier(const Item& a, const Item& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.id < b.id;
    }

    void heapPush(Item item);
    void heapPop();
    void maybeCompact();
    /** Resolve a cancelled entry and recycle it. */
    void reclaim(Entry* e);
    /** Drop cancelled overflow-heap tops, reclaiming their entries. */
    void heapSkipCancelled();
    /** Fire one event: advance the clock, account, dispatch, recycle. */
    void fire(Entry* e);

    Tick now_ = 0;
    EventId nextId_ = 1;
    EventId baseId_ = 1; ///< id of states_[0]; all lower ids are Done
    std::uint64_t executed_ = 0;

    /** @{ Wheel lane state. */
    std::array<Entry*, kBuckets> buckets_{};
    /** One bit per coarse bucket: set while it has queued entries. */
    std::array<std::uint64_t, kBuckets / 64> occupancy_{};
    std::array<TickList, kBucketTicks> ticks_{};
    std::uint32_t tickBits_ = 0;
    Tick refinedBase_ = 0; ///< first tick of the refined block
    /** Queued wheel entries, cancelled ones included. */
    std::size_t wheelItems_ = 0;
    /** @} */

    /** Overflow lane: events due past the wheel. */
    std::vector<Item> heap_;
    std::vector<State> states_; ///< indexed by id - baseId_
    std::size_t donePrefix_ = 0; ///< known-resolved prefix of states_
    std::size_t cancelledPending_ = 0;
    /**
     * Ids of pending daemon events. Daemons are rare (a handful of
     * periodic fleet scans and deferred timers at most), so a tiny
     * linear-scanned list keeps the per-event cost of the common
     * non-daemon path at one empty()-check instead of a per-id side
     * table.
     */
    std::vector<EventId> daemonIds_;
    SlabPool<Entry, 64> pool_;
    obs::Profiler* profiler_ = nullptr;
};

} // namespace specfaas

#endif // SPECFAAS_SIM_EVENT_QUEUE_HH
