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
 * Hot-path layout: the queue is two lanes. Events due within the
 * next ~16 ms of simulated time land in a calendar wheel — one FIFO
 * bucket per tick, found again by a bitmap scan — so the common
 * short-latency traffic (RPC hops, storage completions, launch
 * timers) pays O(1) appends instead of binary-heap percolation.
 * Far-future events (long compute bursts, container creation,
 * retry backoffs, samplers) go to an overflow binary heap of 24-byte
 * POD items {when, id, slot}. Every wheel event precedes no overflow
 * event incorrectly: the two lane minima are compared (when, id) at
 * dispatch. Callbacks live in slab-pooled slots (see
 * common/arena.hh) addressed by either lane, and the callback type
 * itself has inline storage (common/inline_function.hh), so
 * scheduling an event touches the general-purpose heap only when a
 * capture exceeds the inline buffer.
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
     * Periodic background work (gauge samplers) self-reschedules with
     * this so simulations still terminate when real work drains.
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
    /** POD heap item; the callback lives in the pooled slot. */
    struct Item
    {
        Tick when;
        EventId id; ///< monotonic, doubles as the FIFO tie-break
        Callback* slot;
    };

    /**
     * @{ Calendar-wheel lane for events due within kWheelSpan ticks.
     *
     * One bucket per tick, kept as an intrusive FIFO list of pooled
     * nodes: bucket occupants share their timestamp, so draining head
     * first is FIFO-by-id by construction (ids are handed out
     * monotonically and appends are chronological). A node is
     * unlinked the moment it is consumed — fired or reclaimed after a
     * cancel — so a bucket never retains resolved entries. Every live
     * wheel event satisfies now <= when < now + kWheelSpan, so
     * `when & kWheelMask` is collision-free and the wheel needs no
     * migration: anything scheduled further out goes to the overflow
     * heap and is dispatched from there, with the two lane minima
     * compared (when, id) at pop.
     */
    static constexpr std::size_t kWheelBits = 14; ///< 16384 ticks, ~16 ms
    static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
    static constexpr Tick kWheelSpan = static_cast<Tick>(kWheelSize);
    static constexpr std::size_t kWheelMask = kWheelSize - 1;
    static constexpr std::size_t kWheelWords = kWheelSize / 64;

    /** Bucket list node; the shared timestamp lives in the bucket. */
    struct WheelNode
    {
        EventId id;
        Callback* slot;
        WheelNode* next;
    };

    struct Bucket
    {
        WheelNode* head = nullptr;
        WheelNode* tail = nullptr;
    };

    std::size_t bucketOf(Tick when) const
    {
        return static_cast<std::size_t>(when) & kWheelMask;
    }

    /**
     * Earliest live wheel timestamp, unlinking and reclaiming
     * cancelled entries met along the way. Returns false when the
     * wheel is empty. On true, @p when is the timestamp and
     * curBucket_'s head is the next entry to fire. The result is
     * cached (wheelMin_/wheelMinValid_) so repeated peeks between
     * mutations cost a branch, not a bitmap scan: scheduling an
     * earlier event lowers the cache, popping the last entry of the
     * minimum bucket invalidates it.
     */
    bool wheelPeek(Tick& when);
    /** Unlink and return the head node of buckets_[curBucket_]. */
    WheelNode* wheelPopHead();
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
    /** Drop cancelled overflow-heap tops, reclaiming their slots. */
    void heapSkipCancelled();
    /** Fire one callback: advance the clock, account, dispatch. */
    void fire(Tick when, EventId id, Callback* slot);

    Tick now_ = 0;
    EventId nextId_ = 1;
    EventId baseId_ = 1; ///< id of states_[0]; all lower ids are Done
    std::uint64_t executed_ = 0;

    /** @{ Wheel lane state. */
    std::array<Bucket, kWheelSize> buckets_;
    /** One bit per bucket: set while the bucket has queued entries. */
    std::array<std::uint64_t, kWheelWords> occupancy_{};
    /** Queued wheel entries, cancelled ones included. */
    std::size_t wheelItems_ = 0;
    /** Bucket wheelPeek resolved to (valid only right after it). */
    std::size_t curBucket_ = 0;
    /**
     * Cached earliest wheel timestamp. Valid means: no queued wheel
     * entry has a timestamp below wheelMin_, and bucketOf(wheelMin_)
     * is non-empty (its occupants may all be cancelled — wheelPeek
     * still validates the head's state before trusting the cache).
     */
    Tick wheelMin_ = 0;
    bool wheelMinValid_ = false;
    /** @} */

    /** Overflow lane: events due >= kWheelSpan ticks out. */
    std::vector<Item> heap_;
    std::vector<State> states_; ///< indexed by id - baseId_
    std::size_t donePrefix_ = 0; ///< known-resolved prefix of states_
    std::size_t cancelledPending_ = 0;
    /**
     * Ids of pending daemon events. Daemons are rare (a handful of
     * periodic samplers at most), so a tiny linear-scanned list keeps
     * the per-event cost of the common non-daemon path at one
     * empty()-check instead of a per-id side table.
     */
    std::vector<EventId> daemonIds_;
    SlabPool<Callback, 64> pool_;
    SlabPool<WheelNode, 64> nodePool_;
    obs::Profiler* profiler_ = nullptr;
};

} // namespace specfaas

#endif // SPECFAAS_SIM_EVENT_QUEUE_HH
