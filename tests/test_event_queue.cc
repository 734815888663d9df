/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/simulation.hh"

namespace specfaas {
namespace {

TEST(EventQueue, RunsInTimestampOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, FifoForEqualTimestamps)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i]() { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NowAdvancesOnlyWhenEventsFire)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    q.schedule(100, []() {});
    EXPECT_EQ(q.now(), 0);
    q.runOne();
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    const EventId id = q.schedule(10, [&]() { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent)
{
    EventQueue q;
    const EventId id = q.schedule(10, []() {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(0));
    EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, CancelledEventsDontBlockEmpty)
{
    EventQueue q;
    const EventId id = q.schedule(10, []() {});
    EXPECT_FALSE(q.empty());
    q.cancel(id);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 5)
            q.schedule(10, chain);
    };
    q.schedule(10, chain);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    std::vector<Tick> fired;
    for (Tick t : {10, 20, 30, 40})
        q.schedule(t, [&fired, &q]() { fired.push_back(q.now()); });
    q.runUntil(25);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(q.now(), 25);
    q.run();
    EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500);
}

TEST(EventQueue, PendingCountExcludesCancelled)
{
    EventQueue q;
    const EventId a = q.schedule(1, []() {});
    q.schedule(2, []() {});
    EXPECT_EQ(q.pendingCount(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pendingCount(), 1u);
}

// Regression: cancel() used to accept ids of already-fired events,
// growing the cancelled-pending tally with no matching heap entry and
// underflowing pendingCount() (size_t wraparound to ~2^64).
TEST(EventQueue, CancelAfterExecutionIsRejected)
{
    EventQueue q;
    const EventId id = q.schedule(5, []() {});
    q.run();
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_TRUE(q.empty());

    // The queue must stay consistent afterwards.
    q.schedule(5, []() {});
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, PendingCountNeverUnderflows)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (Tick t : {1, 2, 3})
        ids.push_back(q.schedule(t, []() {}));
    q.run();
    for (EventId id : ids)
        EXPECT_FALSE(q.cancel(id)); // all fired; none cancellable
    EXPECT_EQ(q.pendingCount(), 0u);

    // Mixed pattern: one live, one fired, one cancelled twice.
    const EventId live = q.schedule(10, []() {});
    const EventId fast = q.schedule(1, []() {});
    q.runOne(); // fires `fast`
    EXPECT_FALSE(q.cancel(fast));
    EXPECT_TRUE(q.cancel(live));
    EXPECT_FALSE(q.cancel(live));
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DaemonDoesNotKeepRunAlive)
{
    EventQueue q;
    int daemon_fires = 0;
    std::function<void()> tick = [&]() {
        ++daemon_fires;
        q.scheduleDaemon(5, tick);
    };
    q.scheduleDaemon(5, tick);
    bool work_done = false;
    q.schedule(12, [&]() { work_done = true; });
    EXPECT_EQ(q.pendingWorkCount(), 1u);
    q.run();
    // run() drains the real work and stops; the self-rescheduling
    // daemon fired only while work was still pending.
    EXPECT_TRUE(work_done);
    EXPECT_EQ(q.now(), 12);
    EXPECT_EQ(daemon_fires, 2); // t=5 and t=10
    EXPECT_EQ(q.pendingWorkCount(), 0u);
    EXPECT_FALSE(q.empty()); // the daemon itself is still queued
}

TEST(EventQueue, RunReturnsImmediatelyWithOnlyDaemons)
{
    EventQueue q;
    bool fired = false;
    q.scheduleDaemon(5, [&]() { fired = true; });
    q.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.now(), 0);
}

TEST(EventQueue, RunUntilFiresDaemons)
{
    EventQueue q;
    std::vector<Tick> at;
    std::function<void()> tick = [&]() {
        at.push_back(q.now());
        q.scheduleDaemon(10, tick);
    };
    q.scheduleDaemon(10, tick);
    q.runUntil(35);
    EXPECT_EQ(at, (std::vector<Tick>{10, 20, 30}));
    EXPECT_EQ(q.now(), 35);
}

TEST(EventQueue, CancelDaemonKeepsCountsConsistent)
{
    EventQueue q;
    const EventId d = q.scheduleDaemon(5, []() {});
    q.schedule(10, []() {});
    EXPECT_EQ(q.pendingWorkCount(), 1u);
    EXPECT_TRUE(q.cancel(d));
    EXPECT_EQ(q.pendingWorkCount(), 1u);
    q.run();
    EXPECT_EQ(q.pendingWorkCount(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ExecutedCount)
{
    EventQueue q;
    q.schedule(1, []() {});
    q.schedule(2, []() {});
    q.run();
    EXPECT_EQ(q.executedCount(), 2u);
}

TEST(EventQueue, RunUntilSkipsCancelledDaemonsBeyondUntil)
{
    // A cancelled daemon whose timestamp lies past `until` must not
    // stop runUntil() from reaching `until`, and its lazily-queued
    // heap entry must be reclaimed rather than counted as pending.
    EventQueue q;
    bool fired = false;
    const EventId d = q.scheduleDaemon(50, [&]() { fired = true; });
    q.schedule(10, []() {});
    EXPECT_TRUE(q.cancel(d));
    q.runUntil(20);
    EXPECT_EQ(q.now(), 20);
    EXPECT_FALSE(fired);
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueue, DaemonFireAndCancelAccounting)
{
    // pendingWorkCount() must not drift when daemons are cancelled
    // before firing, fire normally, or are cancelled after other
    // daemons fired (exercising the daemon-id list compaction).
    EventQueue q;
    const EventId d1 = q.scheduleDaemon(5, []() {});
    const EventId d2 = q.scheduleDaemon(6, []() {});
    const EventId d3 = q.scheduleDaemon(7, []() {});
    q.schedule(10, []() {});
    EXPECT_EQ(q.pendingCount(), 4u);
    EXPECT_EQ(q.pendingWorkCount(), 1u);

    EXPECT_TRUE(q.cancel(d2));
    EXPECT_EQ(q.pendingCount(), 3u);
    EXPECT_EQ(q.pendingWorkCount(), 1u);

    q.runUntil(5); // d1 fires
    EXPECT_EQ(q.pendingCount(), 2u);
    EXPECT_EQ(q.pendingWorkCount(), 1u);
    EXPECT_FALSE(q.cancel(d1)) << "fired daemon must not cancel";

    EXPECT_TRUE(q.cancel(d3));
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.pendingWorkCount(), 1u);

    q.run();
    EXPECT_EQ(q.pendingWorkCount(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilReclaimsCancelledEntriesPastUntil)
{
    // Lazily-cancelled one-shots sitting beyond `until` at the top of
    // the heap are popped and resolved by runUntil() instead of
    // blocking on the timestamp check.
    EventQueue q;
    std::vector<EventId> ids;
    for (Tick t = 100; t < 110; ++t)
        ids.push_back(q.schedule(t, []() {}));
    for (EventId id : ids)
        EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_TRUE(q.empty());
    q.runUntil(50);
    EXPECT_EQ(q.now(), 50);
    EXPECT_EQ(q.executedCount(), 0u);
    // All heap entries were reclaimed, so running further does
    // nothing and time only moves via runUntil.
    EXPECT_FALSE(q.runOne());
    EXPECT_EQ(q.now(), 50);
}

TEST(EventQueue, StateWindowStaysBoundedUnderChurn)
{
    // The per-id state window must track the span of unresolved ids,
    // not the total number of events ever scheduled: a long-running
    // simulation that schedules millions of events may never grow it
    // past the compaction threshold plus the in-flight span.
    EventQueue q;
    std::uint64_t remaining = 200000;
    std::function<void()> fire = [&]() {
        if (remaining == 0)
            return;
        --remaining;
        q.schedule(1, [&]() { fire(); });
        if ((remaining & 3) == 0)
            q.cancel(q.schedule(2, []() {}));
    };
    q.schedule(1, [&]() { fire(); });
    q.run();
    EXPECT_EQ(remaining, 0u);
    // Window = compaction threshold (1024) + a small in-flight tail;
    // anything near the 250k ids ever issued means compaction broke.
    EXPECT_LT(q.stateWindowSize(), 5000u);
}

TEST(EventQueue, ScheduleAtNowInsideRefinedBlock)
{
    // runUntil(100) refines the 16-tick block 96-111 (its base is due
    // by then), reclaims the cancelled event at 97 and stops inside
    // the block, before the event at 110. Events scheduled at now()
    // then append to the refined block's tick lists and fire first.
    EventQueue q;
    std::vector<Tick> at;
    const auto record = [&] { at.push_back(q.now()); };
    q.schedule(110, record);
    q.cancel(q.schedule(97, record));
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100);
    q.schedule(0, record);
    q.scheduleAt(100, record);
    q.run();
    EXPECT_EQ(at, (std::vector<Tick>{100, 100, 110}));
}

TEST(EventQueue, RunOneOverCancelledBucketKeepsNowSchedulable)
{
    // runOne() refines the block holding tick 50 ahead of the clock,
    // finds only a cancelled event there and returns false without
    // moving the clock. The refined block must follow now() back, or
    // an event scheduled at now() would land before it.
    EventQueue q;
    q.cancel(q.schedule(50, [] {}));
    EXPECT_FALSE(q.runOne());
    EXPECT_EQ(q.now(), 0);
    bool fired = false;
    q.schedule(0, [&] { fired = true; });
    EXPECT_TRUE(q.runOne());
    EXPECT_TRUE(fired);
    EXPECT_EQ(q.now(), 0);
}

TEST(EventQueue, FootprintStaysSmall)
{
    // A queue is built per simulated platform and benchmarks keep
    // dozens alive at once; the calendar wheel used to make each one
    // ~258 KiB, almost all of it empty buckets.
    EXPECT_LE(sizeof(EventQueue), 16u * 1024u);
}

// ---------------------------------------------------------------------
// Differential testing of the two-lane queue against a reference heap.
//
// The production queue routes near-future events through a calendar
// wheel of 1,024 coarse 16-tick buckets (newest-first stacks, an
// occupancy bitmap), refining the bucket the clock is about to reach
// into 16 per-tick FIFO lists, and sends events past the wheel's
// 16,368-tick horizon to a binary heap, with lazy cancellation in
// both lanes. The reference model below is the documented contract
// itself — events fire in (timestamp, id) order — held in a std::set.
// Each step performs one random insert, cancel, runOne or runUntil
// against both and asserts identical fire order, fire time, and
// pendingCount, so any divergence in the lane plumbing surfaces at
// the exact operation that caused it. Seeds are pinned: failures
// reproduce deterministically.

/**
 * @param minPending inserts are forced while fewer events are pending
 * @param straddleEdges draw insert times one tick either side of (or
 *        on) a 16-tick bucket edge or the wheel horizon instead of
 *        from smallMax/largeMax
 */
void
runDifferential(std::uint64_t seed, int schedulePct, int cancelPct,
                Tick smallMax, Tick largeMax, std::size_t ops,
                std::size_t minPending = 1, bool straddleEdges = false)
{
    EventQueue q;
    std::set<std::pair<Tick, EventId>> ref;
    std::vector<Tick> whenOf{0}; // indexed by id; ids start at 1
    std::vector<EventId> issued;    // cancel targets, fired or not
    std::vector<EventId> fired;
    std::uint64_t executed = 0;
    std::mt19937_64 rng(seed);
    const auto rnd = [&rng](std::uint64_t m) { return rng() % m; };
    const auto rndTick = [&rnd](Tick m) {
        return static_cast<Tick>(rnd(static_cast<std::uint64_t>(m)));
    };

    const auto fireOne = [&]() {
        ASSERT_FALSE(ref.empty());
        const auto [when, id] = *ref.begin();
        ref.erase(ref.begin());
        const std::size_t before = fired.size();
        ASSERT_TRUE(q.runOne());
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), id)
            << "queue fired a different event than the reference";
        ASSERT_EQ(q.now(), when);
        ++executed;
    };

    const auto runUntil = [&](Tick until) {
        std::vector<EventId> due;
        while (!ref.empty() && ref.begin()->first <= until) {
            due.push_back(ref.begin()->second);
            ref.erase(ref.begin());
        }
        const std::size_t before = fired.size();
        q.runUntil(until);
        ASSERT_EQ(std::vector<EventId>(fired.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               before),
                                       fired.end()),
                  due)
            << "runUntil fired a different sequence than the reference";
        ASSERT_EQ(q.now(), until);
        executed += due.size();
    };

    for (std::size_t op = 0; op < ops; ++op) {
        const int r = static_cast<int>(rnd(100));
        if (r < schedulePct || ref.size() < minPending) {
            // Insert. Mostly near-future (wheel lane), with a tail
            // beyond the wheel's horizon (heap lane) so fires
            // constantly arbitrate across both.
            Tick delay;
            if (straddleEdges) {
                // The next few 16-tick edges, or the first tick past
                // the last coarse bucket (1,024 blocks out).
                const Tick blocks = rnd(2) == 0 ? 1 + rndTick(3)
                                                : 1023 + rndTick(2);
                const Tick edge = (q.now() & ~Tick{15}) + 16 * blocks;
                delay = edge + rndTick(3) - 1 - q.now();
            } else {
                delay = rnd(4) == 0 ? rndTick(largeMax)
                                    : rndTick(smallMax);
            }
            const Tick when = q.now() + delay;
            const EventId predicted =
                static_cast<EventId>(whenOf.size());
            const auto cb = [&fired, predicted]() {
                fired.push_back(predicted);
            };
            const EventId id = rnd(4) == 0 ? q.scheduleAt(when, cb)
                                           : q.schedule(delay, cb);
            ASSERT_EQ(id, predicted) << "event ids must be dense";
            whenOf.push_back(when);
            issued.push_back(id);
            ref.insert({when, id});
        } else if (r < schedulePct + cancelPct) {
            // Cancel a random issued id — possibly already fired or
            // cancelled; cancel() must report exactly whether the
            // event was still pending.
            const EventId id = issued[rnd(issued.size())];
            const bool wasPending = ref.erase({whenOf[id], id}) > 0;
            ASSERT_EQ(q.cancel(id), wasPending);
        } else if (rnd(8) == 0) {
            // Jump the clock: sometimes inside the current block,
            // sometimes past the wheel horizon.
            runUntil(q.now() +
                     (rnd(2) == 0 ? rndTick(smallMax) : rndTick(largeMax)));
        } else {
            fireOne();
        }
        ASSERT_EQ(q.pendingCount(), ref.size());
        ASSERT_EQ(q.empty(), ref.empty());
    }

    // Drain: remaining fire order must match the reference exactly.
    while (!ref.empty()) {
        fireOne();
        ASSERT_EQ(q.pendingCount(), ref.size());
    }
    EXPECT_FALSE(q.runOne());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executedCount(), executed);
}

TEST(EventQueueBucketed, DifferentialNearFutureChurn)
{
    // Wheel-lane heavy: delays inside one wheel revolution, dense
    // same-tick collisions exercising bucket FIFO order.
    runDifferential(/*seed=*/0x5eed0001, /*schedulePct=*/45,
                    /*cancelPct=*/15, /*smallMax=*/2048,
                    /*largeMax=*/12000, /*ops=*/100000);
}

TEST(EventQueueBucketed, DifferentialHorizonCrossing)
{
    // Far-future tail several horizons out: entries scheduled into
    // the heap must interleave correctly with wheel entries as the
    // clock approaches and crosses their timestamps.
    runDifferential(/*seed=*/0x5eed0002, /*schedulePct=*/50,
                    /*cancelPct=*/10, /*smallMax=*/16384 * 2,
                    /*largeMax=*/140000, /*ops=*/100000);
}

TEST(EventQueueBucketed, DifferentialCancelHeavy)
{
    // Cancellation-dominated: lazy-cancelled entries pile up in both
    // lanes and must be reclaimed without disturbing fire order,
    // pendingCount, or the coarse buckets' refinement.
    runDifferential(/*seed=*/0x5eed0003, /*schedulePct=*/35,
                    /*cancelPct=*/35, /*smallMax=*/4096,
                    /*largeMax=*/50000, /*ops=*/100000);
}

TEST(EventQueueBucketed, DifferentialSparseLongJumps)
{
    // Sparse occupancy with long empty stretches: the bitmap scan
    // and the refined block following the clock past an empty wheel
    // dominate. Few events, huge gaps, frequent full-revolution wraps.
    runDifferential(/*seed=*/0x5eed0004, /*schedulePct=*/30,
                    /*cancelPct=*/20, /*smallMax=*/16000,
                    /*largeMax=*/1000000, /*ops=*/20000);
}

TEST(EventQueueBucketed, DifferentialZeroDelayBursts)
{
    // Degenerate delays: almost everything lands in the refined block
    // or the next coarse bucket, including delay 0 (fires at now).
    // Per-tick FIFO order under heavy same-tick collision carries the
    // whole tie-break burden.
    runDifferential(/*seed=*/0x5eed0005, /*schedulePct=*/50,
                    /*cancelPct=*/15, /*smallMax=*/4,
                    /*largeMax=*/20000, /*ops=*/60000);
}

TEST(EventQueueBucketed, DifferentialDenseBuckets)
{
    // The kernel-churn shape: at least 64 pending events, all due
    // within 32 ticks, so every coarse bucket holds dozens of entries
    // and refinement restores same-tick FIFO order from deep stacks.
    runDifferential(/*seed=*/0x5eed0006, /*schedulePct=*/45,
                    /*cancelPct=*/15, /*smallMax=*/32,
                    /*largeMax=*/32, /*ops=*/100000,
                    /*minPending=*/64);
}

TEST(EventQueueBucketed, DifferentialBucketEdgesAndHorizon)
{
    // Every insert lands on or one tick either side of a 16-tick
    // bucket edge or the wheel/heap boundary, where an off-by-one in
    // the lane or bucket choice would reorder events.
    runDifferential(/*seed=*/0x5eed0007, /*schedulePct=*/50,
                    /*cancelPct=*/15, /*smallMax=*/40,
                    /*largeMax=*/20000, /*ops=*/100000,
                    /*minPending=*/1, /*straddleEdges=*/true);
}

TEST(Simulation, ForkedRngsDifferButAreReproducible)
{
    Simulation a(99);
    Simulation b(99);
    Rng ra = a.forkRng();
    Rng rb = b.forkRng();
    EXPECT_EQ(ra.next(), rb.next());
    Rng ra2 = a.forkRng();
    EXPECT_NE(ra.next(), ra2.next());
    EXPECT_EQ(a.seed(), 99u);
}

} // namespace
} // namespace specfaas
