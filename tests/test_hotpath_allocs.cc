/**
 * @file
 * Allocation-count regression tests for the engine hot path.
 *
 * The PR that introduced these tests moved event callbacks, order
 * keys, values and container slots off the general-purpose heap
 * (inline callables, slab pools, small-buffer vectors, CoW values).
 * These tests pin that work: a steady-state kernel loop must be
 * allocation-free, and a full engine run with tracing disabled must
 * stay under a per-event allocation budget with room to spare. A
 * reappearing std::function box or per-event container allocation
 * trips the bounds immediately.
 *
 * The counting operator new below is binary-wide but only increments
 * an atomic before delegating to malloc, so it cannot change the
 * behaviour of any other test in this binary (each ctest entry runs
 * in its own process anyway).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <cstdlib>
#include <new>

#include "common/flat_map.hh"
#include "obs/profiler.hh"
#include "platform/platform.hh"
#include "sim/event_queue.hh"
#include "sim/sim_context.hh"
#include "workloads/suites.hh"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

} // namespace

void*
operator new(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace specfaas {
namespace {

TEST(HotPathAllocs, KernelSteadyStateIsAllocationFree)
{
    // A self-rescheduling chain with cancellation noise: after warmup
    // (slab pools carved, heap and state vectors grown), scheduling
    // and firing events must not touch the allocator at all. The
    // small slack absorbs the amortized growth of the id-state window
    // between compactions.
    EventQueue q;
    std::uint64_t remaining = 1000;
    std::function<void()> fire = [&]() {
        if (remaining == 0)
            return;
        --remaining;
        q.schedule(1 + (remaining & 7), [&]() { fire(); });
        if ((remaining & 3) == 0)
            q.cancel(q.schedule(2, []() {}));
    };
    q.schedule(1, [&]() { fire(); });
    q.run(); // warmup

    remaining = 100000;
    q.schedule(1, [&]() { fire(); });
    const std::uint64_t before = gAllocs.load();
    q.run();
    const std::uint64_t during = gAllocs.load() - before;
    EXPECT_GT(q.executedCount(), 100000u);
    EXPECT_LT(during, 64u)
        << "kernel steady state should be allocation-free; "
        << during << " allocations over 100k+ events";
}

TEST(HotPathAllocs, KernelChurnIsExactlyAllocationFreeAtSteadyState)
{
    // Stricter companion to the test above: with no cancellation
    // noise (a plain self-rescheduling chain, the shape of the
    // kernel-churn loop in bench_engine_throughput), steady state
    // must be *exactly* allocation-free — callbacks recycle through
    // the slab pool, wheel nodes through theirs, and the id-state
    // window compacts in place.
    EventQueue q;
    std::uint64_t remaining = 2000;
    std::function<void()> fire = [&]() {
        if (remaining == 0)
            return;
        --remaining;
        q.schedule(1 + (remaining & 7), [&]() { fire(); });
    };
    q.schedule(1, [&]() { fire(); });
    q.run(); // warmup

    remaining = 50000;
    q.schedule(1, [&]() { fire(); });
    const std::uint64_t before = gAllocs.load();
    q.run();
    EXPECT_EQ(gAllocs.load() - before, 0u)
        << "cancel-free kernel churn must not touch the allocator";
    EXPECT_GT(q.executedCount(), 50000u);
}

TEST(HotPathAllocs, PipelineChurnSteadyStateIsAllocationFree)
{
    // The controllers' order-indexed pipelines (slot maps, blocked
    // frontiers, fault attempts) see an append + popFront stream
    // with bounded occupancy: new work enters past the tail, commit
    // consumes the front. Once warmup has grown the backing vector
    // to the high-water mark, the frontier + geometric-compaction
    // scheme must recycle storage in place — zero allocator traffic
    // over hundreds of thousands of pipeline transitions.
    PipelineMap<int, int> pm;
    int next = 0;
    for (int i = 0; i < 4096; ++i) { // warmup: reach the high-water mark
        pm.emplace(next++, i);
        if (pm.size() > 32)
            pm.popFront();
    }
    const std::uint64_t before = gAllocs.load();
    for (int i = 0; i < 200000; ++i) {
        pm.emplace(next++, i);
        if (pm.size() > 32)
            pm.popFront();
    }
    EXPECT_EQ(gAllocs.load() - before, 0u)
        << "pipeline append/commit churn must not touch the allocator";

    // The squash shape — suffix truncation and reverse tail pops —
    // must be just as quiet.
    const std::uint64_t before2 = gAllocs.load();
    for (int round = 0; round < 10000; ++round) {
        for (int i = 0; i < 16; ++i)
            pm.emplace(next++, i);
        for (int i = 0; i < 8; ++i)
            pm.popBackExpect(next - 1 - i);
        next -= 8;
        pm.eraseFrom(next - 8); // kill the rest of this round's work
        next -= 8;
    }
    EXPECT_EQ(gAllocs.load() - before2, 0u)
        << "squash-shape churn must not touch the allocator";
}

TEST(HotPathAllocs, OrderedKeySetChurnIsAllocationFree)
{
    // The open-branch index absorbs an insert / erase / suffix-
    // truncate stream with a small bounded population; after warmup
    // its vector must never reallocate.
    OrderedKeySet<int> s;
    for (int i = 0; i < 64; ++i)
        s.insert(i);
    s.eraseFrom(0);
    const std::uint64_t before = gAllocs.load();
    for (int round = 0; round < 100000; ++round) {
        for (int i = 0; i < 8; ++i)
            s.insert(round * 8 + i);
        s.erase(round * 8 + 3);
        s.eraseFrom(round * 8);
    }
    EXPECT_EQ(gAllocs.load() - before, 0u)
        << "open-branch index churn must not touch the allocator";
    EXPECT_TRUE(s.empty());
}

TEST(HotPathAllocs, DisabledProfilerZonesAreAllocationFree)
{
    // A zone scope over a disabled profiler must cost one predictable
    // branch and nothing else — in particular no heap traffic. The
    // warmup loop interns the site (a one-time registry allocation);
    // the measured loop must then be allocation-free.
    obs::Profiler prof;
    auto spin = [&prof](int n) {
        for (int i = 0; i < n; ++i) {
            OBS_ZONE(prof, "test/disabled-zone");
        }
    };
    spin(10); // warmup: intern the site
    const std::uint64_t before = gAllocs.load();
    spin(100000);
    EXPECT_EQ(gAllocs.load() - before, 0u)
        << "disabled zone scopes must not allocate";
    EXPECT_FALSE(prof.hasData());
}

TEST(HotPathAllocs, DisabledTracingRunStaysUnderBudget)
{
    // Tracing and profiling are off by default; every trace call site
    // is behind an enabled() check and every zone scope behind a
    // disabled-profiler branch, so a run must not pay for either.
    // Budget: with one-block payload boxes, launch-time instance
    // sizing and pooled instances the worst engine here measures
    // 1.92 allocations per executed event (2.88 before that work,
    // 7.5 before the first hot-path rework); 2.4 leaves ~25% slack
    // for stdlib variation while still catching any per-event box
    // (std::function, per-event container or callback heap traffic,
    // an InlineFunction spill) that would push the rate back up.
    auto registry = makeAllSuites();
    double worst = 0.0;
    for (const bool speculative : {false, true}) {
        PlatformOptions options;
        options.speculative = speculative;
        options.seed = 7;
        FaasPlatform platform(options);
        const Application& app = registry->get("Banking");
        platform.deploy(app);

        const std::uint64_t allocs0 = gAllocs.load();
        for (std::size_t i = 0; i < 50; ++i) {
            Value input = app.inputGen
                              ? app.inputGen(platform.inputRng())
                              : Value();
            platform.invokeSync(app, std::move(input));
        }
        const std::uint64_t allocs =
            gAllocs.load() - allocs0;
        const std::uint64_t events =
            platform.sim().events().executedCount();
        ASSERT_GT(events, 1000u);
        const double perEvent = static_cast<double>(allocs) /
                                static_cast<double>(events);
        worst = std::max(worst, perEvent);
        RecordProperty(speculative ? "spec_allocs_per_event"
                                   : "baseline_allocs_per_event",
                       std::to_string(perEvent));
    }
    EXPECT_LT(worst, 2.4)
        << "allocations per event regressed on a tracing-off run";
    EXPECT_FALSE(defaultSimContext().profiler().hasData())
        << "profiler recorded zones on a profiling-off run";
}

} // namespace
} // namespace specfaas
