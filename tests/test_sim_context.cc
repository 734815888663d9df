/**
 * @file
 * SimContext unit + regression tests.
 *
 * The headline regression: running the same application twice in one
 * process used to need an id reset (and manual trace/counter
 * clears), because ids and observability sinks were process globals
 * that bled across simulations. With per-simulation contexts, two
 * runs against fresh contexts are byte-identical with no resets.
 *
 * The rest pins the contracts the parallel harness builds on: fresh
 * contexts start empty, forTask() mirrors observability config and
 * hands out disjoint id blocks, and mergeInto() in submission order
 * reproduces the serial artifacts (which runSimTasks() then relies on
 * for job-count-independent output).
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "fuzz_apps.hh"
#include "obs/trace_export.hh"
#include "sim/sim_context.hh"

namespace specfaas {
namespace {

SpecConfig
aggressiveConfig()
{
    SpecConfig aggressive;
    aggressive.bpDeadBand = 0.0;
    aggressive.stallThreshold = 2;
    return aggressive;
}

Application
fuzzApp(std::uint64_t seed)
{
    fuzz::AppFuzzer fuzzer(seed * 2654435761ull + 101);
    return fuzzer.explicitApp();
}

/** One traced run of @p app against a fresh private context. */
std::string
tracedRunJson(const Application& app)
{
    SimContext context;
    context.trace().enable(1u << 16);
    fuzz::runApp(app, true, aggressiveConfig(), 17, 6, &context);
    return obs::toChromeTraceJson(context.trace().snapshot());
}

// ---------------------------------------------------------------------
// The id-bleed regression.
// ---------------------------------------------------------------------

TEST(SimContext, RepeatedRunsAreByteIdenticalWithoutResets)
{
    // Two runs of the same app in one process, no id reset, no
    // global clears between them: with per-run contexts the traces
    // (which embed invocation/instance ids as pids/tids) match
    // byte-for-byte. Before SimContext the second run continued the
    // global id sequences and the traces diverged.
    const Application app = fuzzApp(3);
    const std::string first = tracedRunJson(app);
    const std::string second = tracedRunJson(app);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(SimContext, ConcurrentSimulationsDoNotShareIds)
{
    // Two interleaved platforms on separate contexts draw independent
    // id sequences; on the old globals the second platform's first
    // invocation id depended on how many the first had already drawn.
    SimContext a;
    SimContext b;
    EXPECT_EQ(a.nextInvocationId(), 1u);
    EXPECT_EQ(b.nextInvocationId(), 1u);
    EXPECT_EQ(a.nextInvocationId(), 2u);
    EXPECT_EQ(b.nextInstanceId(), 1u);
    EXPECT_EQ(a.nextInstanceId(), 1u);
}

// ---------------------------------------------------------------------
// Fresh-context and reset() contracts (counter/series bleed audit).
// ---------------------------------------------------------------------

TEST(SimContext, FreshContextStartsEmpty)
{
    // Run a full simulation against one context, then check a fresh
    // context sees none of it: zero counters, no trace, ids from the
    // start.
    SimContext used;
    fuzz::runApp(fuzzApp(5), true, aggressiveConfig(), 17, 4, &used);
    EXPECT_GT(used.counters().entryCount(), 0u);

    SimContext fresh;
    EXPECT_EQ(fresh.counters().entryCount(), 0u);
    EXPECT_TRUE(fresh.counters().snapshot().empty());
    EXPECT_FALSE(fresh.trace().enabled());
    EXPECT_EQ(fresh.trace().size(), 0u);
    EXPECT_EQ(fresh.nextInvocationId(), 1u);
}

TEST(SimContext, ResetRestoresTheEmptyState)
{
    SimContext context;
    context.trace().enable(64);
    fuzz::runApp(fuzzApp(5), true, aggressiveConfig(), 17, 4,
                 &context);
    EXPECT_GT(context.counters().entryCount(), 0u);
    EXPECT_GT(context.trace().size(), 0u);

    context.reset();
    EXPECT_EQ(context.counters().entryCount(), 0u);
    EXPECT_FALSE(context.trace().enabled());
    EXPECT_EQ(context.trace().size(), 0u);
    EXPECT_EQ(context.nextInvocationId(), 1u);
}

// ---------------------------------------------------------------------
// forTask() and mergeInto().
// ---------------------------------------------------------------------

TEST(SimContext, ForTaskMirrorsObservabilityConfig)
{
    SimContext session;
    session.trace().enable(512);

    auto task = SimContext::forTask(session, 0);
    EXPECT_TRUE(task->trace().enabled());
    EXPECT_EQ(task->trace().capacity(), 512u);

    SimContext quiet;
    auto dark = SimContext::forTask(quiet, 0);
    EXPECT_FALSE(dark->trace().enabled());
}

TEST(SimContext, ForTaskIdBlocksAreDisjoint)
{
    SimContext session;
    auto t0 = SimContext::forTask(session, 0);
    auto t1 = SimContext::forTask(session, 1);
    const std::uint64_t block = 1ull << SimContext::kTaskIdBits;
    EXPECT_EQ(t0->nextInvocationId(), block + 1);
    EXPECT_EQ(t1->nextInvocationId(), 2 * block + 1);
    EXPECT_EQ(t0->nextInstanceId(), block + 1);
    // The session's own ids stay below every task block.
    EXPECT_EQ(session.nextInvocationId(), 1u);
}

TEST(SimContext, MergeInSubmissionOrderReproducesSerialState)
{
    // Serial reference: both "tasks" record into one context.
    SimContext serial;
    serial.trace().enable(64);
    serial.trace().instant("t", "a0", 1, 1, 1);
    serial.trace().instant("t", "a1", 2, 1, 1);
    serial.counters().add("x", 2);
    serial.trace().instant("t", "b0", 3, 2, 2);
    serial.counters().add("x", 3);
    serial.counters().add("y", 1);

    // Parallel shape: two task contexts merged in submission order.
    SimContext session;
    session.trace().enable(64);
    auto t0 = SimContext::forTask(session, 0);
    t0->trace().instant("t", "a0", 1, 1, 1);
    t0->trace().instant("t", "a1", 2, 1, 1);
    t0->counters().add("x", 2);
    auto t1 = SimContext::forTask(session, 1);
    t1->trace().instant("t", "b0", 3, 2, 2);
    t1->counters().add("x", 3);
    t1->counters().add("y", 1);
    t0->mergeInto(session);
    t1->mergeInto(session);

    EXPECT_EQ(obs::toChromeTraceJson(session.trace().snapshot()),
              obs::toChromeTraceJson(serial.trace().snapshot()));
    EXPECT_EQ(session.counters().snapshot(),
              serial.counters().snapshot());
}

TEST(SimContext, MergeCarriesTraceDrops)
{
    // A 4-slot session ring absorbing 3+3 events keeps the newest 4
    // and counts 2 dropped — exactly what serial recording of the
    // same 6 events into a 4-slot ring reports.
    SimContext session;
    session.trace().enable(4);
    auto t0 = SimContext::forTask(session, 0);
    auto t1 = SimContext::forTask(session, 1);
    for (int i = 0; i < 3; ++i) {
        t0->trace().instant("t", "e", static_cast<Tick>(i), 1, 1);
        t1->trace().instant("t", "e", static_cast<Tick>(10 + i), 1, 1);
    }
    t0->mergeInto(session);
    t1->mergeInto(session);
    EXPECT_EQ(session.trace().size(), 4u);
    EXPECT_EQ(session.trace().dropped(), 2u);
    const auto events = session.trace().snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().ts, 2u);
    EXPECT_EQ(events.back().ts, 12u);
}

// ---------------------------------------------------------------------
// runSimTasks(): job-count independence, end to end.
// ---------------------------------------------------------------------

/** Summary of a batch run: per-task outcomes + merged artifacts. */
struct BatchArtifacts
{
    std::vector<std::uint64_t> fingerprints;
    std::string traceJson;
    std::string counterTable;
};

BatchArtifacts
runBatch(std::size_t jobs)
{
    SimContext session;
    session.trace().enable(1u << 14);
    std::vector<std::function<std::uint64_t(SimContext&)>> tasks;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        tasks.push_back([seed](SimContext& context) {
            const fuzz::Outcome out =
                fuzz::runApp(fuzzApp(seed), true, aggressiveConfig(),
                             17, 5, &context);
            return out.fingerprint;
        });
    }
    BatchArtifacts artifacts;
    artifacts.fingerprints =
        runSimTasks<std::uint64_t>(jobs, std::move(tasks), &session);
    artifacts.traceJson =
        obs::toChromeTraceJson(session.trace().snapshot());
    artifacts.counterTable = session.counters().table();
    return artifacts;
}

TEST(SimContext, RunSimTasksIsJobCountIndependent)
{
    const BatchArtifacts serial = runBatch(1);
    const BatchArtifacts parallel = runBatch(4);
    EXPECT_EQ(serial.fingerprints, parallel.fingerprints);
    ASSERT_FALSE(serial.traceJson.empty());
    EXPECT_EQ(serial.traceJson, parallel.traceJson);
    EXPECT_EQ(serial.counterTable, parallel.counterTable);
}

TEST(SimContext, RunSimTasksPropagatesTaskFailure)
{
    SimContext session;
    std::vector<std::function<int(SimContext&)>> tasks;
    tasks.push_back([](SimContext&) { return 1; });
    tasks.push_back([](SimContext&) -> int {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(runSimTasks<int>(2, std::move(tasks), &session),
                 std::runtime_error);
}

} // namespace
} // namespace specfaas
