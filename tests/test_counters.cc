/** @file CounterRegistry unit tests (src/obs/counter_registry). */

#include <gtest/gtest.h>

#include "obs/counter_registry.hh"
#include "platform/platform.hh"
#include "sim/sim_context.hh"
#include "workloads/app_helpers.hh"

namespace specfaas {
namespace {

using obs::CounterRegistry;

TEST(CounterRegistry, MergeIntoAccumulatesAcrossRegistries)
{
    CounterRegistry a;
    a.add("events", 5);
    CounterRegistry b;
    b.add("events", 10);
    b.add("only_in_b", 1);

    a.mergeInto(b);
    EXPECT_EQ(b.value("events"), 15u);
    EXPECT_EQ(b.value("only_in_b"), 1u);

    // Merging twice keeps accumulating; the source is unchanged.
    a.mergeInto(b);
    EXPECT_EQ(b.value("events"), 20u);
    EXPECT_EQ(a.value("events"), 5u);
}

TEST(CounterRegistry, ValueOnAbsentNameDoesNotCreateAnEntry)
{
    CounterRegistry reg;
    reg.add("present", 1);
    ASSERT_EQ(reg.entryCount(), 1u);
    EXPECT_EQ(reg.value("absent"), 0u);
    EXPECT_EQ(reg.entryCount(), 1u);
    // But counter() does create, at zero.
    (void)reg.counter("absent");
    EXPECT_EQ(reg.entryCount(), 2u);
    EXPECT_EQ(reg.value("absent"), 0u);
}

TEST(CounterRegistry, SnapshotListsCountersSortedByName)
{
    CounterRegistry reg;
    reg.add("z.counter", 1);
    reg.add("b.counter", 2);
    reg.add("a.counter", 4);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "a.counter");
    EXPECT_EQ(snap[1].first, "b.counter");
    EXPECT_EQ(snap[2].first, "z.counter");
    EXPECT_DOUBLE_EQ(snap[0].second, 4.0);
    EXPECT_DOUBLE_EQ(snap[2].second, 1.0);
}

TEST(CounterRegistry, StableReferencesSurviveGrowth)
{
    CounterRegistry reg;
    std::uint64_t& c = reg.counter("hot");
    for (int i = 0; i < 100; ++i)
        (void)reg.counter("filler" + std::to_string(i));
    c += 7;
    EXPECT_EQ(reg.value("hot"), 7u);
}

TEST(CounterRegistry, EngineTeardownMergesIntoGlobalRegistry)
{
    Application app;
    app.name = "merge-app";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    app.functions.push_back(worker("MgF", 5.0, [](const Env&) {
        return Value("ok");
    }));
    app.workflow = task("MgF");
    app.inputGen = [](Rng&) { return Value::object({}); };

    obs::CounterRegistry& global = defaultSimContext().counters();
    global.clear();
    {
        PlatformOptions options;
        options.speculative = false;
        options.seed = 3;
        FaasPlatform platform(options);
        platform.deploy(app);
        (void)platform.invokeSync(app, Value::object({}));
        // Engine still alive: its tallies are private to the run.
        EXPECT_EQ(global.value("baseline.invocations"), 0u);
    }
    // Engine destroyed: its registry landed in the global one.
    EXPECT_EQ(global.value("baseline.invocations"), 1u);
    EXPECT_EQ(global.value("baseline.completions"), 1u);
    global.clear();
}

} // namespace
} // namespace specfaas
