/**
 * @file
 * Tests for the trace-analysis half of src/obs: latency histograms,
 * the critical-path analyzer, the JSON report renderer/parser, report
 * comparison, ObsSession, and run-report determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/critical_path.hh"
#include "obs/histogram.hh"
#include "obs/json_report.hh"
#include "obs/obs_cli.hh"
#include "obs/trace_export.hh"
#include "obs/trace_recorder.hh"
#include "platform/load_generator.hh"
#include "platform/platform.hh"
#include "sim/sim_context.hh"
#include "workloads/app_helpers.hh"

namespace specfaas {
namespace {

using obs::LatencyHistogram;

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------

TEST(LatencyHistogram, EmptyIsNaN)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.mean()));
    EXPECT_TRUE(std::isnan(h.min()));
    EXPECT_TRUE(std::isnan(h.max()));
    EXPECT_TRUE(std::isnan(h.percentile(50)));
    EXPECT_TRUE(h.buckets().empty());
}

TEST(LatencyHistogram, ExactStatsAndApproximatePercentiles)
{
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
    // Log-bucketed: percentiles are within one sub-bucket (~6%).
    EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.07);
    EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.07);
    // Extremes clamp to the exact min / max.
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(LatencyHistogram, SubUnitAndNegativeShareTheZeroBucket)
{
    LatencyHistogram h;
    h.add(0.0);
    h.add(0.5);
    h.add(-3.0); // clamps
    h.add(std::nan("")); // clamps
    EXPECT_EQ(h.count(), 4u);
    const auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].count, 4u);
    EXPECT_DOUBLE_EQ(buckets[0].lower, 0.0);
}

TEST(LatencyHistogram, MergeMatchesCombinedAdds)
{
    LatencyHistogram a;
    LatencyHistogram b;
    LatencyHistogram both;
    for (int i = 1; i <= 50; ++i) {
        a.add(i);
        both.add(i);
    }
    for (int i = 51; i <= 100; ++i) {
        b.add(i * 10.0);
        both.add(i * 10.0);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_DOUBLE_EQ(a.sum(), both.sum());
    EXPECT_DOUBLE_EQ(a.min(), both.min());
    EXPECT_DOUBLE_EQ(a.max(), both.max());
    EXPECT_DOUBLE_EQ(a.percentile(90), both.percentile(90));
}

TEST(LatencyHistogram, BoundedBucketsOverHugeRange)
{
    LatencyHistogram h;
    for (int i = 0; i < 10000; ++i)
        h.add(std::pow(1.001, i)); // spans ~14 octaves
    // Memory stays O(log range), not O(n).
    EXPECT_LT(h.buckets().size(),
              20 * LatencyHistogram::kSubBuckets);
}

// ---------------------------------------------------------------------
// Shared traced workload
// ---------------------------------------------------------------------

/** Two-branch chain whose rare direction forces a squash. */
Application
reportBranchChain()
{
    Application app;
    app.name = "rpt-chain";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    app.functions.push_back(condFunction("Ra", "b0", 5.0));
    app.functions.push_back(worker("Rmid", 6.0, fns::passInput()));
    app.functions.push_back(worker("Rend", 5.0, [](const Env&) {
        return Value("done");
    }));
    app.functions.push_back(worker("Rfail", 2.0, [](const Env&) {
        return Value("failed");
    }));
    app.workflow =
        when("Ra", sequence({task("Rmid"), task("Rend")}),
             task("Rfail"));
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["b0"] = Value(rng.bernoulli(0.95));
        return v;
    };
    return app;
}

/**
 * One traced SpecFaaS mini-run: train untraced, then invoke the
 * common direction and the forced-misprediction direction under
 * tracing into a ring of @p capacity events. Returns the recorded
 * events; the default context's recorder keeps them too.
 */
std::vector<obs::TraceEvent>
tracedSpecRun(std::uint64_t seed, std::size_t capacity = 1u << 16)
{
    Application app = reportBranchChain();
    PlatformOptions options;
    options.speculative = true;
    options.seed = seed;
    FaasPlatform platform(options);
    platform.deploy(app);
    platform.train(app, 20);

    obs::TraceRecorder& tr = defaultSimContext().trace();
    tr.enable(capacity);
    for (int i = 0; i < 3; ++i) {
        auto ok = platform.invokeSync(
            app, Value::object({{"b0", Value(true)}}));
        EXPECT_EQ(ok.response.asString(), "done");
    }
    auto rare = platform.invokeSync(
        app, Value::object({{"b0", Value(false)}}));
    EXPECT_EQ(rare.response.asString(), "failed");
    tr.disable();
    return tr.snapshot();
}

// ---------------------------------------------------------------------
// Critical-path analyzer
// ---------------------------------------------------------------------

TEST(CriticalPath, SegmentsTileEndToEndLatencyExactly)
{
    defaultSimContext().reset();
    const auto evs = tracedSpecRun(11);
    const auto report = obs::analyzeTrace(evs);

    ASSERT_EQ(report.invocations.size(), 4u);
    EXPECT_EQ(report.incompleteInvocations, 0u);
    for (const auto& inv : report.invocations) {
        EXPECT_GT(inv.latency(), 0);
        // Acceptance criterion: the exclusive segments sum to the
        // measured end-to-end latency within one tick.
        EXPECT_LE(std::llabs(static_cast<long long>(
                      inv.segments.total() - inv.latency())),
                  1)
            << "invocation " << inv.id;
        EXPECT_GT(inv.segments.execution, 0);
        EXPECT_EQ(inv.app, "rpt-chain");
    }
    EXPECT_EQ(report.perApp.at("rpt-chain").invocations, 4u);
    EXPECT_EQ(report.totals.execution,
              report.perApp.at("rpt-chain").totals.execution);
    defaultSimContext().reset();
}

TEST(CriticalPath, ForcedMispredictionAttributesWastedTicks)
{
    defaultSimContext().reset();
    const auto evs = tracedSpecRun(12);
    const auto report = obs::analyzeTrace(evs);
    const auto& w = report.speculation;

    EXPECT_GT(w.usefulTicks, 0);
    EXPECT_GT(w.committedInstances, 0u);
    // The rare direction squashed speculative work...
    EXPECT_GT(w.squashedInstances, 0u);
    // ...and the burn is attributed to the squash reason.
    ASSERT_TRUE(w.squashesByReason.count("control-mispredict"));
    EXPECT_GT(w.squashesByReason.at("control-mispredict"), 0u);
    EXPECT_TRUE(w.wastedByReason.count("control-mispredict"));
    // Per-reason attribution covers all wasted ticks.
    Tick by_reason = 0;
    for (const auto& [reason, ticks] : w.wastedByReason)
        by_reason += ticks;
    EXPECT_EQ(by_reason, w.wastedTicks);
    const double f = w.wastedFraction();
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    defaultSimContext().reset();
}

TEST(CriticalPath, WastedTicksAttributedPerReason)
{
    // Two range squashes, each killing one instance: every victim's
    // exec_ticks land on its own reason. The events are built by hand
    // with the same typed arguments the engines record.
    using obs::Phase;
    using obs::TraceEvent;
    const auto ev = [](Phase ph, const char* category, const char* name,
                       Tick ts, std::uint64_t tid,
                       std::vector<obs::TraceArg> args) {
        return TraceEvent{ph,  category, name, ts, obs::kControlPlanePid,
                          tid, std::move(args)};
    };
    const std::vector<TraceEvent> evs = {
        ev(Phase::Begin, obs::cat::kLifecycle, "F", 0, 10,
           {{"order", "0"}, {"invocation", 1}}),
        ev(Phase::Begin, obs::cat::kLifecycle, "G", 0, 11,
           {{"order", "1"}, {"invocation", 1}}),
        ev(Phase::End, obs::cat::kLifecycle, "F", 40, 10,
           {{"squashed", 1},
            {"reason", "control-mispredict"},
            {"squash_id", 1},
            {"exec_ticks", 30}}),
        ev(Phase::End, obs::cat::kLifecycle, "G", 50, 11,
           {{"squashed", 1},
            {"reason", "buffer-violation"},
            {"squash_id", 2},
            {"exec_ticks", 7}}),
        ev(Phase::Instant, obs::cat::kSpec, "squash", 40, 1,
           {{"reason", "control-mispredict"}, {"victims", 1}, {"id", 1}}),
        ev(Phase::Instant, obs::cat::kSpec, "squash", 50, 1,
           {{"reason", "buffer-violation"}, {"victims", 1}, {"id", 2}}),
    };
    const auto w = obs::analyzeTrace(evs).speculation;
    EXPECT_EQ(w.squashedInstances, 2u);
    EXPECT_EQ(w.wastedTicks, 37);
    EXPECT_EQ(w.wastedByReason.at("control-mispredict"), 30);
    EXPECT_EQ(w.wastedByReason.at("buffer-violation"), 7);
    EXPECT_EQ(w.squashesByReason.at("control-mispredict"), 1u);
    EXPECT_EQ(w.squashesByReason.at("buffer-violation"), 1u);
}

void
expectSameSegments(const obs::SegmentBreakdown& a,
                   const obs::SegmentBreakdown& b)
{
    EXPECT_EQ(a.queueing, b.queueing);
    EXPECT_EQ(a.containerCreation, b.containerCreation);
    EXPECT_EQ(a.runtimeSetup, b.runtimeSetup);
    EXPECT_EQ(a.execution, b.execution);
    EXPECT_EQ(a.stallRead, b.stallRead);
    EXPECT_EQ(a.validation, b.validation);
    EXPECT_EQ(a.commitWait, b.commitWait);
}

TEST(CriticalPath, RingAnalysisMatchesSnapshotOnWrappedRing)
{
    defaultSimContext().reset();
    const std::size_t full = tracedSpecRun(13).size();
    defaultSimContext().reset();
    // Keep a bit over half the events: the ring wraps, the oldest
    // invocations lose events, the newest are still whole.
    tracedSpecRun(13, full / 2 + 16);
    const obs::TraceRecorder& tr = defaultSimContext().trace();
    ASSERT_GT(tr.dropped(), 0u);

    const auto fromRing = obs::analyzeTrace(tr);
    const auto fromCopy = obs::analyzeTrace(tr.snapshot());
    EXPECT_GT(fromCopy.invocations.size(), 0u);
    EXPECT_GT(fromCopy.incompleteInvocations, 0u);

    ASSERT_EQ(fromRing.invocations.size(), fromCopy.invocations.size());
    for (std::size_t i = 0; i < fromCopy.invocations.size(); ++i) {
        const auto& a = fromRing.invocations[i];
        const auto& b = fromCopy.invocations[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.app, b.app);
        EXPECT_EQ(a.submittedAt, b.submittedAt);
        EXPECT_EQ(a.completedAt, b.completedAt);
        EXPECT_EQ(a.committedInstances, b.committedInstances);
        expectSameSegments(a.segments, b.segments);
    }
    expectSameSegments(fromRing.totals, fromCopy.totals);
    ASSERT_EQ(fromRing.perApp.size(), fromCopy.perApp.size());
    for (const auto& [name, app] : fromCopy.perApp) {
        ASSERT_TRUE(fromRing.perApp.count(name)) << name;
        EXPECT_EQ(fromRing.perApp.at(name).invocations, app.invocations);
        expectSameSegments(fromRing.perApp.at(name).totals, app.totals);
    }
    const auto& wa = fromRing.speculation;
    const auto& wb = fromCopy.speculation;
    EXPECT_EQ(wa.usefulTicks, wb.usefulTicks);
    EXPECT_EQ(wa.wastedTicks, wb.wastedTicks);
    EXPECT_EQ(wa.committedInstances, wb.committedInstances);
    EXPECT_EQ(wa.squashedInstances, wb.squashedInstances);
    EXPECT_EQ(wa.wastedByReason, wb.wastedByReason);
    EXPECT_EQ(wa.squashesByReason, wb.squashesByReason);
    EXPECT_EQ(fromRing.rejectedInvocations, fromCopy.rejectedInvocations);
    EXPECT_EQ(fromRing.incompleteInvocations,
              fromCopy.incompleteInvocations);
    defaultSimContext().reset();
}

// ---------------------------------------------------------------------
// ObsSession flag parsing
// ---------------------------------------------------------------------

/** Construct an ObsSession over "bench_x <flag>"; used in death tests. */
void
startSession(const char* flag)
{
    std::string name = "bench_x";
    std::string arg = flag;
    char* argv[] = {name.data(), arg.data(), nullptr};
    int argc = 2;
    obs::ObsSession session(argc, argv);
}

TEST(ObsSessionDeathTest, TrailingTextInTraceCapacityIsFatal)
{
    EXPECT_EXIT(startSession("--trace-capacity=12abc"),
                ::testing::ExitedWithCode(1),
                "invalid --trace-capacity value: '12abc'");
}

TEST(ObsSessionDeathTest, UnknownProfileValueIsFatal)
{
    EXPECT_EXIT(startSession("--profile-value=cycles"),
                ::testing::ExitedWithCode(1),
                "invalid --profile-value value: 'cycles'");
}

/** Events executed and response times of one small load run. */
struct LoadRunTrace
{
    std::uint64_t executedEvents = 0;
    std::vector<Tick> responseTimes;
};

/** A 30-request Poisson run of reportBranchChain on the default context. */
LoadRunTrace
smallLoadRun()
{
    Application app = reportBranchChain();
    PlatformOptions options;
    options.speculative = true;
    options.seed = 5;
    FaasPlatform platform(options);
    platform.deploy(app);
    const LoadRunResult result =
        LoadGenerator::run(platform, app, 100.0, 30);
    LoadRunTrace out;
    out.executedEvents = platform.sim().events().executedCount();
    for (const InvocationResult& r : result.results)
        out.responseTimes.push_back(r.completedAt - r.submittedAt);
    return out;
}

TEST(ObsSession, JsonOutLeavesTheRunUnchanged)
{
    // A report reads the run; it must not add events to it.
    defaultSimContext().reset();
    const LoadRunTrace bare = smallLoadRun();

    const std::string path = ::testing::TempDir() + "json_out_run.json";
    LoadRunTrace reported;
    {
        std::string name = "bench_x";
        std::string arg = "--json-out=" + path;
        char* argv[] = {name.data(), arg.data(), nullptr};
        int argc = 2;
        obs::ObsSession session(argc, argv);
        reported = smallLoadRun();
    }
    std::remove(path.c_str());
    defaultSimContext().reset();

    ASSERT_EQ(bare.responseTimes.size(), 30u);
    EXPECT_EQ(reported.executedEvents, bare.executedEvents);
    EXPECT_EQ(reported.responseTimes, bare.responseTimes);
}

// ---------------------------------------------------------------------
// JSON rendering, parsing, comparison
// ---------------------------------------------------------------------

TEST(JsonReport, RenderParseRoundTrip)
{
    Value v = Value::object(
        {{"s", Value("quote\"new\nline")},
         {"i", Value(static_cast<std::int64_t>(-42))},
         {"d", Value(3.25)},
         {"b", Value(true)},
         {"arr", Value(ValueArray{Value(1), Value("two")})},
         {"nested", Value::object({{"k", Value(false)}})}});
    const std::string text = obs::toJson(v);

    Value back;
    std::string error;
    ASSERT_TRUE(obs::parseJson(text, back, &error)) << error;
    EXPECT_EQ(obs::toJson(back), text); // stable fixpoint
    EXPECT_EQ(back["s"].asString(), "quote\"new\nline");
    EXPECT_EQ(back["i"].asInt(), -42);
    EXPECT_DOUBLE_EQ(back["d"].asDouble(), 3.25);
}

TEST(JsonReport, ParseRejectsMalformedInput)
{
    Value out;
    std::string error;
    EXPECT_FALSE(obs::parseJson("{\"a\": ", out, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(obs::parseJson("{\"a\": 1} trailing", out));
    EXPECT_FALSE(obs::parseJson("", out));
}

TEST(JsonReport, BuildCarriesSchemaConfigAndMetrics)
{
    obs::JsonReport report("unit");
    report.setConfig("seed", Value(static_cast<std::int64_t>(42)));
    report.addMetric("speedup", 4.6, /*higherIsBetter=*/true, "x");
    LatencyHistogram h;
    h.add(5.0);
    report.addHistogram("lat_ms", h);

    Value doc = report.build();
    EXPECT_EQ(doc["schema"].asString(), obs::kReportSchema);
    EXPECT_EQ(doc["bench"].asString(), "unit");
    EXPECT_EQ(doc["config"]["seed"].asInt(), 42);
    EXPECT_DOUBLE_EQ(doc["metrics"]["speedup"]["value"].asDouble(),
                     4.6);
    EXPECT_TRUE(
        doc["metrics"]["speedup"]["higher_is_better"].asBool());
    EXPECT_EQ(doc["histograms"]["lat_ms"]["count"].asInt(), 1);
}

TEST(CompareReports, IdenticalReportsPass)
{
    obs::JsonReport report("cmp");
    report.addMetric("speedup", 4.0, true, "x");
    report.addMetric("latency_ms", 120.0, false, "ms");
    const auto result =
        obs::compareReports(report.build(), report.build());
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.regressions.empty());
    EXPECT_TRUE(result.errors.empty());
}

TEST(CompareReports, FlagsBadDirectionBeyondTolerance)
{
    obs::JsonReport base("cmp");
    base.addMetric("speedup", 4.0, true);
    base.addMetric("latency_ms", 100.0, false);
    obs::JsonReport cand("cmp");
    cand.addMetric("speedup", 3.0, true);     // -25%: regression
    cand.addMetric("latency_ms", 103.0, false); // +3%: within 5%
    const auto result = obs::compareReports(base.build(),
                                            cand.build());
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.regressions.size(), 1u);
    EXPECT_NE(result.regressions[0].find("speedup"),
              std::string::npos);
}

TEST(CompareReports, GoodDirectionNeverFails)
{
    obs::JsonReport base("cmp");
    base.addMetric("speedup", 4.0, true);
    base.addMetric("latency_ms", 100.0, false);
    obs::JsonReport cand("cmp");
    cand.addMetric("speedup", 8.0, true);      // better
    cand.addMetric("latency_ms", 50.0, false); // better
    EXPECT_TRUE(
        obs::compareReports(base.build(), cand.build()).ok());
}

TEST(CompareReports, MismatchAndMissingMetricsAreErrors)
{
    obs::JsonReport base("bench-a");
    base.addMetric("m", 1.0, true);
    obs::JsonReport other("bench-b");
    other.addMetric("m", 1.0, true);
    EXPECT_FALSE(
        obs::compareReports(base.build(), other.build()).ok());

    obs::JsonReport missing("bench-a");
    const auto result =
        obs::compareReports(base.build(), missing.build());
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.errors.empty());
}

// ---------------------------------------------------------------------
// Determinism: same seed => byte-identical artifacts
// ---------------------------------------------------------------------

/** One full mini-run producing both artifacts, like ObsSession does. */
std::pair<std::string, std::string>
artifactsForSeed(std::uint64_t seed)
{
    defaultSimContext().reset();
    const auto evs = tracedSpecRun(seed);

    const std::string chrome = obs::toChromeTraceJson(evs);

    obs::JsonReport report("determinism");
    report.setConfig("seed",
                     Value(static_cast<std::int64_t>(seed)));
    report.addSection("counters",
                      obs::counterSnapshotValue(
                          defaultSimContext().counters()));
    report.addSection("critical_path",
                      obs::toValue(obs::analyzeTrace(evs)));
    const std::string json = obs::toJson(report.build());
    defaultSimContext().reset();
    return {chrome, json};
}

TEST(Determinism, SameSeedYieldsByteIdenticalTraceAndReport)
{
    const auto first = artifactsForSeed(42);
    const auto second = artifactsForSeed(42);
    EXPECT_EQ(first.first, second.first);   // Chrome trace JSON
    EXPECT_EQ(first.second, second.second); // run report JSON
    EXPECT_NE(first.first.find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(first.second.find("critical_path"),
              std::string::npos);
}

TEST(Determinism, DifferentSeedsYieldDifferentReports)
{
    const auto a = artifactsForSeed(42);
    const auto b = artifactsForSeed(43);
    EXPECT_NE(a.second, b.second);
}

} // namespace
} // namespace specfaas
