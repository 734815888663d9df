/** @file Tests for the observability layer (tracing + counters). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "obs/counter_registry.hh"
#include "obs/critical_path.hh"
#include "obs/json_report.hh"
#include "obs/trace_export.hh"
#include "obs/trace_recorder.hh"
#include "platform/platform.hh"
#include "sim/sim_context.hh"
#include "workloads/app_helpers.hh"

namespace specfaas {
namespace {

using obs::Phase;
using obs::TraceEvent;
using obs::TraceRecorder;

TEST(TraceRecorder, DisabledRecordsNothing)
{
    TraceRecorder tr;
    EXPECT_FALSE(tr.enabled());
    tr.instant(obs::cat::kSpec, "x", 1, 0, 0);
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_TRUE(tr.snapshot().empty());
}

TEST(TraceRecorder, RingKeepsNewestAndCountsDrops)
{
    TraceRecorder tr;
    tr.enable(/*capacity=*/4);
    static const char* const kNames[] = {"e0", "e1", "e2", "e3", "e4",
                                         "e5", "e6", "e7", "e8", "e9"};
    for (int i = 0; i < 10; ++i)
        tr.instant(obs::cat::kSpec, kNames[i], i, 0, 0);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.capacity(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    auto evs = tr.snapshot();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest first, and it is the newest four that survive.
    EXPECT_STREQ(evs.front().name, "e6");
    EXPECT_STREQ(evs.back().name, "e9");
    for (std::size_t i = 1; i < evs.size(); ++i)
        EXPECT_LE(evs[i - 1].ts, evs[i].ts);
}

TEST(TraceRecorder, SpanPhasesRoundTrip)
{
    TraceRecorder tr;
    tr.enable(16);
    tr.begin(obs::cat::kExec, "f", 10, 1, 42);
    tr.instant(obs::cat::kStorage, "read", 15, 1, 42,
               {{"key", "k1"}});
    tr.end(obs::cat::kExec, "f", 20, 1, 42);
    auto evs = tr.snapshot();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].phase, Phase::Begin);
    EXPECT_EQ(evs[1].phase, Phase::Instant);
    EXPECT_EQ(evs[2].phase, Phase::End);
    EXPECT_STREQ(evs[1].args.at(0).key, "key");
    EXPECT_EQ(evs[1].args.at(0).text(), "k1");
    EXPECT_EQ(evs[1].arg("key"), &evs[1].args.at(0));
    EXPECT_EQ(evs[1].arg("absent"), nullptr);
}

TEST(TraceExport, ProducesWellFormedJson)
{
    std::vector<TraceEvent> evs;
    TraceEvent e;
    e.phase = Phase::Instant;
    e.category = obs::cat::kSpec;
    e.name = "quote\"back\\slash";
    e.ts = 123;
    e.pid = 2;
    e.tid = 7;
    e.args = {{"s", "v1"},
              {"n", 42},
              {"neg", std::int64_t{-3}},
              {"flag", true},
              {"p", 0.25},
              {"invocation", 7}};
    evs.push_back(e);
    const std::string json = obs::toChromeTraceJson(evs);
    // Structure markers of the Chrome trace_event array format.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":123"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    // Escaping; integers bare, reals at three decimals, text quoted.
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
    EXPECT_NE(json.find("\"n\":42,\"neg\":-3,\"flag\":1,\"p\":0.250"),
              std::string::npos);
    EXPECT_NE(json.find("\"s\":\"v1\""), std::string::npos);
    // The lifecycle invocation id keeps its historical string form.
    EXPECT_NE(json.find("\"invocation\":\"7\""), std::string::npos);
    // process_name metadata for the referenced pid.
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(TraceExport, StreamedFileMatchesInMemoryJson)
{
    // A wrapped ring whose document is larger than the exporter's
    // 1 MiB write buffer: the streamed file must hold exactly the
    // bytes toChromeTraceJson() renders from a snapshot.
    TraceRecorder tr;
    tr.enable(/*capacity=*/12000);
    for (int i = 0; i < 20000; ++i)
        tr.instant(obs::cat::kSpec, "squash", i,
                   static_cast<std::uint64_t>(i % 3), 100000 + i,
                   {{"reason", "control-mispredict"}, {"victims", i}});
    ASSERT_GT(tr.dropped(), 0u);
    const std::string path = ::testing::TempDir() + "streamed_trace.json";
    ASSERT_TRUE(obs::writeChromeTrace(tr, path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string file;
    char buf[65536];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
        file.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    const std::string json = obs::toChromeTraceJson(tr.snapshot());
    EXPECT_GT(json.size(), std::size_t{1} << 20);
    EXPECT_EQ(file, json);
}

TEST(TraceExport, JsonEscape)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(obs::jsonEscape("a\tb"), "a\\tb");
}

TEST(Counters, RegisterAddMerge)
{
    obs::CounterRegistry a;
    std::uint64_t& c = a.counter("x.events");
    ++c;
    ++c;
    a.add("x.events", 3);
    EXPECT_EQ(a.value("x.events"), 5u);
    EXPECT_EQ(a.value("absent"), 0u);
    obs::CounterRegistry b;
    b.add("x.events", 10);
    a.mergeInto(b);
    EXPECT_EQ(b.value("x.events"), 15u);
    EXPECT_NE(b.table().find("x.events"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end: trace a SpecFaaS run through the real platform.
// ---------------------------------------------------------------------

/** Branch chain app (same shape as the controller tests). */
Application
tracedBranchChain()
{
    Application app;
    app.name = "chain";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    app.functions.push_back(condFunction("Ca", "b0", 5.0));
    app.functions.push_back(condFunction("Cb", "b0", 5.0));
    app.functions.push_back(worker("Cend", 5.0, [](const Env&) {
        return Value("done");
    }));
    app.functions.push_back(worker("Cfail", 2.0, [](const Env&) {
        return Value("failed");
    }));
    app.workflow = when(
        "Ca", when("Cb", task("Cend"), task("Cfail")), task("Cfail"));
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["b0"] = Value(rng.bernoulli(0.95));
        return v;
    };
    return app;
}

std::vector<TraceEvent>
named(const std::vector<TraceEvent>& evs, const std::string& name)
{
    std::vector<TraceEvent> out;
    for (const auto& e : evs)
        if (e.name == name)
            out.push_back(e);
    return out;
}

TEST(TraceEndToEnd, SpeculationLifecycleIsRecorded)
{
    Application app = tracedBranchChain();
    PlatformOptions options;
    options.speculative = true;
    options.seed = 7;
    FaasPlatform platform(options);
    platform.deploy(app);
    platform.train(app, 20); // untraced: predictor warm-up

    obs::TraceRecorder& tr = defaultSimContext().trace();
    tr.enable(1u << 16);
    // Common case: the predicted path is taken.
    Value taken = Value::object({{"b0", Value(true)}});
    auto ok = platform.invokeSync(app, taken);
    EXPECT_EQ(ok.response.asString(), "done");
    // Forced misprediction: the rare direction must squash.
    Value rare = Value::object({{"b0", Value(false)}});
    auto r = platform.invokeSync(app, rare);
    EXPECT_EQ(r.response.asString(), "failed");

    tr.disable();
    auto evs = tr.snapshot();
    tr.clear();

    // The full predict → speculate → validate → commit chain.
    EXPECT_FALSE(named(evs, "branch-predict").empty());
    EXPECT_FALSE(named(evs, "speculative-launch").empty());
    EXPECT_FALSE(named(evs, "validate").empty());
    EXPECT_FALSE(named(evs, "commit").empty());

    // A validation that failed...
    const auto validations = named(evs, "validate");
    EXPECT_TRUE(std::any_of(
        validations.begin(), validations.end(), [](const TraceEvent& e) {
            const obs::TraceArg* c = e.arg("correct");
            return c != nullptr && c->integer() == 0;
        }));

    // ...and the squash it triggered, carrying its reason.
    const auto squashes = named(evs, "squash");
    ASSERT_FALSE(squashes.empty());
    const obs::TraceArg* reason = squashes.front().arg("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_EQ(reason->text(), "control-mispredict");

    // Lifecycle spans stay balanced per (pid, tid) track.
    std::map<std::pair<std::uint64_t, std::uint64_t>, int> depth;
    for (const auto& e : evs) {
        if (e.phase == Phase::Begin)
            ++depth[{e.pid, e.tid}];
        else if (e.phase == Phase::End)
            --depth[{e.pid, e.tid}];
    }
    for (const auto& [track, d] : depth) {
        (void)track;
        EXPECT_EQ(d, 0);
    }

    // The whole thing exports as a loadable JSON document.
    const std::string json = obs::toChromeTraceJson(evs);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("speculative-launch"), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden trace: the exported bytes and the analysis of one fixed
// two-engine scenario are pinned, so any change to what is recorded
// or how it is rendered shows up here.
// ---------------------------------------------------------------------

/**
 * Implicit two-level call tree: GRoot calls GMid (which calls GLeaf)
 * and then GTail. Every callee return merges into its caller's
 * commit.
 */
Application
goldenCallTree()
{
    Application app;
    app.name = "golden-calls";
    app.suite = "test";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "GRoot";

    const auto intOr = [](const Value& v, std::int64_t fb) {
        return v.isInt() ? v.asInt() : fb;
    };
    FunctionDef root;
    root.name = "GRoot";
    root.body.push_back(Op::compute(msToTicks(3.0)));
    root.body.push_back(Op::call("GMid", fns::inputField("k"), "m"));
    root.body.push_back(Op::call("GTail", fns::inputField("k"), "t"));
    root.output = [intOr](const Env& e) {
        return Value(intOr(e.var("m"), 0) + intOr(e.var("t"), 0));
    };
    app.functions.push_back(std::move(root));

    FunctionDef mid;
    mid.name = "GMid";
    mid.body.push_back(Op::compute(msToTicks(4.0)));
    mid.body.push_back(Op::call("GLeaf", fns::passInput(), "l"));
    mid.body.push_back(Op::compute(msToTicks(4.0)));
    mid.output = [intOr](const Env& e) {
        return Value(intOr(e.var("l"), 0) + 1);
    };
    app.functions.push_back(std::move(mid));

    app.functions.push_back(worker("GLeaf", 5.0, [intOr](const Env& e) {
        return Value(intOr(e.input, 0) * 2);
    }));
    app.functions.push_back(worker("GTail", 4.0, [intOr](const Env& e) {
        return Value(intOr(e.input, 0) + 100);
    }));
    app.inputGen = [](Rng& rng) {
        return Value::object(
            {{"k", Value(rng.uniformInt(std::int64_t{0},
                                        std::int64_t{3}))}});
    };
    return app;
}

/** One engine of the golden scenario: both apps deployed, chain trained. */
std::unique_ptr<FaasPlatform>
goldenPlatform(SimContext& context, bool speculative)
{
    PlatformOptions options;
    options.speculative = speculative;
    options.seed = 5;
    options.prewarmPerFunction = 0;
    options.context = &context;
    FaultRule crash;
    crash.kind = FaultKind::ContainerCrash;
    crash.function = "GMid";
    crash.phase = CrashPhase::MidExecution;
    crash.budget = 1;
    options.faultPlan.rules.push_back(crash);
    auto platform = std::make_unique<FaasPlatform>(options);
    platform->deploy(tracedBranchChain());
    platform->deploy(goldenCallTree());
    platform->train(tracedBranchChain(), 20);
    return platform;
}

/**
 * The traced part of the golden scenario: the trained branch chain
 * takes its common direction and then a forced misprediction; the
 * untrained call tree cold-starts, loses GMid to one injected
 * mid-execution crash, retries, and runs again warm.
 */
void
runGoldenScenario(FaasPlatform& platform)
{
    const Application chain = tracedBranchChain();
    const Application calls = goldenCallTree();
    platform.invokeSync(chain, Value::object({{"b0", Value(true)}}));
    platform.invokeSync(chain, Value::object({{"b0", Value(false)}}));
    for (std::int64_t k = 1; k <= 2; ++k)
        platform.invokeSync(calls, Value::object({{"k", Value(k)}}));
}

std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Writes @p text to a temp file and returns its path. */
std::string
dumpToTemp(const std::string& text, const char* stem)
{
    const std::string path =
        ::testing::TempDir() + "golden_" + stem + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
    }
    return path;
}

/** analyzeTrace() of the golden scenario, as toJson() renders it. */
const char* const kGoldenAnalysis = R"({
  "incomplete": 0,
  "invocations": 8,
  "per_app": {
    "chain": {
      "invocations": 4,
      "totals": {
        "commit_wait": 35000,
        "container_creation": 0,
        "execution": 38254,
        "queueing": 48162,
        "runtime_setup": 0,
        "stall_read": 0,
        "total": 121416,
        "validation": 0
      }
    },
    "golden-calls": {
      "invocations": 4,
      "totals": {
        "commit_wait": 0,
        "container_creation": 3000000,
        "execution": 14993495,
        "queueing": 30000,
        "runtime_setup": 700000,
        "stall_read": 0,
        "total": 18723495,
        "validation": 0
      }
    }
  },
  "rejected": 0,
  "speculation": {
    "by_reason": {
      "control-mispredict": {
        "squashes": 3,
        "wasted_ticks": 6835
      },
      "fault": {
        "squashes": 2,
        "wasted_ticks": 0
      }
    },
    "committed_instances": 26,
    "squashed_instances": 5,
    "useful_ticks": 123812,
    "wasted_fraction": 0.05231654764365045,
    "wasted_ticks": 6835
  },
  "totals": {
    "commit_wait": 35000,
    "container_creation": 3000000,
    "execution": 15031749,
    "queueing": 78162,
    "runtime_setup": 700000,
    "stall_read": 0,
    "total": 18844911,
    "validation": 0
  }
}
)";

TEST(TraceGolden, TwoEngineScenarioIsPinned)
{
    SimContext context;
    auto spec = goldenPlatform(context, /*speculative=*/true);
    auto base = goldenPlatform(context, /*speculative=*/false);
    context.trace().enable(1u << 16);
    runGoldenScenario(*spec);
    runGoldenScenario(*base);
    context.trace().disable();
    // Names and keys must outlive the platforms that recorded them.
    spec.reset();
    base.reset();
    const std::vector<TraceEvent> evs = context.trace().snapshot();
    ASSERT_EQ(context.trace().dropped(), 0u);

    // The scenario reaches every record shape it is meant to pin.
    const auto has = [&](const char* name, const char* key) {
        return std::any_of(evs.begin(), evs.end(), [&](const auto& e) {
            return std::strcmp(e.name, name) == 0 &&
                   (key == nullptr || e.arg(key) != nullptr);
        });
    };
    EXPECT_TRUE(has("squash", "id"));
    EXPECT_TRUE(has("validate", "correct"));
    EXPECT_TRUE(has("branch-predict", "probability"));
    EXPECT_TRUE(has("commit", "merged"));
    EXPECT_TRUE(has("crash", nullptr));
    EXPECT_TRUE(has("fault-retry", "attempt"));
    EXPECT_TRUE(has("cold-start", nullptr));
    EXPECT_TRUE(has("warm-start", nullptr));

    // Pinned from the recording of this scenario; a change to any
    // recorded value, key or rendering moves them.
    EXPECT_EQ(evs.size(), 237u);
    const std::string trace = obs::toChromeTraceJson(evs);
    EXPECT_EQ(fnv1a(trace), 0xf232f6528a716533ull)
        << "trace written to " << dumpToTemp(trace, "trace");
    const std::string analysis =
        obs::toJson(obs::toValue(obs::analyzeTrace(evs)));
    EXPECT_EQ(analysis, kGoldenAnalysis)
        << "analysis written to " << dumpToTemp(analysis, "analysis");
}

TEST(TraceEndToEnd, DisabledTracingStaysEmpty)
{
    Application app = tracedBranchChain();
    PlatformOptions options;
    options.speculative = true;
    options.seed = 7;
    FaasPlatform platform(options);
    platform.deploy(app);
    platform.train(app, 5);
    EXPECT_FALSE(defaultSimContext().trace().enabled());
    EXPECT_EQ(defaultSimContext().trace().size(), 0u);
}

} // namespace
} // namespace specfaas
