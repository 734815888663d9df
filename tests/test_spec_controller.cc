/** @file Feature-level tests of the SpecFaaS speculative engine. */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "platform/platform.hh"
#include "specfaas/spec_controller.hh"
#include "workloads/app_helpers.hh"
#include "workloads/suites.hh"

namespace specfaas {
namespace {

/** Branch chain with a dominant direction set by the input field. */
Application
branchChain()
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

/** Sequence with memoizable intermediate values. */
Application
memoChain()
{
    Application app;
    app.name = "memo";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    app.functions.push_back(worker("Ma", 10.0, [](const Env& e) {
        return Value(e.input.at("k").asInt() % 4);
    }));
    app.functions.push_back(worker("Mb", 10.0, [](const Env& e) {
        return Value(e.input.asInt() * 10);
    }));
    app.functions.push_back(worker("Mc", 10.0, [](const Env& e) {
        return Value(e.input.asInt() + 1);
    }));
    app.workflow = sequence({task("Ma"), task("Mb"), task("Mc")});
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["k"] = Value(rng.uniformInt(std::int64_t{0}, std::int64_t{31}));
        return v;
    };
    return app;
}

std::unique_ptr<FaasPlatform>
specPlatform(const Application& app, SpecConfig config = {},
             std::size_t train = 20)
{
    PlatformOptions options;
    options.speculative = true;
    options.spec = config;
    options.seed = 7;
    auto platform = std::make_unique<FaasPlatform>(options);
    platform->deploy(app);
    platform->train(app, train);
    return platform;
}

double
meanResponseMs(FaasPlatform& platform, const Application& app, int n)
{
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        auto r = platform.invokeSync(
            app, app.inputGen(platform.inputRng()));
        total += ticksToMs(r.responseTime());
    }
    return total / n;
}

TEST(SpecController, BranchPredictionOverlapsChain)
{
    Application app = branchChain();
    auto spec = specPlatform(app);
    const double spec_ms = meanResponseMs(*spec, app, 30);

    PlatformOptions base_options;
    base_options.seed = 7;
    FaasPlatform base(base_options);
    base.deploy(app);
    base.train(app, 20);
    const double base_ms = meanResponseMs(base, app, 30);

    EXPECT_LT(spec_ms, base_ms / 2.0);
}

TEST(SpecController, MispredictionsAreSquashedNotWrong)
{
    Application app = branchChain();
    auto spec = specPlatform(app);
    // Force the rare direction: the prediction will be wrong, the
    // wrong path squashed, and the correct response produced.
    Value input = Value::object({{"b0", Value(false)}});
    auto r = spec->invokeSync(app, input);
    EXPECT_EQ(r.response.asString(), "failed");
    EXPECT_GT(spec->specController()->counters().value(
                  "spec.control_mispredicts"),
              0u);
}

TEST(SpecController, MemoizationFeedsSuccessorsEarly)
{
    Application app = memoChain();
    auto spec = specPlatform(app, {}, 40);
    auto r = spec->invokeSync(
        app, app.inputGen(spec->inputRng()));
    EXPECT_GT(r.memoHits, 0u);
    // Response is correct regardless of speculation.
    const std::int64_t k = 0; // recompute expected from the app logic
    (void)k;
    EXPECT_TRUE(r.response.isInt());
}

TEST(SpecController, DataMispredictSquashesAndRecovers)
{
    // A function whose output depends on mutable global state: the
    // memoized output goes stale when the state changes.
    Application app;
    app.name = "stale";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    FunctionDef reader = worker("Sread", 5.0, [](const Env& e) {
        return Value(e.var("g").at("v").asInt());
    });
    reader.body.insert(reader.body.begin(),
                       Op::storageRead(
                           [](const Env&) { return std::string("gk"); },
                           "g"));
    app.functions.push_back(std::move(reader));
    app.functions.push_back(worker("Suse", 5.0, [](const Env& e) {
        return Value(e.input.asInt() * 2);
    }));
    app.workflow = sequence({task("Sread"), task("Suse")});
    app.inputGen = [](Rng&) { return Value::object({}); };
    app.seedStore = [](KvStore& store, Rng&) {
        store.put("gk", Value::object({{"v", Value(1)}}));
    };

    auto spec = specPlatform(app, {}, 10);
    auto r1 = spec->invokeSync(app, Value::object({}));
    EXPECT_EQ(r1.response.asInt(), 2);
    // Mutate the global state behind the memo table's back.
    spec->store().put("gk", Value::object({{"v", Value(5)}}));
    auto r2 = spec->invokeSync(app, Value::object({}));
    EXPECT_EQ(r2.response.asInt(), 10); // correct despite stale memo
    EXPECT_GT(spec->specController()->counters().value(
                  "spec.data_mispredicts"),
              0u);
}

TEST(SpecController, SpeculationDisabledStillCorrect)
{
    SpecConfig config;
    config.speculation = false;
    Application app = memoChain();
    auto spec = specPlatform(app, config);
    auto r = spec->invokeSync(app, Value::object({{"k", Value(6)}}));
    EXPECT_EQ(r.response.asInt(), 21); // (6%4)*10+1
    EXPECT_EQ(r.speculativeLaunches, 0u);
}

TEST(SpecController, NonSpeculativeModeIsStillFasterThanBaseline)
{
    // The Sequence-Table fast dispatch alone removes the conductor
    // round trips (§IV).
    SpecConfig config;
    config.speculation = false;
    Application app = memoChain();
    auto spec = specPlatform(app, config);
    const double spec_ms = meanResponseMs(*spec, app, 20);
    PlatformOptions base_options;
    base_options.seed = 7;
    FaasPlatform base(base_options);
    base.deploy(app);
    base.train(app, 20);
    const double base_ms = meanResponseMs(base, app, 20);
    EXPECT_LT(spec_ms, base_ms);
}

TEST(SpecController, NonSpeculativeAnnotationBlocksEarlyLaunch)
{
    Application app = memoChain();
    app.functions[2].nonSpeculativeAnnotation = true; // Mc
    auto spec = specPlatform(app, {}, 40);
    auto before = spec->specController()->counters().value(
        "spec.speculative_launches");
    auto r = spec->invokeSync(app, Value::object({{"k", Value(1)}}));
    EXPECT_EQ(r.response.asInt(), 11);
    // Mb may speculate; Mc never does. At most one spec launch.
    auto after = spec->specController()->counters().value(
        "spec.speculative_launches");
    EXPECT_LE(after - before, 1u);
}

TEST(SpecController, PureFunctionSkipAvoidsExecution)
{
    Application app = memoChain();
    for (auto& f : app.functions)
        f.pureAnnotation = true;
    SpecConfig config;
    config.pureFunctionSkip = true;
    auto spec = specPlatform(app, config, 40);
    const auto before =
        spec->specController()->counters().value("spec.pure_skips");
    auto r = spec->invokeSync(app, Value::object({{"k", Value(2)}}));
    EXPECT_EQ(r.response.asInt(), 21);
    EXPECT_GT(spec->specController()->counters().value("spec.pure_skips"),
              before);
}

/** Implicit app: root R calls a pure P, which calls Q. */
Application
pureCalleeApp()
{
    Application app;
    app.name = "pure-callee";
    app.suite = "test";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "PR";

    FunctionDef root;
    root.name = "PR";
    root.body.push_back(Op::compute(msToTicks(2.0)));
    root.body.push_back(Op::call("PP", fns::inputField("k"), "p"));
    root.output = [](const Env& e) { return e.var("p"); };
    app.functions.push_back(std::move(root));

    FunctionDef pure;
    pure.name = "PP";
    pure.pureAnnotation = true;
    pure.body.push_back(Op::compute(msToTicks(2.0)));
    pure.body.push_back(Op::call("PQ", fns::passInput(), "q"));
    pure.output = [](const Env& e) {
        return Value(e.var("q").asInt() + 1);
    };
    app.functions.push_back(std::move(pure));

    app.functions.push_back(worker("PQ", 3.0, [](const Env& e) {
        return Value(e.input.asInt() * 2);
    }));
    return app;
}

TEST(SpecController, PureSkipTeachesTheTablesNothing)
{
    // A pure skip executed nothing, so its commit must leave the
    // skipped function's memo row as the last real execution left it,
    // including the learned callee arguments.
    Application app = pureCalleeApp();
    SpecConfig config;
    config.pureFunctionSkip = true;
    auto spec = specPlatform(app, config, 0);
    SpecController* controller = spec->specController();
    const Value input = Value::object({{"k", Value(5)}});
    const Value p_input(5);

    auto r1 = spec->invokeSync(app, Value(input));
    ASSERT_EQ(r1.response.asInt(), 11);
    const MemoRow* row = controller->memoStore().table("PP").lookup(p_input);
    ASSERT_NE(row, nullptr) << "P never committed a memo row";
    const MemoRow learned = *row;
    ASSERT_EQ(learned.calleeArgs.size(), 1u) << "P's call to Q not learned";

    const auto skips_before = controller->counters().value("spec.pure_skips");
    auto r2 = spec->invokeSync(app, Value(input));
    ASSERT_EQ(r2.response.asInt(), 11);
    ASSERT_EQ(controller->counters().value("spec.pure_skips"),
              skips_before + 1)
        << "the second run did not skip P";

    row = controller->memoStore().table("PP").lookup(p_input);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->output, learned.output);
    ASSERT_EQ(row->calleeArgs.size(), learned.calleeArgs.size());
    for (const auto& [cs, args] : learned.calleeArgs) {
        auto it = row->calleeArgs.find(cs);
        ASSERT_NE(it, row->calleeArgs.end());
        EXPECT_EQ(it->second, args);
    }
}

TEST(SpecController, HttpDeferredUntilNonSpeculative)
{
    // The HTTP request sits in a speculatively-launched function; it
    // must not fire before the function turns non-speculative — and
    // must never fire on a squashed wrong path.
    Application app = branchChain();
    FunctionDef& cend = app.functions[2];
    cend.body.push_back(Op::http());
    auto spec = specPlatform(app);
    const auto deferred_before =
        spec->specController()->counters().value(
            "spec.deferred_side_effects");
    auto r = spec->invokeSync(app, Value::object({{"b0", Value(true)}}));
    EXPECT_EQ(r.response.asString(), "done");
    EXPECT_GT(spec->specController()->counters().value(
                  "spec.deferred_side_effects"),
              deferred_before);
}

TEST(SpecController, SquashMinimizerLearnsToStall)
{
    // Producer writes a per-request record; the consumer reads it.
    Application app;
    app.name = "raw";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    FunctionDef producer = worker("Rp", 8.0, fns::passInput());
    producer.body.push_back(Op::storageWrite(
        fns::keyOf("rec", "k"),
        [](const Env& e) { return e.input.at("k"); }));
    app.functions.push_back(std::move(producer));
    FunctionDef consumer = worker("Rc", 8.0, [](const Env& e) {
        return e.var("r");
    });
    consumer.body.insert(consumer.body.begin(),
                         Op::storageRead(fns::keyOf("rec", "k"), "r"));
    app.functions.push_back(std::move(consumer));
    app.workflow = sequence({task("Rp"), task("Rc")});
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["k"] = Value(rng.uniformInt(std::int64_t{0}, std::int64_t{3}));
        return v;
    };

    auto spec = specPlatform(app, {}, 40);
    auto* controller = spec->specController();
    // The pattern was learned during training...
    EXPECT_GT(controller->squashMinimizer().patternCount(), 0u);
    // ...and now reads stall instead of squashing.
    const auto squashes_before =
        controller->counters().value("spec.squashes");
    const auto stalls_before =
        controller->counters().value("spec.stalled_reads");
    for (int i = 0; i < 10; ++i) {
        (void)spec->invokeSync(app, app.inputGen(spec->inputRng()));
    }
    EXPECT_GT(controller->counters().value("spec.stalled_reads"),
              stalls_before);
    EXPECT_EQ(controller->counters().value("spec.squashes"),
              squashes_before);
}

TEST(SpecController, BufferViolationInForkArmRestartsWholeFork)
{
    // Arm 1 reads the record before arm 0 (earlier in program order)
    // writes it, and finishes first: its result already sits in the
    // join. The violation must restart the whole fork. Restarting
    // only arm 1 would deposit its result twice and fire the join
    // before arm 0 finishes. Arm 1's output ignores the value read,
    // so its re-execution confirms the replayed output instead of
    // mispredicting (a data-mispredict rewind would mask the bug).
    Application app;
    app.name = "fork-raw";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    FunctionDef writer = worker("Fw", 20.0, fns::inputField("k"));
    writer.body.push_back(Op::storageWrite(
        fns::keyOf("rec", "k"),
        [](const Env& e) { return e.input.at("k"); }));
    app.functions.push_back(std::move(writer));
    FunctionDef reader = worker("Fr", 2.0, fns::inputField("k"));
    reader.body.insert(reader.body.begin(),
                       Op::storageRead(fns::keyOf("rec", "k"), "r"));
    app.functions.push_back(std::move(reader));
    app.functions.push_back(worker("Fz", 2.0, fns::passInput()));
    app.workflow = sequence(
        {parallel({task("Fw"), task("Fr")}), task("Fz")});

    auto spec = specPlatform(app, {}, 0);
    auto* controller = spec->specController();
    auto r = spec->invokeSync(app, Value::object({{"k", Value(7)}}));
    EXPECT_GT(controller->counters().value("spec.buffer_violations"), 0u)
        << "no buffer violation; the test is vacuous";
    ASSERT_TRUE(r.response.isArray()) << r.response.toString();
    EXPECT_EQ(r.response.toString(), "[7,7]");
    EXPECT_EQ(controller->liveInvocations(), 0u);
}

TEST(SpecController, SpecDepthLimitBoundsInFlightSpeculation)
{
    SpecConfig config;
    config.maxSpecDepth = 1;
    Application app = memoChain();
    auto one = specPlatform(app, config, 40);
    SpecConfig wide;
    wide.maxSpecDepth = 12;
    auto many = specPlatform(app, wide, 40);
    // Both are correct; the narrow window is slower or equal.
    const double ms_one = meanResponseMs(*one, app, 20);
    const double ms_many = meanResponseMs(*many, app, 20);
    EXPECT_GE(ms_one, ms_many * 0.99);
}

TEST(SpecController, ImplicitCalleePredictedAndAdopted)
{
    auto registry = makeAllSuites();
    const Application& app = registry->get("TcktApp");
    PlatformOptions options;
    options.speculative = true;
    options.seed = 3;
    FaasPlatform platform(options);
    platform.deploy(app);
    platform.train(app, 30);
    auto r = platform.invokeSync(app, app.inputGen(platform.inputRng()));
    EXPECT_GT(r.speculativeLaunches, 0u);
    EXPECT_GT(r.memoHits, 0u);
    EXPECT_EQ(r.functionsExecuted, r.executedSequence.size());
}

TEST(SpecController, TablesSurviveAcrossInvocations)
{
    Application app = memoChain();
    auto spec = specPlatform(app, {}, 0);
    (void)spec->invokeSync(app, Value::object({{"k", Value(1)}}));
    const auto rows = spec->specController()->memoStore().totalRows();
    EXPECT_GT(rows, 0u);
    (void)spec->invokeSync(app, Value::object({{"k", Value(1)}}));
    // Second identical request hits the tables built by the first.
    EXPECT_GT(spec->specController()->memoStore().overallHitRate(), 0.0);
}

TEST(SpecController, RejectsWhenControllerBackedUp)
{
    PlatformOptions options;
    options.speculative = true;
    options.cluster.admissionQueueLimit = 0;
    FaasPlatform platform(options);
    Application app = memoChain();
    platform.deploy(app);
    Fleet& fleet = platform.cluster().fleet();
    for (std::uint32_t i = 0;
         i < fleet.clusterConfig().controllerThreads + 2; ++i) {
        fleet.controller().submit(msToTicks(50.0), []() {});
    }
    bool rejected = false;
    platform.invoke(app, Value::object({{"k", Value(1)}}),
                    [&](InvocationResult r) { rejected = r.rejected; });
    platform.sim().events().run();
    EXPECT_TRUE(rejected);
}

/**
 * Branch app whose every handler snapshots the controller's live
 * generation-tagged slot handles into @p captured. The condition
 * function itself snapshots too, so captures happen on every path —
 * including runs where the speculated branch is squashed before its
 * handler body ever evaluates.
 */
Application
handleCaptureApp(std::shared_ptr<std::vector<SlotHandle>> captured,
                 std::shared_ptr<SpecController*> ctrl)
{
    const auto snap = [captured, ctrl]() {
        if (*ctrl != nullptr) {
            const auto hs = (*ctrl)->liveSlotHandles();
            captured->insert(captured->end(), hs.begin(), hs.end());
        }
    };
    Application app;
    app.name = "aba-spec";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    app.functions.push_back(worker("Xc", 5.0, [snap](const Env& e) {
        snap();
        return e.input.at("b0");
    }));
    app.functions.push_back(worker("Xt", 5.0, [snap](const Env&) {
        snap();
        return Value("then");
    }));
    app.functions.push_back(worker("Xe", 5.0, [snap](const Env&) {
        snap();
        return Value("else");
    }));
    app.workflow = when("Xc", task("Xt"), task("Xe"));
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["b0"] = Value(rng.bernoulli(0.95));
        return v;
    };
    return app;
}

TEST(SpecController, StaleSlotHandlesMissAfterSquashRewalkAndCommit)
{
    // Handles captured mid-run — while speculation is in flight —
    // must miss once their slots are squashed (mispredicted branch),
    // re-walked, or committed, and must keep missing after later
    // invocations recycle the same indexes: the generation tag is
    // the ABA guard.
    auto captured = std::make_shared<std::vector<SlotHandle>>();
    auto ctrl = std::make_shared<SpecController*>(nullptr);
    Application app = handleCaptureApp(captured, ctrl);
    auto platform = specPlatform(app, {}, 30);
    *ctrl = &dynamic_cast<SpecController&>(platform->engine());

    // Training biased b0 heavily true; b0=false mispredicts the
    // then-branch, squashing the speculated Xt and re-walking to Xe.
    Value wrong = Value::object({});
    wrong["b0"] = Value(false);
    InvocationResult r = platform->invokeSync(app, std::move(wrong));
    EXPECT_EQ(r.response.asString(), "else");
    EXPECT_GT(r.squashes, 0u) << "misprediction should have squashed";
    ASSERT_FALSE(captured->empty());
    EXPECT_EQ((*ctrl)->liveInvocations(), 0u);
    for (SlotHandle h : *captured) {
        EXPECT_TRUE(static_cast<bool>(h));
        EXPECT_FALSE((*ctrl)->slotHandleResolves(h))
            << "slot " << h.index << "@" << h.gen
            << " should be stale after the run";
    }

    // Drive more invocations through the recycled indexes. The old
    // handles must still miss even while a *new* occupant of the
    // same index is live — and that occupant's generation is
    // strictly newer.
    const std::vector<SlotHandle> old = *captured;
    captured->clear();
    for (int i = 0; i < 10; ++i)
        platform->invokeSync(app, app.inputGen(platform->inputRng()));
    ASSERT_FALSE(captured->empty());
    bool reused = false;
    for (SlotHandle h : old) {
        EXPECT_FALSE((*ctrl)->slotHandleResolves(h));
        for (SlotHandle fresh : *captured) {
            if (fresh.index != h.index)
                continue;
            reused = true;
            EXPECT_GT(fresh.gen, h.gen)
                << "recycled index must carry a newer generation";
        }
    }
    EXPECT_TRUE(reused)
        << "expected later invocations to recycle slot indexes";
}

TEST(SpecController, StaleSlotHandlesMissAfterGiveUpTeardown)
{
    // Retries exhausted: failInvocation tears the whole pipeline
    // down. Handles captured before the give-up must miss afterwards
    // exactly like squash/commit ones do.
    auto captured = std::make_shared<std::vector<SlotHandle>>();
    auto ctrl = std::make_shared<SpecController*>(nullptr);
    Application app = handleCaptureApp(captured, ctrl);

    PlatformOptions options;
    options.speculative = true;
    options.seed = 7;
    FaultRule rule;
    rule.kind = FaultKind::ContainerCrash;
    rule.function = "Xe";
    rule.phase = CrashPhase::MidExecution;
    rule.budget = kUnlimitedBudget;
    rule.probability = 1.0;
    options.faultPlan.rules.push_back(rule);
    options.faultPlan.maxAttempts = 2;
    auto platform = std::make_unique<FaasPlatform>(options);
    platform->deploy(app);
    *ctrl = &dynamic_cast<SpecController&>(platform->engine());

    // b0=false routes onto Xe, which crashes on every attempt until
    // the controller gives up.
    Value input = Value::object({});
    input["b0"] = Value(false);
    platform->invokeSync(app, std::move(input));
    ASSERT_FALSE(captured->empty());
    EXPECT_EQ((*ctrl)->liveInvocations(), 0u)
        << "give-up must fully tear the invocation down";
    for (SlotHandle h : *captured)
        EXPECT_FALSE((*ctrl)->slotHandleResolves(h))
            << "slot " << h.index << "@" << h.gen
            << " survived the give-up teardown";
}

/**
 * Sixteen-deep pass-through chain behind one heavily biased branch:
 * with a wide speculation window the whole chain launches behind the
 * unresolved branch, so a wrong prediction squashes the entire
 * speculated suffix in one cascade.
 */
Application
deepCascadeApp()
{
    Application app;
    app.name = "cascade";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    // Slow condition, fast chain: the chain runs deep behind the
    // still-unresolved branch before the verdict arrives.
    app.functions.push_back(condFunction("Dc", "b0", 60.0));
    std::vector<WorkflowNode> chain;
    for (int i = 0; i < 16; ++i) {
        const std::string name = strFormat("D%02d", i);
        app.functions.push_back(worker(name, 2.0, fns::passInput()));
        chain.push_back(task(name));
    }
    app.functions.push_back(worker("Dalt", 3.0, [](const Env&) {
        return Value("alt");
    }));
    app.workflow = when("Dc", sequence(std::move(chain)), task("Dalt"));
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["b0"] = Value(rng.bernoulli(0.97));
        return v;
    };
    return app;
}

TEST(SpecController, DeepCascadeSquashDrainsCleanly)
{
    // Regression for the squash path's cost and bookkeeping on deep
    // victim sets: a single mispredicted branch kills a 16-deep
    // speculated suffix. The squash loop's internal invariants — the
    // tail-identity suffix pop and the incremental live-speculation
    // counter — assert on every victim, so a bookkeeping break dies
    // here rather than producing a silently wrong pipeline.
    Application app = deepCascadeApp();
    SpecConfig config;
    config.maxSpecDepth = 32;
    auto spec = specPlatform(app, config, 30);
    auto* controller = spec->specController();

    Value wrong = Value::object({});
    wrong["b0"] = Value(false);
    InvocationResult r = spec->invokeSync(app, std::move(wrong));
    EXPECT_EQ(r.response.asString(), "alt");
    EXPECT_GT(r.squashes, 0u) << "misprediction must squash";
    EXPECT_GE(r.speculativeLaunches, 8u)
        << "the chain should have speculated deep behind the branch";
    EXPECT_EQ(controller->liveInvocations(), 0u);
    EXPECT_TRUE(controller->liveSlotHandles().empty())
        << "a deep cascade must not leak pipeline slots";

    // The structures stay coherent for later traffic through the
    // same (recycled) pipeline state.
    for (int i = 0; i < 5; ++i) {
        auto ok = spec->invokeSync(app, app.inputGen(spec->inputRng()));
        EXPECT_FALSE(ok.response.isNull());
    }
    EXPECT_EQ(controller->liveInvocations(), 0u);
}

/**
 * Implicit two-level call tree — root calls a middle service which
 * calls a leaf — whose middle tier crashes mid-execution at random.
 * Crash recovery squashes the adopted callee (and any adopted
 * descendants) and relaunches it under the surviving caller; with
 * trained callee speculation the relaunch interleaves with squashed
 * pending-callee predictions, the path the pipeline suffix-pop
 * invariant must absorb.
 */
Application
adoptedRelaunchApp()
{
    Application app;
    app.name = "adopt";
    app.suite = "test";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "ARoot";

    FunctionDef root;
    root.name = "ARoot";
    root.body.push_back(Op::compute(msToTicks(3.0)));
    root.body.push_back(Op::call("AMid", fns::inputField("k"), "m"));
    root.body.push_back(Op::call("ATail", fns::inputField("k"), "t"));
    root.output = [](const Env& e) {
        Value out = Value::object({});
        out["m"] = e.var("m");
        out["t"] = e.var("t");
        return out;
    };
    app.functions.push_back(std::move(root));

    // Speculative launches may run on predicted (possibly null)
    // inputs before validation, so every handler tolerates them —
    // as the real workload suites do.
    const auto intOr = [](const Value& v, std::int64_t fb) {
        return v.isInt() ? v.asInt() : fb;
    };
    FunctionDef mid;
    mid.name = "AMid";
    mid.body.push_back(Op::compute(msToTicks(4.0)));
    mid.body.push_back(Op::call("ALeaf", fns::passInput(), "l"));
    mid.body.push_back(Op::compute(msToTicks(4.0)));
    mid.output = [intOr](const Env& e) {
        return Value(intOr(e.var("l"), 0) + 1);
    };
    app.functions.push_back(std::move(mid));

    app.functions.push_back(worker("ALeaf", 5.0, [intOr](const Env& e) {
        return Value(intOr(e.input, 0) * 2);
    }));
    app.functions.push_back(worker("ATail", 4.0, [intOr](const Env& e) {
        return Value(intOr(e.input, 0) + 100);
    }));
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["k"] = Value(rng.uniformInt(std::int64_t{0}, std::int64_t{3}));
        return v;
    };
    return app;
}

TEST(SpecController, AdoptedCalleeRelaunchAfterMidExecutionCrash)
{
    Application app = adoptedRelaunchApp();
    PlatformOptions options;
    options.speculative = true;
    options.seed = 11;
    FaultRule rule;
    rule.kind = FaultKind::ContainerCrash;
    rule.function = "AMid";
    rule.phase = CrashPhase::MidExecution;
    rule.budget = kUnlimitedBudget;
    rule.probability = 0.1;
    options.faultPlan.rules.push_back(rule);
    options.faultPlan.maxAttempts = 8;
    auto platform = std::make_unique<FaasPlatform>(options);
    platform->deploy(app);
    platform->train(app, 30);
    auto* controller = platform->specController();

    // Trained call graph: AMid / ATail / ALeaf launch speculatively
    // and are adopted when the real call arrives; the random crashes
    // then tear adopted slots out mid-flight and relaunch them.
    ASSERT_GT(controller->counters().value("spec.speculative_launches"),
              0u)
        << "callee speculation never engaged; the test is vacuous";
    for (int i = 0; i < 25; ++i) {
        Value input = Value::object({});
        const std::int64_t k = i % 4;
        input["k"] = Value(k);
        InvocationResult r = platform->invokeSync(app, std::move(input));
        ASSERT_TRUE(r.response.isObject()) << r.response.toString();
        ASSERT_TRUE(r.response.at("m").isInt()) << r.response.toString();
        ASSERT_EQ(r.response.at("m").asInt(), k * 2 + 1)
            << "crash recovery produced a wrong callee result";
        ASSERT_EQ(r.response.at("t").asInt(), k + 100);
        EXPECT_EQ(controller->liveInvocations(), 0u);
    }
    EXPECT_GT(platform->faultInjector()->injected(
                  FaultKind::ContainerCrash), 0u)
        << "no crash ever fired; the test is vacuous";
    EXPECT_GT(controller->counters().value("spec.squashes"), 0u)
        << "crash recovery should squash the adopted subtree";
    EXPECT_TRUE(controller->liveSlotHandles().empty());
}

TEST(SpecController, CalleeRelaunchKeepsItsCallSite)
{
    // A crashed adopted callee is relaunched under its surviving
    // caller at its own call site, order.back(). ATail is the root's
    // second call (site 1): relaunched anywhere else it would commit
    // out of program order, and the executed sequence shows it.
    Application app = adoptedRelaunchApp();
    PlatformOptions options;
    options.speculative = true;
    options.seed = 11;
    FaultRule rule;
    rule.kind = FaultKind::ContainerCrash;
    rule.function = "ATail";
    rule.phase = CrashPhase::MidExecution;
    rule.budget = kUnlimitedBudget;
    rule.probability = 0.3;
    options.faultPlan.rules.push_back(rule);
    options.faultPlan.maxAttempts = 8;
    auto platform = std::make_unique<FaasPlatform>(options);
    platform->deploy(app);
    platform->train(app, 10);

    const std::vector<std::string> inOrder = {"ARoot", "AMid", "ALeaf",
                                              "ATail"};
    for (int i = 0; i < 12; ++i) {
        Value input = Value::object({});
        input["k"] = Value(std::int64_t{i % 4});
        InvocationResult r = platform->invokeSync(app, std::move(input));
        ASSERT_EQ(r.executedSequence, inOrder) << "request " << i;
        ASSERT_EQ(r.response.at("t").asInt(), i % 4 + 100);
    }
    EXPECT_GT(platform->faultInjector()->injected(
                  FaultKind::ContainerCrash), 0u)
        << "no crash ever fired; the test is vacuous";
}

} // namespace
} // namespace specfaas
