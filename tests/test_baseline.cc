/** @file End-to-end tests of the conventional (baseline) engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "baseline/baseline_controller.hh"
#include "platform/platform.hh"
#include "workloads/app_helpers.hh"
#include "workloads/suites.hh"

namespace specfaas {
namespace {

/** Tiny explicit app: seq(double, when(positive, yes, no)). */
Application
tinyExplicit()
{
    Application app;
    app.name = "tiny";
    app.suite = "test";
    app.type = WorkflowType::Explicit;

    FunctionDef dbl = worker("Tdouble", 2.0, [](const Env& e) {
        return Value(e.input.at("x").asInt() * 2);
    });
    app.functions.push_back(std::move(dbl));

    FunctionDef positive = worker("Tpositive", 1.0, [](const Env& e) {
        return Value(e.input.asInt() > 0);
    });
    app.functions.push_back(std::move(positive));

    app.functions.push_back(worker("Tyes", 1.0, [](const Env& e) {
        Value out = Value::object({});
        out["sign"] = Value("pos");
        out["v"] = e.input;
        return out;
    }));
    app.functions.push_back(worker("Tno", 1.0, [](const Env& e) {
        Value out = Value::object({});
        out["sign"] = Value("neg");
        out["v"] = e.input;
        return out;
    }));

    app.workflow = sequence(
        {task("Tdouble"), when("Tpositive", task("Tyes"), task("Tno"))});
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["x"] = Value(rng.uniformInt(std::int64_t{-5}, std::int64_t{5}));
        return v;
    };
    return app;
}

/** Tiny implicit app: root calls a square service. */
Application
tinyImplicit()
{
    Application app;
    app.name = "tiny-implicit";
    app.suite = "test";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "Troot";

    FunctionDef root;
    root.name = "Troot";
    root.body.push_back(Op::compute(msToTicks(1.0)));
    root.body.push_back(Op::call(
        "Tsquare", [](const Env& e) { return e.input.at("x"); }, "sq"));
    root.output = [](const Env& e) {
        Value out = Value::object({});
        out["sq"] = e.var("sq");
        return out;
    };
    app.functions.push_back(std::move(root));

    app.functions.push_back(worker("Tsquare", 1.0, [](const Env& e) {
        return Value(e.input.asInt() * e.input.asInt());
    }));

    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["x"] = Value(rng.uniformInt(std::int64_t{0}, std::int64_t{9}));
        return v;
    };
    return app;
}

TEST(Baseline, SequencePropagatesOutputs)
{
    FaasPlatform platform;
    Application app = tinyExplicit();
    platform.deploy(app);
    Value input = Value::object({{"x", Value(3)}});
    auto r = platform.invokeSync(app, input);
    EXPECT_EQ(r.response.at("sign").asString(), "pos");
    EXPECT_EQ(r.response.at("v").asInt(), 6);
    EXPECT_EQ(r.functionsExecuted, 3u);
    EXPECT_EQ(r.executedSequence,
              (std::vector<std::string>{"Tdouble", "Tpositive", "Tyes"}));
}

TEST(Baseline, BranchFalseArmTaken)
{
    FaasPlatform platform;
    Application app = tinyExplicit();
    platform.deploy(app);
    auto r = platform.invokeSync(app,
                                 Value::object({{"x", Value(-2)}}));
    EXPECT_EQ(r.response.at("sign").asString(), "neg");
    EXPECT_EQ(r.response.at("v").asInt(), -4);
}

TEST(Baseline, BranchTargetInheritsBranchInput)
{
    // Tyes receives the *branch's input* (Tdouble's output), not the
    // boolean the condition function returned (§II-A).
    FaasPlatform platform;
    Application app = tinyExplicit();
    platform.deploy(app);
    auto r = platform.invokeSync(app, Value::object({{"x", Value(4)}}));
    EXPECT_EQ(r.response.at("v").asInt(), 8);
}

TEST(Baseline, ImplicitCallBlocksAndReturns)
{
    FaasPlatform platform;
    Application app = tinyImplicit();
    platform.deploy(app);
    auto r = platform.invokeSync(app, Value::object({{"x", Value(7)}}));
    EXPECT_EQ(r.response.at("sq").asInt(), 49);
    EXPECT_EQ(r.functionsExecuted, 2u);
    // Program-order sequence: caller first, callee after.
    EXPECT_EQ(r.executedSequence,
              (std::vector<std::string>{"Troot", "Tsquare"}));
}

TEST(Baseline, TimingIncludesPlatformAndTransferOverheads)
{
    FaasPlatform platform;
    Application app = tinyExplicit();
    platform.deploy(app);
    auto r = platform.invokeSync(app, Value::object({{"x", Value(1)}}));
    const auto& cfg = platform.cluster().fleet().clusterConfig();
    // Three launches worth of platform overhead.
    EXPECT_EQ(r.platformOverhead, 3 * cfg.platformOverhead);
    // Three conductor steps: double→when, when→arm, and the final
    // completion notification back through the controller.
    EXPECT_EQ(r.transferOverhead, 3 * cfg.conductorOverhead);
    EXPECT_GT(r.execution, 0);
    EXPECT_EQ(r.containerCreation, 0); // prewarmed
    EXPECT_GT(r.responseTime(),
              r.platformOverhead + r.transferOverhead);
}

TEST(Baseline, ColdStartChargesContainerCreation)
{
    PlatformOptions options;
    options.prewarmPerFunction = 0;
    FaasPlatform platform(options);
    Application app = tinyExplicit();
    platform.deploy(app);
    auto r = platform.invokeSync(app, Value::object({{"x", Value(1)}}));
    const auto& cfg = platform.cluster().fleet().clusterConfig();
    EXPECT_EQ(r.containerCreation, 3 * cfg.containerCreation);
    EXPECT_EQ(r.runtimeSetup, 3 * cfg.runtimeSetup);
}

TEST(Baseline, ParallelArmsJoinInOrder)
{
    Application app;
    app.name = "par";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    app.functions.push_back(worker("Pslow", 20.0, [](const Env&) {
        return Value("slow");
    }));
    app.functions.push_back(worker("Pfast", 1.0, [](const Env&) {
        return Value("fast");
    }));
    app.functions.push_back(worker("Pjoin", 1.0, fns::passInput()));
    app.workflow = sequence(
        {parallel({task("Pslow"), task("Pfast")}), task("Pjoin")});

    FaasPlatform platform;
    platform.deploy(app);
    auto r = platform.invokeSync(app, Value());
    // Join output ordered by arm index, not completion time.
    ASSERT_TRUE(r.response.isArray());
    EXPECT_EQ(r.response.asArray()[0].asString(), "slow");
    EXPECT_EQ(r.response.asArray()[1].asString(), "fast");
}

TEST(Baseline, ParallelArmsOverlapInTime)
{
    Application app;
    app.name = "par2";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    for (const char* name : {"Qa", "Qb"}) {
        FunctionDef f = worker(name, 50.0, fns::passInput());
        f.computeCv = 0.0;
        app.functions.push_back(std::move(f));
    }
    app.workflow = parallel({task("Qa"), task("Qb")});

    FaasPlatform platform;
    platform.deploy(app);
    auto r = platform.invokeSync(app, Value());
    // Two 50 ms functions in parallel: well under 100 ms + overheads.
    EXPECT_LT(ticksToMs(r.responseTime()), 80.0);
}

TEST(Baseline, ConcurrentInvocationsDoNotInterfere)
{
    FaasPlatform platform;
    Application app = tinyExplicit();
    platform.deploy(app);
    std::vector<InvocationResult> results;
    for (int i = 0; i < 10; ++i) {
        Value input = Value::object({{"x", Value(i - 5)}});
        platform.invoke(app, input, [&](InvocationResult r) {
            results.push_back(std::move(r));
        });
    }
    platform.sim().events().run();
    ASSERT_EQ(results.size(), 10u);
    for (const auto& r : results) {
        EXPECT_TRUE(r.response.isObject());
        EXPECT_EQ(r.functionsExecuted, 3u);
    }
}

TEST(Baseline, RejectsWhenControllerBackedUp)
{
    PlatformOptions options;
    options.cluster.admissionQueueLimit = 0;
    FaasPlatform platform(options);
    Application app = tinyExplicit();
    platform.deploy(app);
    // Fill the controller queue.
    Fleet& fleet = platform.cluster().fleet();
    for (std::uint32_t i = 0;
         i < fleet.clusterConfig().controllerThreads + 2; ++i) {
        fleet.controller().submit(msToTicks(50.0), []() {});
    }
    bool rejected = false;
    platform.invoke(app, Value::object({{"x", Value(1)}}),
                    [&](InvocationResult r) { rejected = r.rejected; });
    platform.sim().events().run();
    EXPECT_TRUE(rejected);
}

/**
 * Single-worker app whose handler snapshots the baseline
 * controller's live invocation-record handles into @p captured.
 */
Application
invCaptureApp(std::shared_ptr<std::vector<SlotHandle>> captured,
              std::shared_ptr<BaselineController*> ctrl)
{
    Application app;
    app.name = "aba-base";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    app.functions.push_back(
        worker("Bwork", 2.0, [captured, ctrl](const Env& e) {
            if (*ctrl != nullptr) {
                const auto hs = (*ctrl)->liveInvocationHandles();
                captured->insert(captured->end(), hs.begin(),
                                 hs.end());
            }
            return Value(e.input.at("x").asInt() + 1);
        }));
    app.workflow = task("Bwork");
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["x"] = Value(rng.uniformInt(std::int64_t{0}, std::int64_t{9}));
        return v;
    };
    return app;
}

TEST(Baseline, StaleInvocationHandlesMissAfterCompletion)
{
    // Invocation records live in a generation-tagged arena; a handle
    // captured mid-run (the shape deferred work holds across
    // conductor hops and retry timers) must miss once the invocation
    // finishes, and keep missing after later requests recycle the
    // index — the generation is the ABA guard.
    auto captured = std::make_shared<std::vector<SlotHandle>>();
    auto ctrl = std::make_shared<BaselineController*>(nullptr);
    Application app = invCaptureApp(captured, ctrl);
    PlatformOptions options;
    options.speculative = false;
    options.seed = 7;
    FaasPlatform platform(options);
    platform.deploy(app);
    *ctrl = &dynamic_cast<BaselineController&>(platform.engine());

    InvocationResult r =
        platform.invokeSync(app, Value::object({{"x", Value(1)}}));
    EXPECT_EQ(r.response.asInt(), 2);
    ASSERT_FALSE(captured->empty());
    EXPECT_EQ((*ctrl)->liveInvocations(), 0u);
    for (SlotHandle h : *captured) {
        EXPECT_TRUE(static_cast<bool>(h));
        EXPECT_FALSE((*ctrl)->invocationHandleResolves(h))
            << "record " << h.index << "@" << h.gen
            << " should be stale after completion";
    }

    // Recycle the index with fresh requests; old handles still miss
    // and the new occupant of the index carries a newer generation.
    const std::vector<SlotHandle> old = *captured;
    captured->clear();
    for (int i = 0; i < 5; ++i)
        platform.invokeSync(app, app.inputGen(platform.inputRng()));
    ASSERT_FALSE(captured->empty());
    bool reused = false;
    for (SlotHandle h : old) {
        EXPECT_FALSE((*ctrl)->invocationHandleResolves(h));
        for (SlotHandle fresh : *captured) {
            if (fresh.index != h.index)
                continue;
            reused = true;
            EXPECT_GT(fresh.gen, h.gen)
                << "recycled index must carry a newer generation";
        }
    }
    EXPECT_TRUE(reused)
        << "expected later requests to recycle the record index";
}

TEST(Baseline, StaleInvocationHandlesMissAfterFaultGiveUp)
{
    // Retries exhausted: failInvocation kills the remaining work and
    // answers the error. The teardown path must bump the generation
    // exactly like normal completion does.
    auto captured = std::make_shared<std::vector<SlotHandle>>();
    auto ctrl = std::make_shared<BaselineController*>(nullptr);
    // Capture in a healthy first stage, then crash the second stage
    // on every attempt — the capture is guaranteed to have happened
    // by the time the give-up fires.
    Application app = invCaptureApp(captured, ctrl);
    app.functions.push_back(worker(
        "Bfail", 2.0, [](const Env&) { return Value("unreached"); }));
    app.workflow = sequence({task("Bwork"), task("Bfail")});
    PlatformOptions options;
    options.speculative = false;
    options.seed = 7;
    FaultRule rule;
    rule.kind = FaultKind::ContainerCrash;
    rule.function = "Bfail";
    rule.phase = CrashPhase::MidExecution;
    rule.budget = kUnlimitedBudget;
    rule.probability = 1.0;
    options.faultPlan.rules.push_back(rule);
    options.faultPlan.maxAttempts = 2;
    FaasPlatform platform(options);
    platform.deploy(app);
    *ctrl = &dynamic_cast<BaselineController&>(platform.engine());

    platform.invokeSync(app, Value::object({{"x", Value(1)}}));
    ASSERT_FALSE(captured->empty());
    EXPECT_EQ((*ctrl)->liveInvocations(), 0u)
        << "give-up must fully tear the invocation down";
    for (SlotHandle h : *captured)
        EXPECT_FALSE((*ctrl)->invocationHandleResolves(h))
            << "record " << h.index << "@" << h.gen
            << " survived the fault give-up";
}

/**
 * Implicit app whose callees finish out of issue order: even inputs
 * call a slow service, odd inputs a fast one, then every root makes
 * a second call. Roots issued later with odd inputs get their first
 * callee back before earlier even ones.
 */
Application
outOfOrderImplicit()
{
    Application app;
    app.name = "oo-implicit";
    app.suite = "test";
    app.type = WorkflowType::Implicit;
    app.rootFunction = "Oroot";

    const auto x = [](const Env& e) { return e.input.at("x"); };
    const auto even = [](const Env& e) {
        return e.input.at("x").asInt() % 2 == 0;
    };
    FunctionDef root;
    root.name = "Oroot";
    root.body.push_back(Op::compute(msToTicks(1.0)));
    root.body.push_back(Op::callIf(even, "Oslow", x, "first"));
    root.body.push_back(Op::callIf(
        [even](const Env& e) { return !even(e); }, "Ofast", x, "first"));
    root.body.push_back(Op::call("Oinc", x, "second"));
    root.output = [](const Env& e) {
        Value out = Value::object({});
        out["first"] = e.var("first");
        out["second"] = e.var("second");
        return out;
    };
    app.functions.push_back(std::move(root));
    app.functions.push_back(worker("Oslow", 30.0, [](const Env& e) {
        return Value(e.input.asInt() * 10);
    }));
    app.functions.push_back(worker("Ofast", 1.0, [](const Env& e) {
        return Value(e.input.asInt() * 100);
    }));
    app.functions.push_back(worker("Oinc", 2.0, [](const Env& e) {
        return Value(e.input.asInt() + 1);
    }));
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["x"] = Value(rng.uniformInt(std::int64_t{0}, std::int64_t{9}));
        return v;
    };
    return app;
}

TEST(Baseline, ConcurrentCalleeReturnsOutOfOrderMatchSerial)
{
    // Callee returns live in each invocation's own record. With many
    // implicit requests in flight, callees complete out of issue
    // order and one callee crashes mid-execution and is retried; every
    // response must still equal the serial run's, and finish() asserts
    // that each record's callee-return map is empty by then.
    constexpr int kRequests = 12;
    Application app = outOfOrderImplicit();
    const auto input = [](int i) {
        return Value::object({{"x", Value(i)}});
    };

    std::vector<Value> serial;
    {
        PlatformOptions options;
        options.speculative = false;
        FaasPlatform platform(options);
        platform.deploy(app);
        for (int i = 0; i < kRequests; ++i)
            serial.push_back(platform.invokeSync(app, input(i)).response);
    }

    PlatformOptions options;
    options.speculative = false;
    FaultRule crash;
    crash.kind = FaultKind::ContainerCrash;
    crash.function = "Oslow";
    crash.phase = CrashPhase::MidExecution;
    crash.budget = 1;
    crash.probability = 1.0;
    options.faultPlan.rules.push_back(crash);
    FaasPlatform platform(options);
    platform.deploy(app);
    auto& ctrl = dynamic_cast<BaselineController&>(platform.engine());

    std::vector<Value> responses(kRequests);
    std::vector<int> finishOrder;
    for (int i = 0; i < kRequests; ++i) {
        platform.invoke(app, input(i), [&, i](InvocationResult r) {
            responses[static_cast<std::size_t>(i)] = std::move(r.response);
            finishOrder.push_back(i);
        });
    }
    // Sample the per-record maps while the requests are in flight.
    std::size_t maxRecordsWaiting = 0;
    std::size_t maxPending = 0;
    for (Tick t = kMillisecond / 2; t < 200 * kMillisecond;
         t += kMillisecond / 2) {
        platform.sim().events().schedule(t, [&]() {
            std::size_t waiting = 0;
            std::size_t pending = 0;
            for (SlotHandle h : ctrl.liveInvocationHandles()) {
                const std::size_t n = ctrl.pendingCalleeReturns(h);
                EXPECT_LE(n, 1u) << "a root has one call out at a time";
                waiting += n > 0 ? 1 : 0;
                pending += n;
            }
            maxRecordsWaiting = std::max(maxRecordsWaiting, waiting);
            maxPending = std::max(maxPending, pending);
        });
    }
    platform.sim().events().run();

    ASSERT_EQ(finishOrder.size(), static_cast<std::size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i)
        EXPECT_EQ(responses[static_cast<std::size_t>(i)],
                  serial[static_cast<std::size_t>(i)])
            << "request " << i;
    EXPECT_EQ(ctrl.liveInvocations(), 0u);
    ASSERT_NE(platform.faultInjector(), nullptr);
    EXPECT_EQ(platform.faultInjector()->retries(), 1u);
    // Several records held a pending return at once, and the fast
    // callees overtook the slow ones issued before them.
    EXPECT_GT(maxRecordsWaiting, 1u);
    EXPECT_EQ(maxPending, maxRecordsWaiting);
    EXPECT_NE(finishOrder.front(), 0) << "request 0 waits on Oslow";
}

} // namespace
} // namespace specfaas
