/**
 * @file
 * Chaos differential testing: random applications under random
 * deterministic fault plans.
 *
 * Four invariants, checked against the baseline engine running the
 * SAME fault plan:
 *
 *   1. Equivalence — a SpecFaaS run produces exactly the baseline's
 *      responses and final global-store state.
 *   2. Liveness — every request terminates (no recovery livelock),
 *      enforced with a bounded event loop instead of a test timeout.
 *   3. Replayability — the same seed yields a byte-identical Chrome
 *      trace, so any chaos failure replays exactly.
 *   4. Isolation — no committed effect survives from a squashed or
 *      crashed speculative function (checked both by the store
 *      fingerprint equivalence and by a targeted poison-write app).
 *
 * Every fault kind also gets a targeted test proving, through the
 * injector's counters, that the fault actually fired — a chaos suite
 * whose faults never trigger is green but worthless.
 *
 * Failing (app-seed, plan-seed) pairs belong in
 * tests/corpus/chaos_seeds.txt (see the header there); the corpus is
 * replayed by ChaosCorpus.ReplayAllEntries below.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "fuzz_apps.hh"
#include "obs/trace_export.hh"
#include "platform/platform.hh"
#include "sim/sim_context.hh"
#include "workloads/app_helpers.hh"

namespace specfaas {
namespace {

using fuzz::AppFuzzer;
using fuzz::ChaosOutcome;
using fuzz::runChaos;

SpecConfig
aggressiveConfig()
{
    SpecConfig aggressive;
    aggressive.bpDeadBand = 0.0;
    aggressive.stallThreshold = 2;
    return aggressive;
}

/** Build the random chaos app of one (kind, appSeed) pair. */
Application
chaosApp(bool explicit_app, std::uint64_t app_seed)
{
    AppFuzzer fuzzer(app_seed * 2654435761ull + 101);
    return explicit_app ? fuzzer.explicitApp() : fuzzer.implicitApp();
}

/** Build the random fault plan of one (app, planSeed) pair. */
FaultPlan
chaosPlan(const Application& app, std::uint64_t plan_seed)
{
    Rng plan_rng(plan_seed * 1000003ull + 29);
    return FaultPlan::random(plan_rng, fuzz::functionNames(app),
                             ClusterConfig{}.numNodes);
}

/**
 * Run one differential chaos case on both engines and assert the
 * liveness + equivalence invariants. On failure the plan's text spec
 * is printed so the case replays verbatim.
 */
void
expectChaosEquivalent(const Application& app, const FaultPlan& plan,
                      const std::string& label)
{
    ChaosOutcome base = runChaos(app, false, {}, 53, 10, plan);
    ChaosOutcome spec =
        runChaos(app, true, aggressiveConfig(), 53, 10, plan);

    ASSERT_TRUE(base.allTerminated)
        << label << ": baseline request hung under plan:\n"
        << plan.toSpec();
    ASSERT_TRUE(spec.allTerminated)
        << label << ": speculative request hung under plan:\n"
        << plan.toSpec();
    EXPECT_TRUE(base.quiet()) << label << ": baseline leaked "
                              << base.leftovers() << " under plan:\n"
                              << plan.toSpec();
    EXPECT_TRUE(spec.quiet()) << label << ": speculative leaked "
                              << spec.leftovers() << " under plan:\n"
                              << plan.toSpec();
    ASSERT_EQ(base.responses.size(), spec.responses.size()) << label;
    for (std::size_t i = 0; i < base.responses.size(); ++i) {
        ASSERT_EQ(base.responses[i].toString(),
                  spec.responses[i].toString())
            << label << " request " << i << " under plan:\n"
            << plan.toSpec();
    }
    EXPECT_EQ(base.fingerprint, spec.fingerprint)
        << label << ": store state diverged under plan:\n"
        << plan.toSpec();
}

void
runChaosCase(bool explicit_app, std::uint64_t app_seed,
             std::uint64_t plan_seed)
{
    const Application app = chaosApp(explicit_app, app_seed);
    const FaultPlan plan = chaosPlan(app, plan_seed);
    expectChaosEquivalent(
        app, plan,
        strFormat("%s app-seed %llu plan-seed %llu",
                  explicit_app ? "explicit" : "implicit",
                  static_cast<unsigned long long>(app_seed),
                  static_cast<unsigned long long>(plan_seed)));
}

// ---------------------------------------------------------------------
// Invariants 1, 2 and 4 at scale: 260 app seeds x 2 plan seeds.
// ---------------------------------------------------------------------

class ChaosEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ChaosEquivalence, RandomAppUnderRandomFaultsMatchesBaseline)
{
    const std::uint64_t seed = GetParam();
    for (std::uint64_t plan_idx = 0; plan_idx < 2; ++plan_idx)
        runChaosCase(seed % 2 == 0, seed, seed * 2 + plan_idx);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosEquivalence,
                         ::testing::Range<std::uint64_t>(0, 260));

// ---------------------------------------------------------------------
// Invariant 3: replayability.
// ---------------------------------------------------------------------

/**
 * One traced speculative chaos run, rendered to Chrome-trace JSON.
 * Each run gets a private SimContext, so no global resets are needed
 * between runs — that isolation is itself part of what this pins.
 */
std::string
tracedChaosJson(std::uint64_t seed)
{
    const Application app = chaosApp(/*explicit_app=*/true, seed);
    const FaultPlan plan = chaosPlan(app, seed);
    SimContext context;
    context.trace().enable(1u << 16);
    ChaosOutcome out = runChaos(app, true, aggressiveConfig(), 53, 6,
                                plan, 4, &context);
    EXPECT_TRUE(out.allTerminated);
    EXPECT_TRUE(out.quiet()) << out.leftovers();
    return obs::toChromeTraceJson(context.trace().snapshot());
}

TEST(ChaosDeterminism, SameSeedYieldsByteIdenticalTrace)
{
    for (std::uint64_t seed : {2ull, 7ull, 12ull}) {
        const std::string first = tracedChaosJson(seed);
        const std::string second = tracedChaosJson(seed);
        ASSERT_FALSE(first.empty());
        EXPECT_EQ(first, second) << "trace drift at seed " << seed;
    }
}

TEST(ChaosDeterminism, SameSeedYieldsIdenticalFaultCounters)
{
    const Application app = chaosApp(/*explicit_app=*/false, 9);
    const FaultPlan plan = chaosPlan(app, 9);
    ChaosOutcome first =
        runChaos(app, true, aggressiveConfig(), 53, 8, plan);
    ChaosOutcome second =
        runChaos(app, true, aggressiveConfig(), 53, 8, plan);
    EXPECT_TRUE(first.quiet()) << first.leftovers();
    EXPECT_TRUE(second.quiet()) << second.leftovers();
    EXPECT_EQ(first.faultsInjected, second.faultsInjected);
    EXPECT_EQ(first.retries, second.retries);
    EXPECT_EQ(first.gaveUp, second.gaveUp);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
}

// ---------------------------------------------------------------------
// Parallel-harness differential: running chaos cases through
// runSimTasks() with any job count must be indistinguishable from a
// serial run — same verdicts, same merged trace, same counters.
// ---------------------------------------------------------------------

/** Comparable digest of one chaos case (both engines). */
std::string
chaosCaseDigest(bool explicit_app, std::uint64_t app_seed,
                std::uint64_t plan_seed, SimContext& context)
{
    const Application app = chaosApp(explicit_app, app_seed);
    const FaultPlan plan = chaosPlan(app, plan_seed);
    const ChaosOutcome base =
        runChaos(app, false, {}, 53, 6, plan, 4, &context);
    const ChaosOutcome spec = runChaos(app, true, aggressiveConfig(),
                                       53, 6, plan, 4, &context);
    EXPECT_TRUE(base.quiet()) << base.leftovers();
    EXPECT_TRUE(spec.quiet()) << spec.leftovers();
    std::string digest = strFormat(
        "%s/%llu/%llu terminated=%d/%d faults=%llu/%llu fp=%llx/%llx",
        explicit_app ? "explicit" : "implicit",
        static_cast<unsigned long long>(app_seed),
        static_cast<unsigned long long>(plan_seed),
        base.allTerminated ? 1 : 0, spec.allTerminated ? 1 : 0,
        static_cast<unsigned long long>(base.faultsInjected),
        static_cast<unsigned long long>(spec.faultsInjected),
        static_cast<unsigned long long>(base.fingerprint),
        static_cast<unsigned long long>(spec.fingerprint));
    for (const Value& r : base.responses)
        digest += "\n  " + r.toString();
    for (const Value& r : spec.responses)
        digest += "\n  " + r.toString();
    return digest;
}

TEST(ChaosParallel, JobCountDoesNotChangeOutcomesOrArtifacts)
{
    auto run_batch = [](std::size_t jobs) {
        SimContext session;
        session.trace().enable(1u << 14);
        std::vector<std::function<std::string(SimContext&)>> tasks;
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
            tasks.push_back([seed](SimContext& context) {
                return chaosCaseDigest(seed % 2 == 0, seed, seed * 2,
                                       context);
            });
        }
        std::string all;
        for (const std::string& digest : runSimTasks<std::string>(
                 jobs, std::move(tasks), &session))
            all += digest + "\n";
        all += obs::toChromeTraceJson(session.trace().snapshot());
        all += session.counters().table();
        return all;
    };
    const std::string serial = run_batch(1);
    const std::string parallel = run_batch(4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------
// Targeted per-fault-kind coverage.
// ---------------------------------------------------------------------

/**
 * Two-task sequence whose bodies exercise every injectable op:
 * compute, a storage read of a seeded key, a storage write, and an
 * HTTP request. Each targeted plan below points one fault kind at it.
 */
Application
miniChaosApp()
{
    Application app;
    app.name = "chaos-mini";
    app.suite = "chaos";
    app.type = WorkflowType::Explicit;

    auto make = [](const char* name) {
        FunctionDef def;
        def.name = name;
        def.body.push_back(Op::compute(msToTicks(2.0)));
        def.body.push_back(Op::storageRead(
            [](const Env&) { return std::string("chaos:k0"); }, "r0"));
        def.body.push_back(Op::storageWrite(
            [name](const Env&) {
                return strFormat("chaos:w-%s", name);
            },
            [](const Env& e) {
                Value rec = Value::object({});
                rec["v"] = Value(intOr(e.input.at("salt"), 1) + 5);
                return rec;
            }));
        def.body.push_back(Op::http());
        def.output = [](const Env& e) {
            Value out = Value::object({});
            out["v"] = Value(
                (intOr(e.var("r0").isObject() ? e.var("r0").at("v")
                                              : Value(),
                       0) *
                     13 +
                 intOr(e.input.at("salt"), 0)) %
                1009);
            return out;
        };
        return def;
    };
    app.functions.push_back(make("CmA"));
    app.functions.push_back(make("CmB"));
    app.workflow = sequence({task("CmA"), task("CmB")});
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["salt"] = Value(rng.uniformInt(std::int64_t{0},
                                         std::int64_t{5}));
        return v;
    };
    app.seedStore = [](KvStore& store, Rng& rng) {
        store.put("chaos:k0",
                  Value::object({{"v", Value(rng.uniformInt(
                                           std::int64_t{0},
                                           std::int64_t{99}))}}));
    };
    return app;
}

/** One rule with ample retry headroom so recovery always succeeds. */
FaultPlan
onRulePlan(FaultRule rule)
{
    FaultPlan plan;
    plan.seed = 71;
    plan.maxAttempts = 16;
    plan.rules.push_back(std::move(rule));
    return plan;
}

/**
 * Run one targeted plan on both engines; assert @p kind actually
 * fired (in both: a fault the baseline never sees tests nothing) and
 * the runs stayed equivalent.
 */
void
expectKindFires(const FaultPlan& plan, FaultKind kind,
                std::uint32_t prewarm = 4)
{
    const Application app = miniChaosApp();
    ChaosOutcome base = runChaos(app, false, {}, 59, 6, plan, prewarm);
    ChaosOutcome spec = runChaos(app, true, aggressiveConfig(), 59, 6,
                                 plan, prewarm);
    ASSERT_TRUE(base.allTerminated);
    ASSERT_TRUE(spec.allTerminated);
    EXPECT_TRUE(base.quiet()) << base.leftovers();
    EXPECT_TRUE(spec.quiet()) << spec.leftovers();
    const auto idx = static_cast<std::size_t>(kind);
    EXPECT_GT(base.injectedByKind[idx], 0u)
        << faultKindName(kind) << " never fired in the baseline run";
    EXPECT_GT(spec.injectedByKind[idx], 0u)
        << faultKindName(kind) << " never fired in the SpecFaaS run";
    ASSERT_EQ(base.responses.size(), spec.responses.size());
    for (std::size_t i = 0; i < base.responses.size(); ++i) {
        ASSERT_EQ(base.responses[i].toString(),
                  spec.responses[i].toString())
            << faultKindName(kind) << " request " << i;
    }
    EXPECT_EQ(base.fingerprint, spec.fingerprint);
}

TEST(ChaosFaultKinds, ContainerCrashColdStartFires)
{
    FaultRule rule;
    rule.kind = FaultKind::ContainerCrash;
    rule.phase = CrashPhase::ColdStart;
    rule.budget = 2;
    // No warm pool: every acquisition cold-starts, so the cold-start
    // crash window is actually open.
    expectKindFires(onRulePlan(rule), FaultKind::ContainerCrash,
                    /*prewarm=*/0);
}

TEST(ChaosFaultKinds, ContainerCrashMidExecutionFires)
{
    FaultRule rule;
    rule.kind = FaultKind::ContainerCrash;
    rule.phase = CrashPhase::MidExecution;
    rule.budget = 2;
    expectKindFires(onRulePlan(rule), FaultKind::ContainerCrash);
}

TEST(ChaosFaultKinds, ContainerCrashAtCommitFires)
{
    FaultRule rule;
    rule.kind = FaultKind::ContainerCrash;
    rule.phase = CrashPhase::AtCommit;
    rule.budget = 2;
    expectKindFires(onRulePlan(rule), FaultKind::ContainerCrash);
}

TEST(ChaosFaultKinds, NodeFailureFires)
{
    FaultRule rule;
    rule.kind = FaultKind::NodeFailure;
    rule.node = 0;
    rule.atTick = msToTicks(1.0);
    rule.downtime = msToTicks(20.0);
    rule.budget = 1;
    expectKindFires(onRulePlan(rule), FaultKind::NodeFailure);
}

TEST(ChaosFaultKinds, StorageReadErrorFires)
{
    FaultRule rule;
    rule.kind = FaultKind::StorageReadError;
    rule.budget = 2;
    expectKindFires(onRulePlan(rule), FaultKind::StorageReadError);
}

TEST(ChaosFaultKinds, StorageWriteErrorFires)
{
    FaultRule rule;
    rule.kind = FaultKind::StorageWriteError;
    rule.budget = 2;
    expectKindFires(onRulePlan(rule), FaultKind::StorageWriteError);
}

TEST(ChaosFaultKinds, StorageDelayFires)
{
    FaultRule rule;
    rule.kind = FaultKind::StorageDelay;
    rule.extraDelay = msToTicks(1.0);
    rule.budget = 3;
    expectKindFires(onRulePlan(rule), FaultKind::StorageDelay);
}

TEST(ChaosFaultKinds, HttpFailureFires)
{
    FaultRule rule;
    rule.kind = FaultKind::HttpFailure;
    rule.budget = 2;
    expectKindFires(onRulePlan(rule), FaultKind::HttpFailure);
}

TEST(ChaosFaultKinds, StuckFunctionFires)
{
    FaultRule rule;
    rule.kind = FaultKind::StuckFunction;
    rule.budget = 2;
    expectKindFires(onRulePlan(rule), FaultKind::StuckFunction);
}

// ---------------------------------------------------------------------
// Give-up path + invariant 4 (no committed effect from a crashed
// function), checked on both engines through the store itself.
// ---------------------------------------------------------------------

/**
 * PoisonA commits a prefix write; PoisonB writes a sentinel and then
 * always crashes at commit. With a finite retry cap the request must
 * fail with the deterministic error response, the prefix write must
 * survive, and the sentinel must never reach the store.
 */
TEST(ChaosGiveUp, ExhaustedRetriesFailDeterministicallyWithoutLeaks)
{
    Application app;
    app.name = "chaos-poison";
    app.suite = "chaos";
    app.type = WorkflowType::Explicit;

    FunctionDef a;
    a.name = "PoisonA";
    a.body.push_back(Op::compute(msToTicks(1.0)));
    a.body.push_back(Op::storageWrite(
        [](const Env&) { return std::string("chaos:ok"); },
        [](const Env&) {
            return Value::object({{"v", Value(std::int64_t{1})}});
        }));
    a.output = [](const Env&) {
        return Value::object({{"v", Value(std::int64_t{1})}});
    };
    app.functions.push_back(std::move(a));

    FunctionDef b;
    b.name = "PoisonB";
    b.body.push_back(Op::storageWrite(
        [](const Env&) { return std::string("chaos:poison"); },
        [](const Env&) {
            return Value::object({{"v", Value(std::int64_t{13})}});
        }));
    b.body.push_back(Op::compute(msToTicks(1.0)));
    b.output = [](const Env&) {
        return Value::object({{"v", Value(std::int64_t{2})}});
    };
    app.functions.push_back(std::move(b));

    app.workflow = sequence({task("PoisonA"), task("PoisonB")});
    app.inputGen = [](Rng&) { return Value::object({}); };

    FaultPlan plan;
    plan.seed = 97;
    plan.maxAttempts = 3;
    FaultRule rule;
    rule.kind = FaultKind::ContainerCrash;
    rule.function = "PoisonB";
    rule.phase = CrashPhase::AtCommit;
    rule.budget = kUnlimitedBudget;
    plan.rules.push_back(rule);

    const std::string expected =
        FaultInjector::errorResponse("PoisonB").toString();

    std::uint64_t fingerprints[2] = {0, 0};
    for (const bool speculative : {false, true}) {
        PlatformOptions options;
        options.speculative = speculative;
        options.spec = aggressiveConfig();
        options.seed = 61;
        options.faultPlan = plan;
        FaasPlatform platform(options);
        platform.deploy(app);

        auto r = platform.invokeSync(app, Value::object({}));
        EXPECT_EQ(r.response.toString(), expected)
            << (speculative ? "speculative" : "baseline");

        // The committed prefix survives; the crashed function's write
        // never reaches the store (invariant 4).
        EXPECT_TRUE(platform.store().peek("chaos:ok").has_value())
            << (speculative ? "speculative" : "baseline");
        EXPECT_FALSE(platform.store().peek("chaos:poison").has_value())
            << (speculative ? "speculative" : "baseline");

        ASSERT_NE(platform.faultInjector(), nullptr);
        EXPECT_GE(platform.faultInjector()->gaveUp(), 1u);
        fingerprints[speculative ? 1 : 0] =
            platform.store().fingerprint();
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

// ---------------------------------------------------------------------
// Regression corpus replay.
// ---------------------------------------------------------------------

/**
 * Replay every (app-kind, app-seed, plan-seed) triple recorded in
 * tests/corpus/chaos_seeds.txt. See that file's header for the
 * append workflow when a chaos case fails.
 */
TEST(ChaosCorpus, ReplayAllEntries)
{
    const std::string path =
        std::string(CHAOS_CORPUS_DIR) + "/chaos_seeds.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing corpus file " << path;

    std::size_t entries = 0;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream toks(line);
        std::string kind;
        if (!(toks >> kind))
            continue;
        std::uint64_t app_seed = 0;
        std::uint64_t plan_seed = 0;
        ASSERT_TRUE(static_cast<bool>(toks >> app_seed >> plan_seed))
            << path << ":" << line_no << ": malformed corpus line";
        ASSERT_TRUE(kind == "explicit" || kind == "implicit")
            << path << ":" << line_no << ": unknown app kind '" << kind
            << "'";
        runChaosCase(kind == "explicit", app_seed, plan_seed);
        if (::testing::Test::HasFatalFailure())
            return;
        ++entries;
    }
    EXPECT_GT(entries, 0u) << "corpus is empty";
}

} // namespace
} // namespace specfaas
