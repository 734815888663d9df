/** @file Tests of the platform facade, load generator, and harness. */

#include <gtest/gtest.h>

#include "metrics/summary.hh"
#include "platform/experiment.hh"
#include "platform/load_generator.hh"
#include "platform/platform.hh"
#include "workloads/suites.hh"

namespace specfaas {
namespace {

TEST(Platform, DeploySeedsStoreAndRegistersFunctions)
{
    auto registry = makeAllSuites();
    const Application& app = registry->get("HotelBook");
    FaasPlatform platform;
    platform.deploy(app);
    EXPECT_EQ(platform.registry().size(), app.functionCount());
    EXPECT_GT(platform.store().size(), 0u); // seeded records
}

TEST(Platform, SpeculativePlatformExposesController)
{
    PlatformOptions options;
    options.speculative = true;
    FaasPlatform platform(options);
    EXPECT_NE(platform.specController(), nullptr);
    EXPECT_EQ(platform.engine().name(), "specfaas");
    FaasPlatform base;
    EXPECT_EQ(base.specController(), nullptr);
    EXPECT_EQ(base.engine().name(), "baseline");
}

TEST(Platform, SameSeedSameResults)
{
    auto registry = makeAllSuites();
    const Application& app = registry->get("SmartHome");
    auto run = [&](std::uint64_t seed) {
        PlatformOptions options;
        options.seed = seed;
        FaasPlatform platform(options);
        platform.deploy(app);
        std::vector<Tick> times;
        for (int i = 0; i < 10; ++i) {
            auto r = platform.invokeSync(
                app, app.inputGen(platform.inputRng()));
            times.push_back(r.responseTime());
        }
        return times;
    };
    EXPECT_EQ(run(9), run(9));
    EXPECT_NE(run(9), run(10));
}

TEST(LoadGenerator, DeliversAllRequests)
{
    auto registry = makeAllSuites();
    const Application& app = registry->get("Login");
    FaasPlatform platform;
    platform.deploy(app);
    auto result = LoadGenerator::run(platform, app, 100.0, 50);
    EXPECT_EQ(result.results.size() + result.rejected, 50u);
    EXPECT_GT(result.wallTime, 0);
    EXPECT_GT(result.cpuUtilization, 0.0);
    EXPECT_DOUBLE_EQ(result.offeredRps, 100.0);
}

TEST(LoadGenerator, MixedApplicationsRoundRobin)
{
    auto registry = makeAllSuites();
    FaasPlatform platform;
    std::vector<const Application*> apps = {
        &registry->get("Login"), &registry->get("Banking")};
    for (const Application* app : apps)
        platform.deploy(*app);
    auto result = LoadGenerator::run(platform, apps, 100.0, 20);
    std::size_t login = 0;
    for (const auto& r : result.results)
        login += r.app == "Login" ? 1 : 0;
    EXPECT_EQ(login, 10u);
}

TEST(LoadGenerator, HigherLoadRaisesUtilization)
{
    auto registry = makeAllSuites();
    const Application& app = registry->get("OnlPurch");
    auto measure = [&](double rps) {
        PlatformOptions options;
        FaasPlatform platform(options);
        platform.deploy(app);
        return LoadGenerator::run(platform, app, rps, 100)
            .cpuUtilization;
    };
    EXPECT_GT(measure(300.0), measure(50.0));
}

TEST(Experiment, UnloadedResponseIsStable)
{
    auto registry = makeAllSuites();
    const Application& app = registry->get("Login");
    const double a =
        Experiment::unloadedResponseMs(app, EngineSetup{}, 10);
    const double b =
        Experiment::unloadedResponseMs(app, EngineSetup{}, 10);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
}

TEST(Experiment, SpeedupAtLoadAboveOneForSpec)
{
    auto registry = makeAllSuites();
    const Application& app = registry->get("SmartHome");
    EngineSetup base;
    EngineSetup spec;
    spec.speculative = true;
    const double s =
        Experiment::speedupAtLoad(app, base, spec, 100.0, 100);
    EXPECT_GT(s, 1.5);
}

TEST(Experiment, EffectiveThroughputSpecExceedsBaseline)
{
    auto registry = makeAllSuites();
    const Application& app = registry->get("Login");
    EngineSetup base;
    EngineSetup spec;
    spec.speculative = true;
    const double tb =
        Experiment::effectiveThroughput(app, base, 2.0, 150);
    const double ts =
        Experiment::effectiveThroughput(app, spec, 2.0, 150);
    EXPECT_GT(ts, tb);
}

TEST(Summary, BreakdownAndPercentiles)
{
    InvocationResult r1;
    r1.submittedAt = 0;
    r1.completedAt = msToTicks(100.0);
    r1.functionsExecuted = 2;
    r1.execution = msToTicks(40.0);
    r1.platformOverhead = msToTicks(20.0);
    InvocationResult r2 = r1;
    r2.completedAt = msToTicks(200.0);
    auto s = summarize({r1, r2});
    EXPECT_DOUBLE_EQ(s.meanResponseMs, 150.0);
    EXPECT_DOUBLE_EQ(s.p99ResponseMs, 199.0);
    // Per-function: (40+40)/(2+2) = 20 ms execution.
    const BreakdownMs b = meanBreakdown({r1, r2});
    EXPECT_DOUBLE_EQ(b.execution, 20.0);
    EXPECT_DOUBLE_EQ(b.platformOverhead, 10.0);
    EXPECT_NEAR(b.executionShare(), 2.0 / 3.0, 1e-9);
}

TEST(Summary, EmptyInputIsSafe)
{
    auto s = summarize({});
    EXPECT_DOUBLE_EQ(s.meanResponseMs, 0.0);
    EXPECT_DOUBLE_EQ(s.p99ResponseMs, 0.0);
}

} // namespace
} // namespace specfaas
