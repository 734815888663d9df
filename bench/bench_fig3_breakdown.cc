/**
 * @file
 * Regenerates Fig. 3: the average response time of one function
 * invocation under cold-start conditions, broken into five
 * categories — Container Creation, Runtime Setup, Platform Overhead,
 * Transfer Function Overhead, and Function Execution — plus the warm
 * breakdown behind Observation 1 (function execution is 33-42% of
 * the warm response time).
 */

#include "bench_common.hh"

#include "metrics/summary.hh"
#include "platform/platform.hh"

using namespace specfaas;
using namespace specfaas::bench;

namespace {

BreakdownMs
suiteBreakdown(const std::vector<const Application*>& apps, bool warm)
{
    std::vector<InvocationResult> results;
    for (const Application* app : apps) {
        PlatformOptions options;
        options.seed = 42;
        options.prewarmPerFunction = warm ? 32 : 0;
        FaasPlatform platform(options);
        platform.deploy(*app);
        if (warm)
            platform.train(*app, 3); // warm the containers
        // Cold: one request per app so every function truly
        // cold-starts, as in the paper's Fig. 3 measurement.
        for (int i = 0; i < (warm ? 10 : 1); ++i) {
            Value input = app->inputGen(platform.inputRng());
            results.push_back(
                platform.invokeSync(*app, std::move(input)));
        }
    }
    return meanBreakdown(results);
}

void
printBreakdown(const char* mode,
               const std::vector<std::pair<std::string, BreakdownMs>>&
                   rows)
{
    TextTable table;
    table.header({strFormat("Category (%s, ms/function)", mode),
                  rows[0].first, rows[1].first, rows[2].first});
    auto push = [&](const std::string& label, auto get) {
        table.row({label, fmtDouble(get(rows[0].second), 1),
                   fmtDouble(get(rows[1].second), 1),
                   fmtDouble(get(rows[2].second), 1)});
    };
    push("Container Creation",
         [](const BreakdownMs& b) { return b.containerCreation; });
    push("Runtime Setup",
         [](const BreakdownMs& b) { return b.runtimeSetup; });
    push("Platform Overhead",
         [](const BreakdownMs& b) { return b.platformOverhead; });
    push("Transfer Function Overhead",
         [](const BreakdownMs& b) { return b.transferOverhead; });
    push("Function Execution",
         [](const BreakdownMs& b) { return b.execution; });
    table.separator();
    push("Total", [](const BreakdownMs& b) { return b.total(); });
    table.row({"Execution share",
               fmtPercent(rows[0].second.executionShare()),
               fmtPercent(rows[1].second.executionShare()),
               fmtPercent(rows[2].second.executionShare())});
    table.print();
}

} // namespace

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Fig. 3: response-time breakdown of a function invocation");
    auto registry = makeAllSuites();

    std::vector<std::pair<std::string, BreakdownMs>> cold;
    std::vector<std::pair<std::string, BreakdownMs>> warm;
    for (const char* suite : {"Alibaba", "TrainTicket", "FaaSChain"}) {
        auto apps = registry->suite(suite);
        cold.emplace_back(suite, suiteBreakdown(apps, false));
        warm.emplace_back(suite, suiteBreakdown(apps, true));
    }

    printBreakdown("cold start", cold);
    std::printf("\n");
    printBreakdown("warmed-up", warm);

    for (const auto& [suite, b] : cold) {
        obs.report().addMetric(
            strFormat("cold_total_ms.%s", suite.c_str()), b.total(), "ms");
    }
    for (const auto& [suite, b] : warm) {
        obs.report().addMetric(
            strFormat("warm_execution_share.%s", suite.c_str()),
            b.executionShare());
    }

    std::printf("\nPaper reference: container creation ~1500 ms "
                "dominates cold starts; warm execution share is "
                "33-42%% (Observation 1).\n");
    return 0;
}
