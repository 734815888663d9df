/**
 * @file
 * The paper's running example (Listing 1 / Fig. 1): the smart-home
 * application. Runs it on both engines and prints the per-request
 * timeline information that Figure 5 illustrates — conventional
 * sequential execution vs speculative overlap — plus the speculation
 * statistics of the SpecFaaS run.
 *
 * Build & run: ./build/examples/smart_home
 */

#include <cstdio>

#include "common/table.hh"
#include "platform/platform.hh"
#include "workloads/faaschain.hh"

using namespace specfaas;

namespace {

void
report(const char* label, const InvocationResult& r)
{
    std::printf("  %-9s response=%6.1f ms  functions=%u  "
                "specLaunches=%u  squashes=%u  memoHits=%u\n",
                label, ticksToMs(r.responseTime()), r.functionsExecuted,
                r.speculativeLaunches, r.squashes, r.memoHits);
    std::printf("            sequence:");
    for (const auto& fn : r.executedSequence)
        std::printf(" %s", fn.c_str());
    std::printf("\n");
}

} // namespace

int
main()
{
    DatasetConfig dataset;
    Application app = makeSmartHomeApp(dataset);

    // Conventional execution (Fig. 5(a)): every function waits for
    // its control and data dependences.
    PlatformOptions base_options;
    base_options.seed = 7;
    FaasPlatform baseline(base_options);
    baseline.deploy(app);
    baseline.train(app, 20);

    // SpecFaaS (Fig. 5(c)): control dependences predicted, data
    // dependences memoized, everything overlapped.
    PlatformOptions spec_options;
    spec_options.speculative = true;
    spec_options.seed = 7;
    FaasPlatform spec(spec_options);
    spec.deploy(app);
    spec.train(app, 20);

    std::printf("smart-home application (paper Listing 1 / Fig. 1)\n\n");
    double base_total = 0.0;
    double spec_total = 0.0;
    for (int i = 0; i < 5; ++i) {
        Value input = app.inputGen(baseline.inputRng());
        // Same request payload to both platforms.
        (void)spec.inputRng().next();
        auto rb = baseline.invokeSync(app, input);
        auto rs = spec.invokeSync(app, input);
        std::printf("request %d: home=%s\n", i,
                    input.at("user").toString().c_str());
        report("baseline", rb);
        report("SpecFaaS", rs);
        base_total += ticksToMs(rb.responseTime());
        spec_total += ticksToMs(rs.responseTime());
        std::printf("\n");
    }
    std::printf("average speedup over these requests: %.1fx\n",
                base_total / spec_total);

    auto* controller = spec.specController();
    std::printf("\nSpecFaaS engine state after the run:\n");
    std::printf("  branch predictor: %zu entries, %s hit rate\n",
                controller->branchPredictor().entryCount(),
                fmtPercentOrDash(
                    controller->branchPredictor().hitRate(), 0)
                    .c_str());
    std::printf("  memoization: %zu rows, %.1f KB, %.0f%% hit rate\n",
                controller->memoStore().totalRows(),
                static_cast<double>(
                    controller->memoStore().totalFootprintBytes()) /
                    1024.0,
                100.0 * controller->memoStore().overallHitRate());
    std::printf("  squashes=%llu  deferredSideEffects=%llu\n",
                static_cast<unsigned long long>(
                    controller->counters().value("spec.squashes")),
                static_cast<unsigned long long>(
                    controller->counters().value(
                        "spec.deferred_side_effects")));
    return 0;
}
