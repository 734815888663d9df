/**
 * @file
 * Regenerates Observation 2: the sequence of functions executed by an
 * application is highly deterministic — the most popular sequence
 * accounts for ~90% of invocations in Alibaba and ~98% in TrainTicket.
 */

#include "bench_common.hh"

#include "platform/platform.hh"
#include "traces/determinism.hh"

using namespace specfaas;
using namespace specfaas::bench;

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Observation 2: function-sequence determinism");
    auto registry = makeAllSuites();

    TextTable table;
    table.header({"Application", "Suite", "Invocations",
                  "Distinct sequences", "Dominant share"});

    std::map<std::string, std::vector<double>> by_suite;
    for (const char* suite : {"Alibaba", "TrainTicket"}) {
        for (const Application* app : registry->suite(suite)) {
            PlatformOptions options;
            options.seed = 42;
            FaasPlatform platform(options);
            platform.deploy(*app);
            std::vector<InvocationResult> results;
            for (int i = 0; i < 400; ++i) {
                results.push_back(platform.invokeSync(
                    *app, app->inputGen(platform.inputRng())));
            }
            auto stats = analyzeSequences(results);
            by_suite[suite].push_back(stats.dominantShare);
            table.row({app->name, suite,
                       strFormat("%zu", stats.invocations),
                       strFormat("%zu", stats.distinctSequences),
                       fmtPercent(stats.dominantShare)});
        }
    }
    table.separator();
    for (const auto& [suite, shares] : by_suite) {
        table.row({"(average)", suite, "", "",
                   fmtPercent(mean(shares))});
        obs.report().addMetric(
            strFormat("dominant_share.%s", suite.c_str()),
            mean(shares));
    }
    table.print();

    std::printf("\nPaper reference: dominant sequence covers ~90%% of "
                "invocations in Alibaba and ~98%% in TrainTicket "
                "(FaaSChain omitted: its branch outcomes are "
                "synthetic, as in the paper).\n");
    return 0;
}
