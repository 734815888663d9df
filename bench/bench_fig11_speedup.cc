/**
 * @file
 * Regenerates Fig. 11: end-to-end speedup of SpecFaaS over the
 * OpenWhisk-style baseline per application, for the Low/Medium/High
 * load levels (100/250/500 rps), in a warmed-up environment. Pass
 * `--cold` to repeat the experiment without warming up the
 * environment (no pre-warmed containers), as in §VIII-A last ¶.
 */

#include <cstring>

#include "bench_common.hh"

using namespace specfaas;
using namespace specfaas::bench;

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    const std::size_t jobs = jobsArg(argc, argv);
    const bool cold = argc > 1 && std::strcmp(argv[1], "--cold") == 0;
    banner(std::string("Fig. 11: SpecFaaS speedup per application and "
                       "load level") +
           (cold ? " (COLD environment)" : " (warmed-up)"));

    auto registry = makeAllSuites();
    const std::size_t requests = 250;
    obs.report().setConfig(
        "requests", Value(static_cast<std::int64_t>(requests)));
    obs.report().setConfig("cold", Value(cold));

    TextTable table;
    table.header({"Application", "Suite", "Low", "Medium", "High",
                  "Avg"});

    // One task per (application, load level); tasks are independent
    // simulations, so they fan out across --jobs worker threads and
    // the ordered merge keeps output identical to a serial run.
    std::vector<const Application*> apps;
    std::vector<const char*> app_suite;
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        for (const Application* app : registry->suite(suite)) {
            apps.push_back(app);
            app_suite.push_back(suite);
        }
    }
    const std::vector<double> loads = loadLevels();
    std::vector<std::function<double(SimContext&)>> tasks;
    for (const Application* app : apps) {
        for (double rps : loads) {
            tasks.push_back([app, rps, cold,
                             requests](SimContext& context) {
                EngineSetup base = baselineSetup();
                EngineSetup spec = specSetup();
                base.context = &context;
                spec.context = &context;
                if (cold) {
                    // Cold environment: no pre-provisioned containers,
                    // so the measurement includes the cold-start ramp
                    // (the platform still keeps containers alive once
                    // created, like OpenWhisk's grace period, and the
                    // speculation tables persist across invocations as
                    // in §V-E).
                    base.prewarmPerFunction = 0;
                    spec.prewarmPerFunction = 0;
                }
                return Experiment::speedupAtLoad(*app, base, spec, rps,
                                                 requests);
            });
        }
    }
    const std::vector<double> results =
        runSimTasks<double>(jobs, std::move(tasks));

    std::map<std::string, std::vector<double>> suite_speedups;
    std::vector<double> all;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::vector<std::string> row = {apps[a]->name, app_suite[a]};
        std::vector<double> speedups;
        for (std::size_t l = 0; l < loads.size(); ++l) {
            const double s = results[a * loads.size() + l];
            speedups.push_back(s);
            row.push_back(fmtRatio(s));
        }
        const double avg = mean(speedups);
        row.push_back(fmtRatio(avg));
        table.row(std::move(row));
        suite_speedups[app_suite[a]].push_back(avg);
        all.push_back(avg);
    }

    table.separator();
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        table.row({strFormat("%s avg", suite), "", "", "", "",
                   fmtRatio(mean(suite_speedups[suite]))});
    }
    table.row({"Overall avg", "", "", "", "", fmtRatio(mean(all))});
    table.print();

    for (const auto& [suite, speedups] : suite_speedups) {
        obs.report().addMetric(
            strFormat("avg_speedup.%s", suite.c_str()),
            mean(speedups), "x");
    }
    obs.report().addMetric("overall_avg_speedup", mean(all), "x");

    std::printf("\nPaper reference: average speedup 4.6x warmed-up "
                "(suite averages ~5.0x FaaSChain, ~4.3x TrainTicket, "
                "~4.5x Alibaba); cold-environment averages 5.2x / "
                "4.5x / 4.7x.\n");
    return 0;
}
