/**
 * @file
 * Regenerates Fig. 12: the cumulative speedup breakdown of SpecFaaS
 * — branch prediction alone, plus memoization, plus the squash
 * optimization (handler-process kill instead of container kill) —
 * averaged across the three load levels.
 *
 * As in the paper: for the implicit suites (TrainTicket, Alibaba),
 * branch prediction and memoization only work together, so they form
 * a single combined category; the FaaSChain applications without
 * data dependences (Login, Banking, FlightBook) gain nothing from
 * memoization.
 */

#include "bench_common.hh"

using namespace specfaas;
using namespace specfaas::bench;

namespace {

double
avgSpeedup(const Application& app, const EngineSetup& spec)
{
    std::vector<double> speedups;
    for (double rps : loadLevels()) {
        speedups.push_back(Experiment::speedupAtLoad(
            app, baselineSetup(), spec, rps, 200));
    }
    return mean(speedups);
}

} // namespace

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Fig. 12: breakdown of SpecFaaS speedups (cumulative)");
    auto registry = makeAllSuites();
    obs.report().setConfig("requests",
                           Value(static_cast<std::int64_t>(200)));

    TextTable table;
    table.header({"Application", "Suite", "+BranchPred",
                  "+Memoization", "+SquashOpt (full)"});

    std::vector<double> full_all;
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        std::vector<double> bp_only;
        std::vector<double> bp_memo;
        std::vector<double> full;
        const bool implicit = std::string(suite) != "FaaSChain";
        for (const Application* app : registry->suite(suite)) {
            // Stage 1: branch prediction only, container-kill squash.
            EngineSetup s1 = specSetup();
            s1.spec.memoization = false;
            s1.spec.squashPolicy = SquashPolicy::ContainerKill;
            // Stage 2: + memoization, still container-kill squash.
            EngineSetup s2 = specSetup();
            s2.spec.squashPolicy = SquashPolicy::ContainerKill;
            // Stage 3: + the cheap process-kill squash (full system).
            EngineSetup s3 = specSetup();

            const double v2 = avgSpeedup(*app, s2);
            const double v3 = avgSpeedup(*app, s3);
            // Implicit workflows cannot speculate with only one of
            // the two mechanisms (§VIII-B): report the combined
            // category only.
            const double v1 = implicit ? v2 : avgSpeedup(*app, s1);
            bp_only.push_back(v1);
            bp_memo.push_back(v2);
            full.push_back(v3);
            full_all.push_back(v3);

            table.row({app->name, suite,
                       implicit ? "(combined)" : fmtRatio(v1),
                       fmtRatio(v2), fmtRatio(v3)});
        }
        table.separator();
        table.row({strFormat("%s avg", suite), "",
                   implicit ? "(combined)" : fmtRatio(mean(bp_only)),
                   fmtRatio(mean(bp_memo)), fmtRatio(mean(full))});
        table.separator();
        if (!implicit) {
            obs.report().addMetric(
                strFormat("bp_only_speedup.%s", suite), mean(bp_only), "x");
        }
        obs.report().addMetric(
            strFormat("bp_memo_speedup.%s", suite), mean(bp_memo), "x");
        obs.report().addMetric(strFormat("full_speedup.%s", suite),
                               mean(full), "x");
    }
    table.row({"Overall avg (full)", "", "", "",
               fmtRatio(mean(full_all))});
    table.print();
    obs.report().addMetric("overall_full_speedup", mean(full_all), "x");

    std::printf("\nPaper reference: BP alone gives ~2.9x on FaaSChain; "
                "BP+memoization 3.9x/3.5x/3.5x; full system "
                "5.0x/4.4x/4.5x (FaaSChain/TrainTicket/Alibaba).\n");
    return 0;
}
