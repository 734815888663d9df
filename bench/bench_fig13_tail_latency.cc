/**
 * @file
 * Regenerates Fig. 13: P99 tail latency of SpecFaaS normalized to the
 * baseline P99, per application suite and load level. The paper
 * reports an average tail-latency reduction of 58.7%.
 */

#include "bench_common.hh"

using namespace specfaas;
using namespace specfaas::bench;

namespace {

/** Baseline and SpecFaaS P99 of one (app, load) measurement. */
struct P99Pair
{
    double base = 0.0;
    double spec = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    const std::size_t jobs = jobsArg(argc, argv);
    banner("Fig. 13: P99 tail latency (SpecFaaS / baseline)");
    auto registry = makeAllSuites();
    const std::size_t requests = 400;
    obs.report().setConfig(
        "requests", Value(static_cast<std::int64_t>(requests)));

    TextTable table;
    table.header({"Suite", "Low", "Medium", "High", "Avg reduction"});

    // One task per (suite, load, app) pair of measurements, built in
    // the same nesting order the serial loop used; the ordered results
    // are then folded back per (suite, load) below.
    const std::vector<double> loads = loadLevels();
    std::vector<std::function<P99Pair(SimContext&)>> tasks;
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        for (double rps : loads) {
            for (const Application* app : registry->suite(suite)) {
                tasks.push_back([app, rps,
                                 requests](SimContext& context) {
                    EngineSetup base = baselineSetup();
                    EngineSetup spec = specSetup();
                    base.context = &context;
                    spec.context = &context;
                    auto b = Experiment::measureAtLoad(*app, base, rps,
                                                       requests);
                    auto s = Experiment::measureAtLoad(*app, spec, rps,
                                                       requests);
                    return P99Pair{b.summary.p99ResponseMs,
                                   s.summary.p99ResponseMs};
                });
            }
        }
    }
    const std::vector<P99Pair> results =
        runSimTasks<P99Pair>(jobs, std::move(tasks));

    std::size_t cursor = 0;
    std::vector<double> all_reductions;
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        std::vector<double> normalized;
        for (double rps : loads) {
            std::vector<double> base_p99s;
            std::vector<double> spec_p99s;
            for (std::size_t a = 0; a < registry->suite(suite).size();
                 ++a) {
                const P99Pair& p = results[cursor++];
                base_p99s.push_back(p.base);
                spec_p99s.push_back(p.spec);
            }
            normalized.push_back(mean(spec_p99s) / mean(base_p99s));
            obs.report().addMetric(
                strFormat("normalized_p99.%s.%s", suite, loadName(rps)),
                normalized.back());
        }
        const double avg_norm = mean(normalized);
        all_reductions.push_back(1.0 - avg_norm);
        table.row({suite, fmtPercent(normalized[0]),
                   fmtPercent(normalized[1]), fmtPercent(normalized[2]),
                   fmtPercent(1.0 - avg_norm)});
        obs.report().addMetric(
            strFormat("tail_reduction.%s", suite), 1.0 - avg_norm);
    }
    table.separator();
    table.row({"Average", "", "", "",
               fmtPercent(mean(all_reductions))});
    table.print();
    obs.report().addMetric("avg_tail_reduction", mean(all_reductions));

    std::printf("\nPaper reference: tail latency reduced by 62%% "
                "(FaaSChain), 56%% (TrainTicket), 58%% (Alibaba); "
                "58.7%% on average.\n");
    return 0;
}
