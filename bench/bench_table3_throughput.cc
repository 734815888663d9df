/**
 * @file
 * Regenerates Table III: effective throughput — the maximum request
 * rate served without QoS violation, where QoS is violated when the
 * mean response time exceeds 2x the single-request response time.
 */

#include "bench_common.hh"

using namespace specfaas;
using namespace specfaas::bench;

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Table III: effective throughput (requests per second)");
    auto registry = makeAllSuites();

    TextTable table;
    table.header({"Application Suite", "Baseline", "SpecFaaS",
                  "Improvement"});

    std::vector<double> base_suite;
    std::vector<double> spec_suite;
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        std::vector<double> base_rates;
        std::vector<double> spec_rates;
        for (const Application* app : registry->suite(suite)) {
            base_rates.push_back(Experiment::effectiveThroughput(
                *app, baselineSetup(), 2.0, 250));
            spec_rates.push_back(Experiment::effectiveThroughput(
                *app, specSetup(), 2.0, 250));
        }
        const double b = mean(base_rates);
        const double s = mean(spec_rates);
        base_suite.push_back(b);
        spec_suite.push_back(s);
        table.row({suite, fmtDouble(b, 1), fmtDouble(s, 1),
                   fmtRatio(s / b)});
        obs.report().addMetric(
            strFormat("throughput_improvement.%s", suite), s / b, "x");
    }
    table.separator();
    const double b = mean(base_suite);
    const double s = mean(spec_suite);
    table.row({"Average", fmtDouble(b, 1), fmtDouble(s, 1),
               fmtRatio(s / b)});
    table.print();
    obs.report().addMetric("baseline_effective_rps", b, "rps");
    obs.report().addMetric("specfaas_effective_rps", s, "rps");
    obs.report().addMetric("avg_throughput_improvement", s / b, "x");

    std::printf("\nPaper reference: 118.3->485.0 (4.1x) FaaSChain, "
                "90.3->346.0 (3.8x) TrainTicket, 81.6->304.2 (3.7x) "
                "Alibaba; average improvement 3.9x.\n");
    return 0;
}
