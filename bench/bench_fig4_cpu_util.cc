/**
 * @file
 * Regenerates Fig. 4 / Observation 6: the CDFs of per-node P50-P90
 * CPU utilization across the (synthesized) Alibaba bare-metal fleet.
 * The paper's takeaway: most of the time CPU usage is 60-80%, so the
 * cluster has headroom for cycles wasted by mis-speculation.
 */

#include "bench_common.hh"

#include "traces/cpu_utilization.hh"

using namespace specfaas;
using namespace specfaas::bench;

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Fig. 4: P50-P90 CPU utilization CDFs (Alibaba stand-in)");

    CpuTraceConfig config;
    auto nodes = generateCpuTrace(config);
    const std::vector<double> levels = {50, 60, 70, 80, 90};
    auto cdfs = utilizationCdfs(nodes, levels, 10);

    TextTable table;
    std::vector<std::string> header = {"CDF"};
    for (double level : levels)
        header.push_back(strFormat("P%.0f", level));
    table.header(std::move(header));

    // Rows: cumulative probability; cells: the utilization at that
    // cumulative probability for each percentile curve.
    for (std::size_t i = 0; i < cdfs[0].size(); ++i) {
        std::vector<std::string> row = {
            fmtPercent(cdfs[0][i].cum, 0)};
        for (std::size_t c = 0; c < cdfs.size(); ++c)
            row.push_back(fmtPercent(cdfs[c][i].x));
        table.row(std::move(row));
    }
    table.print();

    // Headline number: median node's P90 utilization.
    std::vector<double> p90s;
    for (const auto& series : nodes)
        p90s.push_back(percentile(series, 90));
    std::printf("\nMedian node P90 utilization: %s (paper: CPU usage "
                "is mostly 60-80%%, leaving headroom for "
                "mis-speculated work)\n",
                fmtPercent(percentile(p90s, 50)).c_str());
    obs.report().addMetric("median_node_p90_utilization",
                           percentile(p90s, 50));
    return 0;
}
