#include "summary.hh"

#include "common/stats_util.hh"

namespace specfaas {

double
BreakdownMs::executionShare() const
{
    const double t = total();
    return t <= 0.0 ? 0.0 : execution / t;
}

std::vector<double>
responseTimesMs(const std::vector<InvocationResult>& results)
{
    std::vector<double> out;
    out.reserve(results.size());
    for (const auto& r : results)
        out.push_back(ticksToMs(r.responseTime()));
    return out;
}

BreakdownMs
meanBreakdown(const std::vector<InvocationResult>& results)
{
    BreakdownMs b;
    std::uint64_t functions = 0;
    for (const auto& r : results) {
        b.containerCreation += ticksToMs(r.containerCreation);
        b.runtimeSetup += ticksToMs(r.runtimeSetup);
        b.platformOverhead += ticksToMs(r.platformOverhead);
        b.transferOverhead += ticksToMs(r.transferOverhead);
        b.execution += ticksToMs(r.execution);
        functions += r.functionsExecuted;
    }
    if (functions > 0) {
        const double n = static_cast<double>(functions);
        b.containerCreation /= n;
        b.runtimeSetup /= n;
        b.platformOverhead /= n;
        b.transferOverhead /= n;
        b.execution /= n;
    }
    return b;
}

RunSummary
summarize(const std::vector<InvocationResult>& results)
{
    RunSummary s;
    if (results.empty())
        return s;
    const std::vector<double> times = responseTimesMs(results);
    s.meanResponseMs = mean(times);
    s.p99ResponseMs = percentile(times, 99.0);
    return s;
}

} // namespace specfaas
