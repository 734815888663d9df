/**
 * @file
 * Aggregation of invocation results into the statistics the paper
 * reports: mean and p99 response times and the five-category latency
 * breakdown of Fig. 3.
 */

#ifndef SPECFAAS_METRICS_SUMMARY_HH
#define SPECFAAS_METRICS_SUMMARY_HH

#include <string>
#include <vector>

#include "runtime/engine.hh"

namespace specfaas {

/** Mean per-function latency breakdown, in milliseconds. */
struct BreakdownMs
{
    double containerCreation = 0.0;
    double runtimeSetup = 0.0;
    double platformOverhead = 0.0;
    double transferOverhead = 0.0;
    double execution = 0.0;

    double total() const
    {
        return containerCreation + runtimeSetup + platformOverhead +
               transferOverhead + execution;
    }

    /** Fraction of the total spent in actual function execution. */
    double executionShare() const;
};

/** Response-time statistics over a set of invocation results. */
struct RunSummary
{
    double meanResponseMs = 0.0;
    double p99ResponseMs = 0.0;
};

/** Compute a RunSummary from raw results. */
RunSummary summarize(const std::vector<InvocationResult>& results);

/** Mean per-function breakdown across results. */
BreakdownMs meanBreakdown(const std::vector<InvocationResult>& results);

/** Response times in milliseconds, one per result. */
std::vector<double>
responseTimesMs(const std::vector<InvocationResult>& results);

} // namespace specfaas

#endif // SPECFAAS_METRICS_SUMMARY_HH
