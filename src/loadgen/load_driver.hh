/**
 * @file
 * Open-loop trace-driven load driver over a platform.
 *
 * Couples an ArrivalProcess (when requests arrive) with a TrafficMix
 * (whose request it is, with what input) and drives a FaasPlatform to
 * completion, collecting per-tenant and aggregate QoS statistics.
 * This is the fleet-scale generalisation of LoadGenerator: arrivals
 * are non-stationary, tenants are weighted instead of round-robin,
 * and the result keeps full latency vectors for percentile curves.
 */

#ifndef SPECFAAS_LOADGEN_LOAD_DRIVER_HH
#define SPECFAAS_LOADGEN_LOAD_DRIVER_HH

#include <string>
#include <vector>

#include "loadgen/arrival.hh"
#include "loadgen/traffic.hh"
#include "platform/platform.hh"

namespace specfaas {

/** Per-tenant outcome of one driven run. */
struct TenantLoadStats
{
    std::string app;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    /** Response times of completed requests, ms, completion order. */
    std::vector<double> latenciesMs;
};

/** Aggregate outcome of one driven run. */
struct FleetLoadResult
{
    double offeredRps = 0.0;
    std::size_t submitted = 0;
    std::size_t rejected = 0;
    Tick wallTime = 0;
    /** Mean cluster CPU utilization over the run window, [0,1]. */
    double cpuUtilization = 0.0;
    /** Response times of all completed requests, ms. */
    std::vector<double> latenciesMs;
    std::vector<TenantLoadStats> tenants;

    std::size_t completedCount() const { return latenciesMs.size(); }

    /** Achieved completion rate; NaN on a zero-length window. */
    double completedRps() const;

    /** Rejected fraction of submissions; NaN when nothing ran. */
    double rejectionRate() const;
};

/** Drives one arrival process + traffic mix into a platform. */
class LoadDriver
{
  public:
    /**
     * Submit @p num_requests arrivals, run the simulation until all
     * complete, and collect statistics. The arrival stream and the
     * tenant-pick stream fork off the platform's simulation RNG, so
     * equal seeds give byte-equal runs.
     */
    static FleetLoadResult run(FaasPlatform& platform, TrafficMix& mix,
                               const ArrivalSpec& arrivals,
                               std::size_t num_requests);
};

} // namespace specfaas

#endif // SPECFAAS_LOADGEN_LOAD_DRIVER_HH
