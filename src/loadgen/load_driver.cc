#include "load_driver.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>

#include "common/logging.hh"
#include "common/stats_util.hh"
#include "sim/sim_context.hh"

namespace specfaas {

double
FleetLoadResult::completedRps() const
{
    if (wallTime <= 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(latenciesMs.size()) /
           (static_cast<double>(wallTime) /
            static_cast<double>(kSecond));
}

double
FleetLoadResult::rejectionRate() const
{
    const double total =
        static_cast<double>(latenciesMs.size() + rejected);
    if (total == 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(rejected) / total;
}

double
FleetLoadResult::latencyPercentileMs(double p) const
{
    return percentile(latenciesMs, p);
}

FleetLoadResult
LoadDriver::run(FaasPlatform& platform, TrafficMix& mix,
                const ArrivalSpec& arrivals, std::size_t num_requests)
{
    FleetLoadResult out;
    out.offeredRps = arrivals.rps;
    out.tenants.resize(mix.size());
    for (std::size_t i = 0; i < mix.size(); ++i)
        out.tenants[i].app = mix.app(i).name;

    Simulation& sim = platform.sim();
    // Fork order fixed: arrival gaps first, then tenant picks, so the
    // two streams are stable against each other across runs.
    auto process =
        std::make_shared<ArrivalProcess>(arrivals, sim.forkRng());
    auto pickRng = std::make_shared<Rng>(sim.forkRng());
    const Tick start = sim.now();
    platform.cluster().fleet().resetUtilization();

    struct GenState
    {
        std::size_t submitted = 0;
        std::size_t finished = 0;
    };
    auto state = std::make_shared<GenState>();

    // Self-scheduling arrival closure (same ownership pattern as
    // LoadGenerator::run: the shared function object outlives every
    // scheduled copy because events drain before it leaves scope).
    auto schedule_next = std::make_shared<std::function<void()>>();
    *schedule_next = [&platform, &mix, process, pickRng, num_requests,
                      state, &out, self = schedule_next.get()]() {
        if (state->submitted >= num_requests)
            return;
        Simulation& sim = platform.sim();
        OBS_ZONE(sim.context().profiler(), "loadgen/arrival");
        const std::size_t tenant = mix.pick(*pickRng);
        const Application& app = mix.app(tenant);
        ++state->submitted;
        ++out.submitted;
        ++out.tenants[tenant].submitted;
        platform.invoke(
            app, mix.drawInput(tenant),
            [&platform, state, &out, tenant](InvocationResult r) {
                OBS_ZONE(platform.sim().context().profiler(),
                         "loadgen/complete");
                TenantLoadStats& ts = out.tenants[tenant];
                if (r.rejected) {
                    ++out.rejected;
                    ++ts.rejected;
                } else {
                    const double ms =
                        static_cast<double>(r.completedAt -
                                            r.submittedAt) /
                        static_cast<double>(kMillisecond);
                    out.latenciesMs.push_back(ms);
                    ++ts.completed;
                    ts.latenciesMs.push_back(ms);
                }
                ++state->finished;
            });
        if (state->submitted < num_requests) {
            const Tick gap = process->nextGap(sim.now());
            sim.events().schedule(gap, *self);
        }
    };

    (*schedule_next)();
    sim.events().run();

    SPECFAAS_ASSERT(state->finished == num_requests,
                    "load run lost requests: %zu of %zu",
                    state->finished, num_requests);

    out.wallTime = sim.now() - start;
    out.cpuUtilization = platform.cluster().fleet().utilization();
    return out;
}

} // namespace specfaas
