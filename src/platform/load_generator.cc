#include "load_generator.hh"

#include <limits>

#include "common/logging.hh"

namespace specfaas {

double
LoadRunResult::completedRps() const
{
    // A zero-length window has no defined rate. NaN (not 0.0, which
    // reads as "nothing completed") follows the metrics convention of
    // geomean/percentile on empty input; JSON reports render it null.
    if (wallTime <= 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(results.size()) /
           (static_cast<double>(wallTime) / static_cast<double>(kSecond));
}

double
LoadRunResult::rejectionRate() const
{
    const double total =
        static_cast<double>(results.size() + rejected);
    // No submissions → no defined rate (0.0 would claim "nothing was
    // rejected" about a run that never ran).
    if (total == 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(rejected) / total;
}

LoadRunResult
LoadGenerator::run(FaasPlatform& platform, const Application& app,
                   double rps, std::size_t num_requests)
{
    return run(platform, std::vector<const Application*>{&app}, rps,
               num_requests);
}

LoadRunResult
LoadGenerator::run(FaasPlatform& platform,
                   const std::vector<const Application*>& apps,
                   double rps, std::size_t num_requests)
{
    SPECFAAS_ASSERT(!apps.empty(), "load run without applications");
    SPECFAAS_ASSERT(rps > 0.0, "non-positive rps");

    LoadRunResult out;
    out.offeredRps = rps;

    Simulation& sim = platform.sim();
    Rng arrivals = sim.forkRng();
    const Tick start = sim.now();
    platform.cluster().fleet().resetUtilization();

    const double mean_gap_us =
        1e6 / rps; // microseconds between arrivals

    // Schedule arrivals one after another; each arrival submits the
    // next app in round-robin order with a dataset-drawn input.
    struct GenState
    {
        std::size_t submitted = 0;
        std::size_t completed = 0;
    };
    auto state = std::make_shared<GenState>();

    // Self-scheduling arrival closure. The shared function object
    // outlives every scheduled copy; events drain before it leaves
    // scope, so the raw self-pointer capture is safe and avoids a
    // shared_ptr self-cycle.
    auto schedule_next = std::make_shared<std::function<void()>>();
    *schedule_next = [&platform, &apps, &arrivals, mean_gap_us,
                      num_requests, state, &out,
                      self = schedule_next.get()]() {
        if (state->submitted >= num_requests)
            return;
        const Application& app =
            *apps[state->submitted % apps.size()];
        ++state->submitted;
        Value input = app.inputGen ? app.inputGen(platform.inputRng())
                                   : Value();
        platform.invoke(app, std::move(input),
                        [state, &out](InvocationResult r) {
                            if (r.rejected)
                                ++out.rejected;
                            else
                                out.results.push_back(std::move(r));
                            ++state->completed;
                        });
        if (state->submitted < num_requests) {
            const Tick gap = std::max<Tick>(
                1, static_cast<Tick>(arrivals.exponential(mean_gap_us)));
            platform.sim().events().schedule(gap, *self);
        }
    };

    (*schedule_next)();
    sim.events().run();

    SPECFAAS_ASSERT(state->completed == num_requests,
                    "load run lost requests: %zu of %zu",
                    state->completed, num_requests);

    out.wallTime = sim.now() - start;
    out.cpuUtilization = platform.cluster().fleet().utilization();
    return out;
}

} // namespace specfaas
