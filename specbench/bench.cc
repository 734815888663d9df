/**
 * @file
 * specbench: the repository benchmark. It measures two kinds of speed,
 * each end to end and layer by layer: how fast the simulator runs on
 * the host, and how fast the modeled platform serves requests
 * (SpecFaaS against the baseline, in simulated time).
 *
 *     specbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads. All are open-loop in simulated time: arrivals are
 * scheduled simulation events, so every request is timed from its due
 * time and the generator cannot run late.
 *
 *   suites_medium     all 16 apps of FaaSChain, TrainTicket and
 *                     Alibaba, each alone on its own warmed 5-node
 *                     cluster at Poisson 250 rps (fig11's Medium point),
 *                     driven by LoadGenerator. Home of the dispatch and
 *                     interpreter hot path; squashes are rare.
 *   mispredict_storm  the 6 FaaSChain apps with branchBias 0.5, no BP
 *                     dead band and the squash minimizer off, at
 *                     Poisson 250 rps: speculation mostly squashes,
 *                     rewinds and relaunches instead of committing.
 *   fleet_bursty      the 6-tenant Alibaba mix of bench_fleet_curves on
 *                     the dynamic 100→400-node fleet, MMPP-2 bursts at
 *                     a mean of 500 rps, driven by LoadDriver. The only
 *                     workload exercising fleet dynamics and large pools.
 *
 * The benchmark seed draws every request payload; arrival instants and
 * the model's own randomness come from fixed platform seeds, so a seed
 * changes what is asked, not when.
 *
 * One repetition runs the serial differential oracle, builds every
 * platform of the workload (timed as set-up), then runs the measured
 * windows. Repetitions continue until --seconds have elapsed. Host
 * times sum each platform's, or each 50 ms simulated slice of a
 * window's, fastest repetition; simulated results must be
 * bit-identical across repetitions or the run fails.
 * With --trace 1,
 * untraced and traced repetitions alternate: untraced ones give the
 * tracing-overhead base and allocations per event, traced ones enable
 * the zone profiler and the trace ring of each platform's own
 * SimContext for its measured window only.
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics (end-to-end metrics with --trace 0,
 * per-layer metrics with --trace 1). Any correctness violation exits
 * with status 1. All instrumentation lives in this file: timers around
 * the public calls into each layer, counter snapshots around each
 * window, and the OBS_ZONE profiler and trace recorder the engines
 * already carry.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/baseline_controller.hh"
#include "common/logging.hh"
#include "common/stats_util.hh"
#include "loadgen/load_driver.hh"
#include "obs/critical_path.hh"
#include "platform/load_generator.hh"
#include "platform/platform.hh"
#include "sim/sim_context.hh"
#include "workloads/suites.hh"

/** Heap allocations made by this process (alloc_tally.cc). */
std::uint64_t allocationCount();

using namespace specfaas;

namespace {

constexpr int kEngines = 2;
/** Engine index → metric prefix: 0 = baseline, 1 = SpecFaaS. */
constexpr const char* kPrefix[kEngines] = {"base", "spec"};

/** One workload: its apps, platform configuration and load. */
struct Workload
{
    std::string name;
    std::vector<Application> owned;
    /** Points into owned. */
    std::vector<const Application*> apps;

    /** All apps share one fleet platform driven by LoadDriver. */
    bool fleet = false;
    /** Tenant weights of the fleet mix, parallel to apps. */
    std::vector<double> weights;
    ArrivalSpec arrival;
    /** Requests per window: one app's (per-app platforms) or the mix's. */
    std::size_t requests = 0;
    /**
     * Independent platform pairs per app (per-app workloads) or for
     * the whole mix (fleet), each with its own arrival stream.
     */
    std::size_t runs = 1;

    SpecConfig spec;
    ClusterConfig cluster;
    FleetConfig fleetConfig;
    std::uint32_t prewarm = 320;
    std::size_t training = 30;
    /** Serial oracle inputs per app and engine. */
    std::size_t oracleInputs = 8;
    /** Trace ring capacity of one window (events). */
    std::size_t traceCapacity = 1u << 17;
};

Workload
makeWorkload(const std::string& name)
{
    Workload w;
    w.name = name;
    w.arrival.kind = ArrivalSpec::Kind::Poisson;
    w.arrival.rps = 250.0;
    if (name == "suites_medium") {
        const auto registry = makeAllSuites();
        for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"})
            for (const Application* app : registry->suite(suite))
                w.owned.push_back(*app);
        w.requests = 250;
    } else if (name == "mispredict_storm") {
        SuiteOptions suites;
        suites.faasChain.branchBias = 0.5;
        w.owned = faasChainSuite(suites.faasChain);
        w.spec.bpDeadBand = 0.0;
        // Squash minimizer off, as in Table IV: never stall a read.
        w.spec.stallThreshold = 1000000000;
        w.requests = 250;
        // Mispredicted paths make latencies cluster; four runs per app
        // keep one training history from deciding the percentiles.
        w.runs = 4;
    } else if (name == "fleet_bursty") {
        AlibabaTraceConfig trace;
        trace.applications = 6;
        trace.meanServiceMs = 60.0;
        w.owned = alibabaSuite(trace);
        w.fleet = true;
        w.weights = {8.0, 4.0, 2.0, 1.0, 1.0, 1.0};
        w.arrival.kind = ArrivalSpec::Kind::Bursty;
        // Past the baseline's controller knee (~260 rps) but below
        // SpecFaaS's: at 1000 rps SpecFaaS's backlog grows through the
        // window, and its latencies swing with each burst pattern.
        w.arrival.rps = 500.0;
        w.arrival.burstMultiplier = 4.0;
        w.arrival.burstDuty = 0.2;
        w.arrival.meanBurstLen = 150 * kMillisecond;
        // Eight 2.4 s windows, each with its own burst pattern; the
        // baseline completes ~900 requests per window.
        w.requests = 1200;
        w.runs = 8;
        w.cluster.numNodes = 100;
        w.cluster.coresPerNode = 8;
        w.cluster.controllerThreads = 12;
        w.cluster.admissionQueueLimit = 256;
        FleetConfig& f = w.fleetConfig;
        f.dynamics = true;
        f.minNodes = 100;
        f.maxNodes = 400;
        f.provisioningDelay = 500 * kMillisecond;
        f.autoscaler.enabled = true;
        f.autoscaler.interval = 200 * kMillisecond;
        f.autoscaler.utilHigh = 0.70;
        f.autoscaler.queueDepthHigh = 64;
        f.autoscaler.utilLow = 0.20;
        f.autoscaler.lowStreak = 3;
        f.autoscaler.scaleUpStep = 16;
        f.autoscaler.scaleDownStep = 8;
        f.autoscaler.cooldown = 400 * kMillisecond;
        f.eviction.policy = EvictionConfig::Policy::Histogram;
        f.eviction.scanInterval = 500 * kMillisecond;
        f.eviction.keepAlivePercentile = 99.0;
        f.eviction.minKeepAlive = 5 * kSecond;
        f.eviction.maxKeepAlive = 30 * kSecond;
        f.admission.fairShare = true;
        f.admission.engageQueueDepth = 16;
        f.admission.fairFactor = 2.0;
        f.admission.minTenantInFlight = 32;
        w.prewarm = 512;
        w.training = 6;
        w.oracleInputs = 4;
        w.traceCapacity = 1u << 19;
    } else {
        fatal("unknown workload '%s' (expected suites_medium, "
              "mispredict_storm or fleet_bursty)",
              name.c_str());
    }
    for (const Application& app : w.owned)
        w.apps.push_back(&app);
    return w;
}

/** SplitMix64 finalizer: derives independent streams from the seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Stream salt of the serial oracle's inputs (window streams stay below). */
constexpr std::uint64_t kOracleSalt = 1000;

/**
 * Root seed of every platform (the experiments' default). The platform
 * seed fixes the model's own randomness and the arrival instants; the
 * benchmark seed reaches the platforms only as the request payloads
 * drawn from it.
 */
constexpr std::uint64_t kPlatformSeed = 42;

/** The apps one baseline/SpecFaaS platform pair serves, and its seeds. */
struct Unit
{
    std::vector<const Application*> apps;
    /** Platform root seed: fixes arrivals and the model's randomness. */
    std::uint64_t platformSeed = kPlatformSeed;
    /** Payload stream drawn from the benchmark seed. */
    std::uint64_t stream = 0;
};

/**
 * Per-app workloads give each app its own platform pairs; the fleet
 * workload runs the whole mix. Either way there are w.runs pairs with
 * distinct arrival streams and payload streams, so that no single
 * arrival pattern or training history decides the result.
 */
std::vector<Unit>
unitsOf(const Workload& w)
{
    std::vector<Unit> units;
    const std::size_t groups = w.fleet ? 1 : w.apps.size();
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t k = 0; k < w.runs; ++k) {
            Unit unit;
            unit.apps = w.fleet ? w.apps
                                : std::vector<const Application*>{w.apps[g]};
            unit.platformSeed = kPlatformSeed + k;
            unit.stream = g * w.runs + k;
            units.push_back(std::move(unit));
        }
    }
    return units;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : percentile(std::move(xs), 50.0);
}

/** a / b, or 0 when b is 0 (a ratio with no denominator). */
double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

bool
isErrorResponse(const Value& response)
{
    return response.isObject() && response.asObject().count("error") > 0;
}

/**
 * Named counters of one platform, read before and after a window. The
 * names carry the engine prefix (the engine registries' own entries
 * already do: spec.*, baseline.*), so both engines fit in one map.
 */
using Tally = std::map<std::string, std::uint64_t>;

Tally
readTally(FaasPlatform& p, const std::vector<const Application*>& apps,
          const std::string& prefix)
{
    ContainerPool& pool = p.cluster().containers();
    const FleetStats& fs = p.cluster().fleet().stats();
    Tally t = {
        {prefix + ".events", p.sim().events().executedCount()},
        {prefix + ".cluster.cold_starts", pool.coldStarts()},
        {prefix + ".cluster.warm_starts", pool.warmStarts()},
        {prefix + ".storage.reads", p.store().readCount()},
        {prefix + ".storage.writes", p.store().writeCount()},
        {prefix + ".fleet.scale_ups", fs.scaleUps},
        {prefix + ".fleet.nodes_provisioned", fs.provisioned},
        {prefix + ".fleet.evictions", fs.evictions},
        {prefix + ".fleet.fair_rejects", fs.fairRejects},
    };
    const obs::CounterRegistry* counters = nullptr;
    if (SpecController* spec = p.specController(); spec != nullptr) {
        counters = &spec->counters();
        t["specfaas.bp_predictions"] = spec->branchPredictor().predictions();
        t["specfaas.bp_hits"] = spec->branchPredictor().hits();
        std::uint64_t& lookups = t["specfaas.memo_lookups"];
        std::uint64_t& hits = t["specfaas.memo_hits"];
        for (const Application* app : apps) {
            for (const FunctionDef& fn : app->functions) {
                if (const MemoTable* m = spec->memoStore().find(fn.name)) {
                    lookups += m->lookups();
                    hits += m->hits();
                }
            }
        }
    } else {
        counters = &dynamic_cast<BaselineController&>(p.engine()).counters();
    }
    for (const auto& [name, v] : counters->snapshot())
        t[name] = static_cast<std::uint64_t>(v);
    return t;
}

/** Zone totals summed over the windows of one engine. */
struct ZoneTotal
{
    std::uint64_t visits = 0;
    std::uint64_t selfNs = 0;
};

/** Everything one engine produced in one repetition. */
struct EngineRun
{
    Tally tally; ///< window deltas summed over platforms
    std::vector<double> latenciesMs; ///< completed requests
    /** Per-app latency sum and count (per-app workloads). */
    std::map<std::string, std::pair<double, std::size_t>> appLatency;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    Tick windowTicks = 0;   ///< simulated length of all windows
    double cpuUtilSum = 0.0; ///< per-window cluster CPU utilization
    std::size_t windows = 0;
    std::uint32_t peakNodes = 0;
    /** @{ Host seconds in the public set-up calls. */
    double deployS = 0.0;
    double prewarmS = 0.0;
    double trainS = 0.0;
    /** @} */
    /** @{ Traced repetitions only: critical path and zone totals. */
    obs::SegmentBreakdown pathTotals;
    std::uint64_t pathInvocations = 0;
    obs::WastedWork speculation;
    std::map<std::string, ZoneTotal> zones;
    /** @} */
};

/** One repetition of a workload. */
struct Rep
{
    bool traced = false;
    EngineRun engine[kEngines];
    /** Wall seconds of each call building the platforms. */
    std::vector<double> setupS;
    /** Wall and thread CPU seconds of each slice of the windows. */
    std::vector<double> windowS;
    std::vector<double> windowCpuS;
    std::uint64_t allocs = 0;
};

/** Correctness tally across the whole process. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const std::string& what)
    {
        ++failed;
        std::fprintf(stderr, "specbench: FAILED %s\n", what.c_str());
    }
};

PlatformOptions
platformOptions(const Workload& w, int engine, std::uint64_t platformSeed,
                SimContext* context)
{
    PlatformOptions options;
    options.speculative = engine == 1;
    options.spec = w.spec;
    options.cluster = w.cluster;
    options.fleet = w.fleetConfig;
    options.seed = platformSeed;
    // The benchmark calls ContainerPool::prewarm itself, so that the
    // call can be timed; the sequence of calls matches deploy's own.
    options.prewarmPerFunction = 0;
    options.context = context;
    return options;
}

/**
 * Serial differential oracle: the same seeded inputs through a fresh
 * baseline and a fresh SpecFaaS platform of each app (static fleet,
 * small warm pool), requiring equal responses, no error responses and
 * equal store fingerprints.
 */
void
runOracle(const Workload& w, std::uint64_t seed, Check& check)
{
    for (std::size_t a = 0; a < w.apps.size(); ++a) {
        const Application& app = *w.apps[a];
        Rng inputRng(mixSeed(seed, kOracleSalt + a));
        std::vector<Value> inputs;
        for (std::size_t i = 0; i < w.oracleInputs; ++i)
            inputs.push_back(app.inputGen ? app.inputGen(inputRng)
                                          : Value());
        std::vector<Value> responses[kEngines];
        std::uint64_t fingerprint[kEngines] = {0, 0};
        for (int e = 0; e < kEngines; ++e) {
            SimContext context;
            PlatformOptions options =
                platformOptions(w, e, kPlatformSeed, &context);
            options.fleet = FleetConfig{};
            options.prewarmPerFunction = 4;
            FaasPlatform platform(options);
            platform.deploy(app);
            for (const Value& input : inputs) {
                InvocationResult r = platform.invokeSync(app, Value(input));
                ++check.attempted;
                if (r.rejected || isErrorResponse(r.response)) {
                    check.fail(strFormat("oracle %s/%s: %s response",
                                         app.name.c_str(), kPrefix[e],
                                         r.rejected ? "rejected"
                                                    : "error"));
                }
                responses[e].push_back(std::move(r.response));
            }
            fingerprint[e] = platform.store().fingerprint();
        }
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (responses[0][i] != responses[1][i]) {
                check.fail(strFormat("oracle %s: request %zu differs: "
                                     "baseline %s, specfaas %s",
                                     app.name.c_str(), i,
                                     responses[0][i].toString().c_str(),
                                     responses[1][i].toString().c_str()));
            }
        }
        if (fingerprint[0] != fingerprint[1]) {
            check.fail(strFormat("oracle %s: store fingerprints differ",
                                 app.name.c_str()));
        }
    }
}

/**
 * One built platform. Each has a SimContext of its own, so the two
 * engines never share trace, counters or profiler, and one window's
 * trace ring can be released before the next window runs.
 */
struct Built
{
    const Unit* unit = nullptr;
    int engine = 0;
    /** Declared before the platform, which refers to it. */
    std::unique_ptr<SimContext> context;
    std::unique_ptr<FaasPlatform> platform;
};

/**
 * Time one set-up call into a layer, recording its host seconds as one
 * part in @p parts.
 * @return the call's host seconds
 */
template <typename F>
double
timed(std::vector<double>& parts, F&& fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    parts.push_back(secondsSince(start));
    return parts.back();
}

void
prewarmApp(FaasPlatform& platform, const Application& app,
           std::uint32_t count)
{
    for (const FunctionDef& fn : app.functions)
        platform.cluster().containers().prewarm(Symbol(fn.name), count);
}

/**
 * Build one platform: construction, deploy + prewarm, training, and
 * (fleet) the re-prewarm that refills pools the eviction daemon
 * emptied while serial training advanced the clock. Each call is timed
 * as one set-up part in @p setupParts.
 */
Built
buildPlatform(const Workload& w, const Unit& unit, int engine,
              std::uint64_t seed, EngineRun& run,
              std::vector<double>& setupParts)
{
    Built b;
    b.unit = &unit;
    b.engine = engine;
    timed(setupParts, [&] {
        b.context = std::make_unique<SimContext>();
        b.platform = std::make_unique<FaasPlatform>(
            platformOptions(w, engine, unit.platformSeed, b.context.get()));
    });
    FaasPlatform& p = *b.platform;
    // Every payload, in training and in the window, comes from the
    // benchmark seed.
    p.inputRng() = Rng(mixSeed(seed, unit.stream));
    for (const Application* app : unit.apps) {
        run.deployS += timed(setupParts, [&] { p.deploy(*app); });
        run.prewarmS +=
            timed(setupParts, [&] { prewarmApp(p, *app, w.prewarm); });
    }
    for (const Application* app : unit.apps)
        run.trainS +=
            timed(setupParts, [&] { p.train(*app, w.training); });
    if (w.fleet) {
        for (const Application* app : unit.apps)
            run.prewarmS +=
                timed(setupParts, [&] { prewarmApp(p, *app, w.prewarm); });
    }
    return b;
}

/** Simulated length of one timed slice of a window. */
constexpr Tick kSlice = 50 * kMillisecond;

/**
 * Host clocks at the slice boundaries of one window. A daemon event on
 * the window's own simulation fires every kSlice and stamps both
 * clocks. The model never sees it, so slice k of a window does the
 * same simulated work in every repetition and can be timed as a part
 * of its own. Its own zone keeps its cost out of the sim layer's self
 * time.
 */
struct SliceClock
{
    EventQueue& events;
    obs::Profiler& profiler;
    std::chrono::steady_clock::time_point start;
    /** (wall, thread CPU) seconds; the window's start comes first. */
    std::vector<std::pair<double, double>> stamps;
    EventId pending = 0;
    std::uint64_t fired = 0;

    void
    stamp()
    {
        stamps.emplace_back(secondsSince(start), threadCpuSeconds());
    }

    void
    arm()
    {
        pending = events.scheduleDaemon(kSlice, [this] {
            OBS_ZONE(profiler, "specbench/slice");
            ++fired;
            stamp();
            arm();
        });
    }
};

/**
 * Run @p load, one window's call into the load generator on @p p,
 * recording each slice's wall time and thread CPU time and the
 * window's heap allocations in @p rep.
 * @return slice events fired, which the window's event count excludes
 */
template <typename F>
std::uint64_t
measure(Rep& rep, FaasPlatform& p, F&& load)
{
    EventQueue& events = p.sim().events();
    SliceClock clock{events, p.sim().context().profiler(), {}, {}};
    clock.stamps.reserve(4096);
    const std::uint64_t allocs0 = allocationCount();
    clock.start = std::chrono::steady_clock::now();
    clock.stamp();
    clock.arm();
    load();
    clock.stamp();
    events.cancel(clock.pending);
    rep.allocs += allocationCount() - allocs0;
    for (std::size_t i = 1; i < clock.stamps.size(); ++i) {
        rep.windowS.push_back(clock.stamps[i].first -
                              clock.stamps[i - 1].first);
        rep.windowCpuS.push_back(clock.stamps[i].second -
                                 clock.stamps[i - 1].second);
    }
    return clock.fired;
}

/** Run one measured window on @p b, adding its outcome to @p rep. */
void
runWindow(const Workload& w, Built& b, Rep& rep, Check& check)
{
    FaasPlatform& p = *b.platform;
    EngineRun& run = rep.engine[b.engine];
    const std::vector<const Application*>& apps = b.unit->apps;
    const std::string prefix = kPrefix[b.engine];
    const Tally before = readTally(p, apps, prefix);
    const std::string where =
        strFormat("%s/%s", kPrefix[b.engine], apps.front()->name.c_str());
    std::uint64_t sliceEvents = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    if (w.fleet) {
        std::vector<TenantSpec> tenants;
        for (std::size_t i = 0; i < apps.size(); ++i)
            tenants.push_back(TenantSpec{apps[i], w.weights[i]});
        Rng inputBase = p.inputRng().fork();
        TrafficMix mix(tenants, inputBase);
        FleetLoadResult r;
        sliceEvents = measure(rep, p, [&] {
            r = LoadDriver::run(p, mix, w.arrival, w.requests);
        });
        submitted = r.submitted;
        completed = r.completedCount();
        rejected = r.rejected;
        run.latenciesMs.insert(run.latenciesMs.end(), r.latenciesMs.begin(),
                               r.latenciesMs.end());
        run.windowTicks += r.wallTime;
        run.cpuUtilSum += r.cpuUtilization;
        for (const TenantLoadStats& t : r.tenants) {
            if (t.submitted != t.completed + t.rejected) {
                check.fail(strFormat("%s tenant %s: submitted %zu != "
                                     "completed %zu + rejected %zu",
                                     where.c_str(), t.app.c_str(),
                                     t.submitted, t.completed,
                                     t.rejected));
            }
        }
        // LoadDriver keeps latencies, not responses. With no fault plan
        // the platform has no injector, the only source of error
        // responses, so the serial oracle covers response checking.
    } else {
        const Application& app = *apps.front();
        LoadRunResult r;
        sliceEvents = measure(rep, p, [&] {
            r = LoadGenerator::run(p, app, w.arrival.rps, w.requests);
        });
        submitted = w.requests;
        completed = r.results.size();
        rejected = r.rejected;
        std::vector<double> lat;
        for (const InvocationResult& res : r.results) {
            lat.push_back(ticksToMs(res.responseTime()));
            if (isErrorResponse(res.response))
                check.fail(strFormat("%s: error response", where.c_str()));
        }
        auto& [sum, count] = run.appLatency[app.name];
        for (double ms : lat)
            sum += ms;
        count += lat.size();
        run.latenciesMs.insert(run.latenciesMs.end(), lat.begin(),
                               lat.end());
        run.windowTicks += r.wallTime;
        run.cpuUtilSum += r.cpuUtilization;
    }
    ++run.windows;
    check.attempted += submitted;
    if (submitted != completed + rejected) {
        check.fail(strFormat("%s: submitted %llu != completed %llu + "
                             "rejected %llu",
                             where.c_str(),
                             static_cast<unsigned long long>(submitted),
                             static_cast<unsigned long long>(completed),
                             static_cast<unsigned long long>(rejected)));
    }
    run.submitted += submitted;
    run.completed += completed;
    run.rejected += rejected;
    for (const auto& [name, v] : readTally(p, apps, prefix))
        run.tally[name] += v - before.at(name);
    run.tally[prefix + ".events"] -= sliceEvents;
    run.peakNodes = std::max(run.peakNodes,
                             p.cluster().fleet().stats().peakReadyNodes);
}

/**
 * Fold one traced window into @p run: critical-path segments (each
 * invocation's segments must tile its latency exactly), speculation
 * efficiency, and zone totals.
 */
void
collectTrace(const SimContext& context, std::uint64_t completed,
             EngineRun& run, Check& check)
{
    const obs::TraceRecorder& tr = context.trace();
    const obs::CriticalPathReport report = obs::analyzeTrace(tr.snapshot());
    if (tr.dropped() > 0 || report.incompleteInvocations > 0) {
        check.fail(strFormat("trace ring too small: %llu events dropped, "
                             "%llu incomplete invocations",
                             static_cast<unsigned long long>(tr.dropped()),
                             static_cast<unsigned long long>(
                                 report.incompleteInvocations)));
    }
    if (report.invocations.size() != completed) {
        check.fail(strFormat("critical path analyzed %zu invocations, "
                             "window completed %llu",
                             report.invocations.size(),
                             static_cast<unsigned long long>(completed)));
    }
    for (const obs::InvocationPath& inv : report.invocations) {
        if (inv.segments.total() != inv.latency()) {
            check.fail(strFormat("invocation %llu: segments sum to %lld, "
                                 "latency %lld",
                                 static_cast<unsigned long long>(inv.id),
                                 static_cast<long long>(
                                     inv.segments.total()),
                                 static_cast<long long>(inv.latency())));
        }
    }
    run.pathTotals.add(report.totals);
    run.pathInvocations += report.invocations.size();
    const obs::WastedWork& ww = report.speculation;
    run.speculation.usefulTicks += ww.usefulTicks;
    run.speculation.wastedTicks += ww.wastedTicks;
    run.speculation.committedInstances += ww.committedInstances;
    run.speculation.squashedInstances += ww.squashedInstances;
    for (const obs::Profiler::ZoneRow& z : context.profiler().zoneRows()) {
        ZoneTotal& t = run.zones[z.name];
        t.visits += z.visits;
        t.selfNs += z.selfNs;
    }
}

Rep
runRep(const Workload& w, const std::vector<Unit>& units,
       std::uint64_t seed, bool traced, Check& check)
{
    runOracle(w, seed, check);

    Rep rep;
    rep.traced = traced;
    std::vector<Built> built;
    for (const Unit& unit : units) {
        for (int e = 0; e < kEngines; ++e)
            built.push_back(buildPlatform(w, unit, e, seed, rep.engine[e],
                                          rep.setupS));
    }

    for (Built& b : built) {
        EngineRun& run = rep.engine[b.engine];
        SimContext& context = *b.context;
        if (traced) {
            context.trace().enable(w.traceCapacity);
            context.profiler().enable();
        }
        const std::uint64_t completed0 = run.completed;
        runWindow(w, b, rep, check);
        if (traced) {
            context.profiler().disable();
            context.trace().disable();
            collectTrace(context, run.completed - completed0, run, check);
        }
        b.platform.reset();
        b.context.reset();
    }
    return rep;
}

/**
 * Simulated-time results of a repetition: deterministic per seed, so
 * every repetition (traced or not) must reproduce them bit for bit.
 */
std::map<std::string, double>
simMetrics(const Workload& w, const Rep& rep)
{
    std::map<std::string, double> m;
    for (int e = 0; e < kEngines; ++e) {
        const EngineRun& r = rep.engine[e];
        const std::string p = kPrefix[e];
        m[p + "_p50_ms"] = percentile(r.latenciesMs, 50.0);
        m[p + "_p99_ms"] = percentile(r.latenciesMs, 99.0);
        m[p + "_completed_rps"] =
            ratio(static_cast<double>(r.completed),
                  static_cast<double>(r.windowTicks) / kSecond);
        m[p + "_reject_frac"] = ratio(static_cast<double>(r.rejected),
                                      static_cast<double>(r.submitted));
        m[p + "_completed"] = static_cast<double>(r.completed);
        m[p + ".cluster.cpu_util"] =
            ratio(r.cpuUtilSum, static_cast<double>(r.windows));
        m[p + ".fleet.peak_nodes"] = static_cast<double>(r.peakNodes);
        for (const auto& [name, v] : r.tally)
            m[name] = static_cast<double>(v);
    }
    const EngineRun& base = rep.engine[0];
    const EngineRun& spec = rep.engine[1];
    if (w.fleet) {
        m["speedup"] = ratio(mean(base.latenciesMs), mean(spec.latenciesMs));
    } else {
        std::vector<double> perApp;
        for (const auto& [app, b] : base.appLatency) {
            const auto& s = spec.appLatency.at(app);
            perApp.push_back(ratio(b.first / b.second, s.first / s.second));
        }
        m["speedup"] = geomean(perApp);
    }
    m["specfaas.bp_hit_rate"] =
        ratio(m["specfaas.bp_hits"], m["specfaas.bp_predictions"]);
    m["specfaas.memo_hit_rate"] =
        ratio(m["specfaas.memo_hits"], m["specfaas.memo_lookups"]);
    return m;
}

/** Layer of an OBS_ZONE name (the src/ module that records it). */
const char*
zoneLayer(const std::string& zone)
{
    static const std::pair<const char*, const char*> kLayers[] = {
        {"sim/", "sim"},         {"interp/", "runtime"},
        {"runtime/", "runtime"}, {"spec/", "specfaas"},
        {"base/", "baseline"},   {"cluster/", "cluster"},
        {"fleet/", "fleet"},     {"loadgen/", "loadgen"},
        {"storage/", "storage"}, {"platform/", "platform"},
    };
    for (const auto& [prefix, layer] : kLayers)
        if (zone.rfind(prefix, 0) == 0)
            return layer;
    return "other";
}

/**
 * Host cost of one empty OBS_ZONE visit (enter + exit, two clock
 * reads), median of several timed loops on a private profiler.
 */
double
calibrateZoneCostNs()
{
    obs::Profiler profiler;
    profiler.enable();
    constexpr int kVisits = 200000;
    std::vector<double> trials;
    for (int t = 0; t < 9; ++t) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < kVisits; ++i) {
            OBS_ZONE(profiler, "specbench/calibrate");
        }
        trials.push_back(secondsSince(start) * 1e9 / kVisits);
    }
    return median(trials);
}

/**
 * Calibrated self milliseconds per layer of one traced repetition,
 * keyed "<layer>" (both engines) and "<prefix>.<layer>" (one engine);
 * "spec/squash" and "spec/walk" also get their own keys.
 */
std::map<std::string, double>
layerSelfMs(const Rep& rep, double zoneCostNs)
{
    std::map<std::string, double> m;
    for (int e = 0; e < kEngines; ++e) {
        for (const auto& [name, z] : rep.engine[e].zones) {
            const double selfMs =
                std::max(0.0, static_cast<double>(z.selfNs) -
                                  static_cast<double>(z.visits) *
                                      zoneCostNs) *
                1e-6;
            const std::string layer = zoneLayer(name);
            m[layer] += selfMs;
            m[std::string(kPrefix[e]) + "." + layer] += selfMs;
            if (name == "spec/squash" || name == "spec/walk")
                m[name] += selfMs;
        }
    }
    return m;
}

/** Simulated events executed in a repetition's windows. */
double
windowEvents(const Rep& rep)
{
    return static_cast<double>(rep.engine[0].tally.at("base.events") +
                               rep.engine[1].tally.at("spec.events"));
}

std::uint64_t
zoneVisits(const Rep& rep, const char* zone)
{
    std::uint64_t visits = 0;
    for (const EngineRun& r : rep.engine)
        if (auto it = r.zones.find(zone); it != r.zones.end())
            visits += it->second.visits;
    return visits;
}

/** Median over repetitions of a per-repetition value. */
template <typename F>
double
medianOver(const std::vector<const Rep*>& reps, F&& f)
{
    std::vector<double> xs;
    for (const Rep* r : reps)
        xs.push_back(f(*r));
    return median(std::move(xs));
}

/**
 * Sum over parts (platform set-ups or window slices) of each part's
 * fastest time across repetitions. Other tenants of a shared host only
 * ever slow a part down, and their load drifts: a spin loop on the
 * 4-core container this was built on varied by ±25% within a minute,
 * and the median repetition's set-up time moved by a third between two
 * sets of runs. The per-part minimum needs one quiet moment per part
 * in a run, not a quiet run; the shorter the parts, the more such
 * moments a run has.
 */
double
fastestSum(const std::vector<const Rep*>& reps,
           std::vector<double> Rep::*times)
{
    double total = 0.0;
    for (std::size_t i = 0; i < (reps.front()->*times).size(); ++i) {
        double best = (reps.front()->*times)[i];
        for (const Rep* r : reps)
            if (i < (r->*times).size())
                best = std::min(best, (r->*times)[i]);
        total += best;
    }
    return total;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    return strFormat("%.17g", v);
}

std::string
jsonObject(const std::map<std::string, double>& m)
{
    std::string out = "{";
    for (const auto& [k, v] : m) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + k + "\": " + jsonNumber(v);
    }
    return out + "}";
}

std::vector<Metric>
endToEndMetrics(const std::vector<const Rep*>& reps,
                const std::map<std::string, double>& sim)
{
    std::vector<Metric> out;
    out.push_back({"setup_s", fastestSum(reps, &Rep::setupS), "s"});
    out.push_back({"run_s", fastestSum(reps, &Rep::windowS), "s"});
    const Rep& first = *reps.front();
    out.push_back({"events_per_s",
                   ratio(windowEvents(first),
                         fastestSum(reps, &Rep::windowCpuS)),
                   "events/s"});
    out.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
    for (const char* key :
         {"base_p50_ms", "base_p99_ms", "spec_p50_ms", "spec_p99_ms"})
        out.push_back({key, sim.at(key), "ms"});
    out.push_back({"speedup", sim.at("speedup"), "x"});
    out.push_back({"base_completed_rps", sim.at("base_completed_rps"),
                   "req/s"});
    out.push_back({"spec_completed_rps", sim.at("spec_completed_rps"),
                   "req/s"});
    return out;
}

std::vector<Metric>
perLayerMetrics(const std::vector<const Rep*>& untraced,
                const std::vector<const Rep*>& traced,
                const std::map<std::string, double>& sim,
                double zoneCostNs, const Check& check)
{
    const Rep& first = *traced.front();
    std::map<std::string, std::vector<double>> selfRuns;
    for (const Rep* r : traced)
        for (const auto& [k, v] : layerSelfMs(*r, zoneCostNs))
            selfRuns[k].push_back(v);
    auto self = [&selfRuns](const std::string& key) {
        auto it = selfRuns.find(key);
        return it == selfRuns.end() ? 0.0 : median(it->second);
    };
    const EngineRun& spec = first.engine[1];

    std::vector<Metric> out;
    auto add = [&out](std::string name, double v, const char* unit) {
        out.push_back({std::move(name), v, unit});
    };
    add("sim.self_ms", self("sim"), "ms");
    add("sim.events", windowEvents(first), "count");
    add("sim.allocs_per_event", medianOver(untraced, [](const Rep& r) {
            return ratio(static_cast<double>(r.allocs),
                         windowEvents(r));
        }),
        "allocs/event");
    add("runtime.self_ms", self("runtime"), "ms");
    add("runtime.interp_steps",
        static_cast<double>(zoneVisits(first, "interp/step")), "count");
    add("specfaas.self_ms", self("specfaas"), "ms");
    add("specfaas.squash_self_ms", self("spec/squash"), "ms");
    add("specfaas.walk_self_ms", self("spec/walk"), "ms");
    add("specfaas.launches", sim.at("spec.speculative_launches"), "count");
    add("specfaas.commits", sim.at("spec.commits"), "count");
    add("specfaas.squashes", sim.at("spec.squashes"), "count");
    add("specfaas.useful_ratio",
        ratio(static_cast<double>(spec.speculation.committedInstances),
              static_cast<double>(spec.speculation.committedInstances +
                                  spec.speculation.squashedInstances)),
        "ratio");
    add("specfaas.wasted_frac",
        ratio(static_cast<double>(spec.speculation.wastedTicks),
              static_cast<double>(spec.speculation.usefulTicks +
                                  spec.speculation.wastedTicks)),
        "ratio");
    add("specfaas.control_mispredicts", sim.at("spec.control_mispredicts"),
        "count");
    add("specfaas.data_mispredicts", sim.at("spec.data_mispredicts"),
        "count");
    add("specfaas.stalled_reads", sim.at("spec.stalled_reads"), "count");
    add("specfaas.bp_hit_rate", sim.at("specfaas.bp_hit_rate"), "ratio");
    add("specfaas.memo_hit_rate", sim.at("specfaas.memo_hit_rate"),
        "ratio");
    add("baseline.self_ms", self("baseline"), "ms");
    add("baseline.dispatches", sim.at("baseline.dispatches"), "count");
    add("baseline.rejections", sim.at("baseline.rejections"), "count");
    for (int e = 0; e < kEngines; ++e) {
        const std::string p = kPrefix[e];
        const obs::SegmentBreakdown& cp = first.engine[e].pathTotals;
        const double n =
            static_cast<double>(first.engine[e].pathInvocations);
        auto per = [n](Tick t) { return ratio(ticksToMs(t), n); };
        add(p + ".cp.queueing_ms", per(cp.queueing), "ms");
        add(p + ".cp.container_creation_ms", per(cp.containerCreation),
            "ms");
        add(p + ".cp.runtime_setup_ms", per(cp.runtimeSetup), "ms");
        add(p + ".cp.execution_ms", per(cp.execution), "ms");
        add(p + ".cp.stall_read_ms", per(cp.stallRead), "ms");
        add(p + ".cp.validation_ms", per(cp.validation), "ms");
        add(p + ".cp.commit_wait_ms", per(cp.commitWait), "ms");
    }
    for (int e = 0; e < kEngines; ++e) {
        const std::string p = kPrefix[e];
        add(p + ".cluster.self_ms", self(p + ".cluster"), "ms");
        for (const char* k : {".cluster.cold_starts", ".cluster.warm_starts"})
            add(p + k, sim.at(p + k), "count");
        add(p + ".cluster.cpu_util", sim.at(p + ".cluster.cpu_util"),
            "ratio");
        add(p + ".cluster.prewarm_s", medianOver(untraced, [e](const Rep& r) {
                return r.engine[e].prewarmS;
            }),
            "s");
        add(p + ".fleet.self_ms", self(p + ".fleet"), "ms");
        for (const char* k :
             {".fleet.scale_ups", ".fleet.nodes_provisioned",
              ".fleet.peak_nodes", ".fleet.evictions", ".fleet.fair_rejects"})
            add(p + k, sim.at(p + k), "count");
        add(p + ".storage.self_ms", self(p + ".storage"), "ms");
        add(p + ".storage.reads", sim.at(p + ".storage.reads"), "count");
        add(p + ".storage.writes", sim.at(p + ".storage.writes"), "count");
    }
    add("loadgen.self_ms", self("loadgen"), "ms");
    add("platform.deploy_s", medianOver(untraced, [](const Rep& r) {
            return r.engine[0].deployS + r.engine[1].deployS;
        }),
        "s");
    add("platform.train_s", medianOver(untraced, [](const Rep& r) {
            return r.engine[0].trainS + r.engine[1].trainS;
        }),
        "s");
    add("obs.zone_cost_ns", zoneCostNs, "ns");
    add("obs.trace_overhead_frac",
        ratio(fastestSum(traced, &Rep::windowS),
              fastestSum(untraced, &Rep::windowS)) -
            1.0,
        "ratio");
    add("failed_frac",
        ratio(static_cast<double>(check.failed),
              static_cast<double>(check.attempted)),
        "ratio");
    add("base_reject_frac", sim.at("base_reject_frac"), "ratio");
    add("spec_reject_frac", sim.at("spec_reject_frac"), "ratio");
    return out;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("flag %s needs a value", flag.c_str());
        const char* value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            args.trace = std::strtol(value, &end, 10) != 0;
        } else {
            fatal("unknown flag %s", flag.c_str());
        }
        if (end != nullptr && (*end != '\0' || end == value))
            fatal("invalid value '%s' for %s", value, flag.c_str());
    }
    if (!haveWorkload)
        fatal("usage: specbench --workload <name> --seed <n> "
              "--seconds <s> --trace <0|1>");
    if (!(args.seconds > 0.0))
        fatal("--seconds must be positive");
    return args;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload w = makeWorkload(args.workload);
    const std::vector<Unit> units = unitsOf(w);
    const double zoneCostNs = args.trace ? calibrateZoneCostNs() : 0.0;

    // Repetitions until the time budget is spent; with tracing they
    // alternate untraced/traced so both halves see the same host state.
    constexpr std::size_t kMinReps = 4;
    constexpr std::size_t kMaxReps = 400;
    Check check;
    std::vector<Rep> reps;
    const auto start = std::chrono::steady_clock::now();
    while (reps.size() < kMaxReps &&
           (reps.size() < kMinReps || secondsSince(start) < args.seconds)) {
        const bool traced = args.trace && reps.size() % 2 == 1;
        reps.push_back(runRep(w, units, args.seed, traced, check));
    }

    std::vector<const Rep*> untraced;
    std::vector<const Rep*> traced;
    for (const Rep& r : reps)
        (r.traced ? traced : untraced).push_back(&r);

    // Simulated results are a pure function of the seed: every
    // repetition, traced or not, must reproduce the first exactly.
    const std::map<std::string, double> sim = simMetrics(w, reps.front());
    for (std::size_t i = 1; i < reps.size(); ++i) {
        if (simMetrics(w, reps[i]) != sim)
            check.fail(strFormat("repetition %zu (%s) changed simulated "
                                 "results",
                                 i, reps[i].traced ? "traced" : "untraced"));
        if (reps[i].windowS.size() != reps.front().windowS.size())
            check.fail(strFormat("repetition %zu ran %zu window slices, "
                                 "the first ran %zu",
                                 i, reps[i].windowS.size(),
                                 reps.front().windowS.size()));
    }
    for (int e = 0; e < kEngines; ++e) {
        if (sim.at(std::string(kPrefix[e]) + "_completed") < 1000.0)
            check.fail(strFormat("%s completed fewer than 1000 requests",
                                 kPrefix[e]));
    }

    const std::vector<Metric> metrics =
        args.trace ? perLayerMetrics(untraced, traced, sim, zoneCostNs, check)
                   : endToEndMetrics(untraced, sim);

    std::printf("specbench %s seed=%llu reps=%zu\n", w.name.c_str(),
                static_cast<unsigned long long>(args.seed), reps.size());
    for (const Metric& m : metrics)
        std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("sim %s\n", jsonObject(sim).c_str());

    std::string json = "{\"correct\": ";
    json += check.failed == 0 ? "true" : "false";
    json += strFormat(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                      static_cast<unsigned long long>(check.attempted),
                      static_cast<unsigned long long>(check.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += strFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", metrics[i].name.c_str(),
                          jsonNumber(metrics[i].value).c_str(),
                          metrics[i].unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return check.failed == 0 ? 0 : 1;
}
