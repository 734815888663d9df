/**
 * @file
 * Fleet-scale throughput-vs-QoS curves: baseline vs SpecFaaS on a
 * dynamic fleet of 100–400 nodes under non-stationary multi-tenant
 * load.
 *
 * Extends the paper's fixed-5-node load experiments (§VII) to the
 * regime real platforms run in: an autoscaled node fleet with
 * histogram keep-alive warm pools and fair-share admission, driven by
 * an open-loop trace-style load (Alibaba-shape tenants with skewed
 * weights; diurnal and bursty arrival processes). For each offered
 * load the bench reports completion rate, rejection rate, p50/p95/p99
 * response, and fleet lifecycle activity. The paper's control-plane
 * bottleneck shows up directly: the baseline controller saturates an
 * order of magnitude below the SpecFaaS sequence-table dispatch, and
 * SpecFaaS instead pushes into node-capacity scale-up.
 *
 * All reported metrics derive from simulated time and deterministic
 * counters, so the whole report is a two-sided identity gate in CI,
 * byte-identical at any --jobs count.
 */

#include "bench_common.hh"

#include <cstring>

#include "fleet/fleet.hh"
#include "loadgen/load_driver.hh"
#include "workloads/alibaba.hh"

using namespace specfaas;
using namespace specfaas::bench;

namespace {

/** Tenant traffic shares: a few hot apps, a long-ish tail. */
constexpr double kTenantWeights[] = {8.0, 4.0, 2.0, 1.0, 1.0, 1.0};
constexpr std::size_t kTenants =
    sizeof(kTenantWeights) / sizeof(kTenantWeights[0]);

/**
 * Offered loads of the sweep, rps. Calibrated against two ceilings.
 * With 60 ms mean leaf service an app costs ~1.06 core-seconds, so
 * compute capacity is ~750 rps on the initial 100x8 cores and ~3 krps
 * at the 400-node cap. The controller admits ~262 rps under the
 * baseline (12 threads / (17.6 launches x 2.6 ms)) but ~1.1 krps
 * under SpecFaaS (0.6 ms sequence-table dispatch). The four loads
 * sit below both knees, past the baseline's controller knee, and
 * past the initial fleet's compute knee — where only SpecFaaS can
 * convert autoscaled nodes into throughput.
 */
const std::vector<double> kLoads = {150.0, 300.0, 600.0, 1000.0};

/** Cluster geometry: 100 initial nodes, controller-bound baseline. */
ClusterConfig
fleetCluster()
{
    ClusterConfig cluster;
    cluster.numNodes = 100;
    cluster.coresPerNode = 8;
    cluster.controllerThreads = 12;
    cluster.admissionQueueLimit = 256;
    return cluster;
}

/** Fleet dynamics, timescales compressed to fit a CI-sized window. */
FleetConfig
fleetDynamics()
{
    FleetConfig fleet;
    fleet.dynamics = true;
    fleet.minNodes = 100;
    fleet.maxNodes = 400;
    fleet.provisioningDelay = 500 * kMillisecond;
    fleet.autoscaler.enabled = true;
    fleet.autoscaler.interval = 200 * kMillisecond;
    fleet.autoscaler.utilHigh = 0.70;
    fleet.autoscaler.queueDepthHigh = 64;
    fleet.autoscaler.utilLow = 0.20;
    fleet.autoscaler.lowStreak = 3;
    fleet.autoscaler.scaleUpStep = 16;
    fleet.autoscaler.scaleDownStep = 8;
    fleet.autoscaler.cooldown = 400 * kMillisecond;
    fleet.eviction.policy = EvictionConfig::Policy::Histogram;
    fleet.eviction.scanInterval = 500 * kMillisecond;
    fleet.eviction.keepAlivePercentile = 99.0;
    // Clamp wide enough that warm pools survive the queueing delays
    // of the saturated points instead of thrashing cold starts.
    fleet.eviction.minKeepAlive = 5 * kSecond;
    fleet.eviction.maxKeepAlive = 30 * kSecond;
    fleet.admission.fairShare = true;
    fleet.admission.engageQueueDepth = 16;
    fleet.admission.fairFactor = 2.0;
    fleet.admission.minTenantInFlight = 32;
    return fleet;
}

ArrivalSpec
arrivalFor(const char* kind, double rps)
{
    ArrivalSpec spec;
    spec.rps = rps;
    if (std::strcmp(kind, "diurnal") == 0) {
        spec.kind = ArrivalSpec::Kind::Diurnal;
        spec.diurnalAmplitude = 0.5;
        spec.diurnalPeriod = 2 * kSecond;
    } else {
        spec.kind = ArrivalSpec::Kind::Bursty;
        spec.burstMultiplier = 4.0;
        spec.burstDuty = 0.2;
        spec.meanBurstLen = 150 * kMillisecond;
    }
    return spec;
}

/** ~2.5 s of offered load per point, bounded below for stability. */
std::size_t
requestsFor(double rps)
{
    return static_cast<std::size_t>(
        std::max(600.0, rps * 2.5));
}

/** Deterministic outcome of one (engine, arrival, load) point. */
struct CurvePoint
{
    std::size_t completed = 0;
    std::size_t rejected = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double completedRps = 0.0;
    double rejectionRate = 0.0;
    std::uint64_t peakNodes = 0;
    std::uint64_t provisioned = 0;
    std::uint64_t retired = 0;
    std::uint64_t evictions = 0;
    std::uint64_t fairRejects = 0;
};

CurvePoint
measurePoint(SimContext& context, bool speculative, const char* kind,
             double rps, const std::vector<Application>& apps)
{
    PlatformOptions options;
    options.speculative = speculative;
    options.seed = 42;
    options.cluster = fleetCluster();
    options.fleet = fleetDynamics();
    // Callers hold their container across the whole synchronous
    // subtree, so per-function container concurrency is rps x
    // multi-second holds — prewarm generously or the measured window
    // is one long cold-start transient instead of steady state.
    options.prewarmPerFunction = 512;
    options.context = &context;

    FaasPlatform platform(options);
    for (const Application& app : apps)
        platform.deploy(app);
    // Short warm-up: trains the speculative tables on each tenant and
    // exercises the warm pools before the measured window.
    for (const Application& app : apps)
        platform.train(app, 6);
    // Serial training advances the clock far past the deploy-time
    // prewarm's keep-alive, so the eviction daemon has emptied the
    // pools by now; refill them so the measured window starts warm
    // instead of being one long cold-start transient.
    for (const Application& app : apps)
        for (const FunctionDef& fn : app.functions)
            platform.cluster().fleet().containers().prewarm(
                Symbol(fn.name), options.prewarmPerFunction);

    std::vector<TenantSpec> tenants;
    for (std::size_t i = 0; i < apps.size(); ++i)
        tenants.push_back(TenantSpec{&apps[i], kTenantWeights[i]});
    Rng inputBase = platform.sim().forkRng();
    TrafficMix mix(tenants, inputBase);

    const FleetLoadResult run = LoadDriver::run(
        platform, mix, arrivalFor(kind, rps), requestsFor(rps));

    const FleetStats& stats = platform.cluster().fleet().stats();
    CurvePoint p;
    p.completed = run.completedCount();
    p.rejected = run.rejected;
    p.p50 = run.latencyPercentileMs(50.0);
    p.p95 = run.latencyPercentileMs(95.0);
    p.p99 = run.latencyPercentileMs(99.0);
    p.completedRps = run.completedRps();
    p.rejectionRate = run.rejectionRate();
    p.peakNodes = stats.peakReadyNodes;
    p.provisioned = stats.provisioned;
    p.retired = stats.retired;
    p.evictions = stats.evictions;
    p.fairRejects = stats.fairRejects;
    return p;
}

} // namespace

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    const std::size_t jobs = jobsArg(argc, argv);
    banner("Fleet curves: throughput vs QoS latency, dynamic fleet "
           "(100-400 nodes)");

    AlibabaTraceConfig trace;
    trace.applications = kTenants;
    // Heavier handlers than the trace's 7.5 ms mean: at fleet scale
    // the interesting regime is where compute actually binds, so the
    // autoscaler has something to fix once SpecFaaS removes the
    // control-plane bottleneck.
    trace.meanServiceMs = 60.0;
    const std::vector<Application> apps = alibabaSuite(trace);

    obs.report().setConfig("tenants",
                           Value(static_cast<std::int64_t>(kTenants)));
    obs.report().setConfig("initial_nodes", Value(std::int64_t{100}));
    obs.report().setConfig("max_nodes", Value(std::int64_t{400}));
    {
        ValueArray loads;
        for (double rps : kLoads)
            loads.push_back(Value(rps));
        obs.report().setConfig("loads_rps", Value(std::move(loads)));
    }

    const std::vector<const char*> engines = {"base", "spec"};
    const std::vector<const char*> arrivals = {"diurnal", "bursty"};

    std::vector<std::function<CurvePoint(SimContext&)>> tasks;
    for (const char* engine : engines) {
        for (const char* kind : arrivals) {
            for (double rps : kLoads) {
                const bool speculative =
                    std::strcmp(engine, "spec") == 0;
                tasks.push_back([speculative, kind, rps,
                                 &apps](SimContext& context) {
                    return measurePoint(context, speculative, kind,
                                        rps, apps);
                });
            }
        }
    }
    const std::vector<CurvePoint> results =
        runSimTasks<CurvePoint>(jobs, std::move(tasks));

    std::size_t cursor = 0;
    for (const char* engine : engines) {
        for (const char* kind : arrivals) {
            TextTable table;
            table.header({strFormat("%s/%s rps", engine, kind),
                          "completed", "rej%", "p50 ms", "p95 ms",
                          "p99 ms", "peak nodes", "evictions"});
            for (double rps : kLoads) {
                const CurvePoint& p = results[cursor++];
                table.row(
                    {strFormat("%.0f", rps),
                     strFormat("%zu", p.completed),
                     strFormat("%.1f", 100.0 * p.rejectionRate),
                     strFormat("%.1f", p.p50),
                     strFormat("%.1f", p.p95),
                     strFormat("%.1f", p.p99),
                     strFormat("%llu",
                               static_cast<unsigned long long>(
                                   p.peakNodes)),
                     strFormat("%llu",
                               static_cast<unsigned long long>(
                                   p.evictions))});

                const std::string prefix = strFormat(
                    "%s.%s.r%.0f", engine, kind, rps);
                auto& report = obs.report();
                report.addMetric(prefix + ".completed",
                                 static_cast<double>(p.completed),
                                 /*higherIsBetter=*/true);
                report.addMetric(prefix + ".rejection_rate",
                                 p.rejectionRate,
                                 /*higherIsBetter=*/false);
                report.addMetric(prefix + ".completed_rps",
                                 p.completedRps,
                                 /*higherIsBetter=*/true);
                report.addMetric(prefix + ".p50_ms", p.p50,
                                 /*higherIsBetter=*/false, "ms");
                report.addMetric(prefix + ".p95_ms", p.p95,
                                 /*higherIsBetter=*/false, "ms");
                report.addMetric(prefix + ".p99_ms", p.p99,
                                 /*higherIsBetter=*/false, "ms");
                report.addMetric(prefix + ".peak_nodes",
                                 static_cast<double>(p.peakNodes),
                                 /*higherIsBetter=*/false);
                report.addMetric(prefix + ".evictions",
                                 static_cast<double>(p.evictions),
                                 /*higherIsBetter=*/false);
                report.addMetric(prefix + ".fair_rejects",
                                 static_cast<double>(p.fairRejects),
                                 /*higherIsBetter=*/false);
            }
            table.print();
        }
    }

    std::printf("\nThe baseline saturates at its controller ceiling "
                "(~260 rps here): the autoscaler adds nodes on queue "
                "pressure but the control plane cannot use them, so "
                "completions stay flat and admission sheds load. "
                "SpecFaaS's sequence-table dispatch lifts that "
                "ceiling ~4x; its knee moves to node capacity, which "
                "scale-up actually extends.\n");
    return 0;
}
