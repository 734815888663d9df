/**
 * @file
 * Engine-throughput microbench: simulated events per second of host
 * wall time, the figure of merit for the kernel hot path (ROADMAP
 * item 2).
 *
 * Two phases:
 *
 *  - "fig11": the fig11 application suites (FaaSChain, TrainTicket,
 *    Alibaba) run through both engines at the Medium load level, the
 *    same simulations the headline speedup figure is computed from.
 *    Event counts, simulated ticks and completed-request totals are
 *    deterministic and CI gates them; events/sec and wall time are
 *    machine-dependent and only printed.
 *  - "kernel": a pure EventQueue churn loop (self-rescheduling timer
 *    chains plus one-shot schedule/cancel noise) that isolates the
 *    kernel from the platform model. Tens of millions of events keep
 *    the id-state window compaction honest. Its 64 chains with 1-16
 *    tick delays pack every wheel bucket, a shape the platform model
 *    never produces.
 *  - "kernel traffic": the kernel alone under the traffic the
 *    platform model does produce (pending depth and delay mix
 *    measured on specbench's suites_medium), with the same budget.
 *  - "pipeline": a pure churn loop over the controllers' order-
 *    indexed pipeline structures (FlatMap commit frontier and
 *    squash truncation, FlatMap<K, bool> branch index), isolating the
 *    squash/commit rework from the platform model and pinning its
 *    wall cost against regressions back to per-element scans.
 *
 *     bench_engine_throughput [--requests=<n>] [--kernel-events=<n>]
 *                             [--pipeline-ops=<n>]
 *                             [--json-out=<f>] [--trace-out=<f>] ...
 *
 * Events/sec, wall time and allocation counts are printed only: the
 * --json-out report holds the deterministic event, tick and request
 * counts (plus the zone profile under --profile), so CI gates it
 * against the committed BENCH_engine_throughput.json with a byte
 * diff that runner speed cannot move.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench_common.hh"
#include "common/flat_map.hh"
#include "platform/load_generator.hh"
#include "sim/event_queue.hh"

namespace {

/**
 * Global allocation tally. Heap traffic is the engine's dominant
 * hidden cost, so the bench reports allocations per event alongside
 * events/sec; the count is deterministic for a fixed seed and
 * standard library. Only a run without --json-out, --trace-out or
 * --profile measures the engine alone (those turn on recording that
 * allocates too); CI holds that run's fig11 Allocs/event column under
 * a one-sided ceiling.
 */
std::atomic<std::uint64_t> gAllocs{0};

} // namespace

void*
operator new(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

using namespace specfaas;
using namespace specfaas::bench;

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    const auto d = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(d).count();
}

/**
 * Deterministic kernel-only churn: 64 staggered self-rescheduling
 * chains, each firing decrements a shared budget; every 8th firing
 * also schedules a one-shot and immediately cancels half of them, so
 * the lazy-cancellation skip path stays exercised.
 */
struct KernelChurn
{
    EventQueue q;
    Rng rng{12345};
    std::uint64_t remaining;

    explicit KernelChurn(std::uint64_t budget) : remaining(budget)
    {
        for (Tick t = 1; t <= 64; ++t)
            arm(t);
    }

    void
    arm(Tick delay)
    {
        q.schedule(delay, [this] { fire(); });
    }

    void
    fire()
    {
        if (remaining == 0)
            return;
        --remaining;
        arm(static_cast<Tick>(1 + (rng.next() & 15)));
        if ((remaining & 7) == 0) {
            const EventId extra = q.schedule(3, [] {});
            if ((remaining & 8) != 0)
                q.cancel(extra);
        }
    }
};

/**
 * Deterministic kernel-only traffic shaped like specbench's
 * suites_medium, where a queue holds ~40 pending events and delays
 * are 0 ticks 7% of the time, 101-1,000 ticks 39% and 1,001-16,383
 * ticks 54%: 40 self-rescheduling chains draw from that mix, with 1%
 * of the longest class moved past the wheel horizon (to 65,535
 * ticks) so the overflow heap stays in play.
 */
struct KernelTraffic
{
    static constexpr int kChains = 40;
    /** Delay classes, in the order arm() draws them. */
    static constexpr const char* kClasses[] = {
        "0", "101-1,000", "1,001-16,383", "16,384-65,535"};

    EventQueue q;
    Rng rng{2718};
    std::uint64_t remaining;
    std::uint64_t pendingSum = 0;
    std::size_t pendingMax = 0;
    std::uint64_t delays[4] = {};

    explicit KernelTraffic(std::uint64_t budget) : remaining(budget)
    {
        for (int i = 0; i < kChains; ++i)
            arm();
    }

    void
    arm()
    {
        static constexpr std::uint64_t kLo[] = {0, 101, 1001, 16384};
        static constexpr std::uint64_t kHi[] = {0, 1000, 16383, 65535};
        const std::uint64_t pick = rng.next() % 100;
        const int cls = pick < 7 ? 0 : pick < 46 ? 1 : pick < 99 ? 2 : 3;
        ++delays[cls];
        const std::uint64_t span = kHi[cls] - kLo[cls] + 1;
        q.schedule(static_cast<Tick>(kLo[cls] + rng.next() % span),
                   [this] { fire(); });
    }

    void
    fire()
    {
        if (remaining == 0)
            return;
        --remaining;
        arm();
        const std::size_t pending = q.pendingCount();
        pendingSum += pending;
        pendingMax = std::max(pendingMax, pending);
    }
};

/**
 * Deterministic churn over the order-indexed pipeline structures,
 * mirroring the controller access pattern: program-order append
 * bursts (a speculative walk), commit-frontier pops, squashes as
 * reverse tail pops plus one suffix truncation, fault-retry point
 * erases, and open-branch index maintenance alongside. The op count
 * is deterministic for the fixed seed, so CI gates it; the wall cost
 * pins the structures against a regression back to per-element
 * scans and shifts.
 * @return ops executed (every structural mutation counts as one)
 */
std::uint64_t
pipelineChurn(std::uint64_t budget)
{
    Rng rng(67890);
    FlatMap<std::uint64_t, std::uint64_t> slots;
    FlatMap<std::uint64_t, bool> branches;
    std::uint64_t next = 0;
    std::uint64_t ops = 0;
    while (ops < budget) {
        const std::uint64_t burst = 1 + (rng.next() & 31);
        for (std::uint64_t i = 0; i < burst; ++i) {
            slots.emplace(next, next);
            if ((next & 7) == 0)
                branches.emplace(next, true);
            ++next;
            ++ops;
        }
        const std::uint64_t pick = rng.next() % 100;
        if (pick < 55) { // commit a prefix
            std::uint64_t n = 1 + (rng.next() & 15);
            while (n-- != 0 && !slots.empty()) {
                branches.erase(slots.front().first);
                slots.popFront();
                ++ops;
            }
        } else if (pick < 85) { // squash
            std::uint64_t n = 1 + (rng.next() & 7);
            while (n-- != 0 && !slots.empty()) {
                slots.popBackExpect(slots.back().first);
                ++ops;
            }
            if (!slots.empty()) {
                const std::uint64_t lo = slots.front().first;
                const std::uint64_t span =
                    slots.back().first - lo + 1;
                const std::uint64_t from = lo + rng.next() % span;
                ops += slots.eraseFrom(from);
                branches.eraseFrom(from);
            }
        } else if (!slots.empty()) { // fault retry at one coordinate
            const std::uint64_t lo = slots.front().first;
            const std::uint64_t span = slots.back().first - lo + 1;
            const std::uint64_t key = lo + rng.next() % span;
            if (branches.anyBefore(key))
                ++ops; // counted so the query can't be optimised out
            ops += slots.erase(key);
        }
    }
    while (!slots.empty()) { // drain: final commit sweep
        slots.popFront();
        ++ops;
    }
    branches.clear();
    return ops;
}

} // namespace

int
main(int argc, char** argv)
{
    obs::Profiler::setAllocSource(&gAllocs);
    obs::ObsSession obs(argc, argv);
    std::size_t requests = 150;
    std::uint64_t kernelEvents = 4'000'000;
    std::uint64_t pipelineOps = 8'000'000;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--requests=", 11) == 0)
            requests = std::strtoull(argv[i] + 11, nullptr, 10);
        else if (std::strncmp(argv[i], "--kernel-events=", 16) == 0)
            kernelEvents = std::strtoull(argv[i] + 16, nullptr, 10);
        else if (std::strncmp(argv[i], "--pipeline-ops=", 15) == 0)
            pipelineOps = std::strtoull(argv[i] + 15, nullptr, 10);
    }
    banner("Engine throughput: events/sec on the fig11 workload "
           "and kernel-only churn and traffic loops");
    obs.report().setConfig(
        "requests", Value(static_cast<std::int64_t>(requests)));
    obs.report().setConfig(
        "kernel_events", Value(static_cast<std::int64_t>(kernelEvents)));
    obs.report().setConfig(
        "pipeline_ops", Value(static_cast<std::int64_t>(pipelineOps)));

    // Phase 1: the fig11 suites through both engines at Medium load.
    // The wall timer spans platform preparation (prewarm + training)
    // too — those are simulated events like any other.
    auto registry = makeAllSuites();
    std::uint64_t fig11Events = 0;
    std::uint64_t fig11Ticks = 0;
    std::uint64_t fig11Completed = 0;
    const std::uint64_t allocs0 = gAllocs.load();
    const auto fig11Start = std::chrono::steady_clock::now();
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        for (const Application* app : registry->suite(suite)) {
            for (const bool speculative : {false, true}) {
                EngineSetup setup =
                    speculative ? specSetup() : baselineSetup();
                auto platform =
                    Experiment::preparedPlatform(*app, setup);
                LoadRunResult run = LoadGenerator::run(
                    *platform, *app, LoadLevels::kMedium, requests);
                fig11Events +=
                    platform->sim().events().executedCount();
                fig11Ticks +=
                    static_cast<std::uint64_t>(platform->sim().now());
                fig11Completed += run.results.size();
            }
        }
    }
    const double fig11Ms = elapsedMs(fig11Start);
    const std::uint64_t fig11Allocs = gAllocs.load() - allocs0;
    const double fig11Eps =
        static_cast<double>(fig11Events) / (fig11Ms / 1000.0);
    const double fig11AllocsPerEvent = static_cast<double>(fig11Allocs) /
                                       static_cast<double>(fig11Events);

    // Phase 2: kernel-only churn.
    const std::uint64_t allocs1 = gAllocs.load();
    const auto kernelStart = std::chrono::steady_clock::now();
    KernelChurn churn(kernelEvents);
    churn.q.run();
    const double kernelMs = elapsedMs(kernelStart);
    const std::uint64_t kernelAllocs = gAllocs.load() - allocs1;
    const std::uint64_t kernelExecuted = churn.q.executedCount();
    const double kernelEps =
        static_cast<double>(kernelExecuted) / (kernelMs / 1000.0);

    // Phase 3: kernel-only traffic in the platform model's shape.
    const std::uint64_t allocs2 = gAllocs.load();
    const auto trafficStart = std::chrono::steady_clock::now();
    KernelTraffic traffic(kernelEvents);
    traffic.q.run();
    const double trafficMs = elapsedMs(trafficStart);
    const std::uint64_t trafficAllocs = gAllocs.load() - allocs2;
    const std::uint64_t trafficExecuted = traffic.q.executedCount();
    const double trafficEps =
        static_cast<double>(trafficExecuted) / (trafficMs / 1000.0);

    // Phase 4: pipeline-structure churn.
    const std::uint64_t allocs3 = gAllocs.load();
    const auto pipelineStart = std::chrono::steady_clock::now();
    const std::uint64_t pipelineExecuted = pipelineChurn(pipelineOps);
    const double pipelineMs = elapsedMs(pipelineStart);
    const std::uint64_t pipelineAllocs = gAllocs.load() - allocs3;
    const double pipelineOpsPerSec =
        static_cast<double>(pipelineExecuted) / (pipelineMs / 1000.0);

    TextTable table;
    table.header({"Phase", "Events", "Wall ms", "Events/sec",
                  "Allocs/event"});
    table.row({"fig11 (both engines, Medium)",
               strFormat("%llu",
                         static_cast<unsigned long long>(fig11Events)),
               strFormat("%.0f", fig11Ms),
               strFormat("%.3g", fig11Eps),
               strFormat("%.2f", fig11AllocsPerEvent)});
    table.row({"kernel churn",
               strFormat("%llu",
                         static_cast<unsigned long long>(kernelExecuted)),
               strFormat("%.0f", kernelMs),
               strFormat("%.3g", kernelEps),
               strFormat("%.2f", static_cast<double>(kernelAllocs) /
                                     static_cast<double>(kernelExecuted))});
    table.row({"kernel traffic",
               strFormat("%llu",
                         static_cast<unsigned long long>(trafficExecuted)),
               strFormat("%.0f", trafficMs),
               strFormat("%.3g", trafficEps),
               strFormat("%.2f", static_cast<double>(trafficAllocs) /
                                     static_cast<double>(trafficExecuted))});
    table.row({"pipeline churn",
               strFormat("%llu",
                         static_cast<unsigned long long>(pipelineExecuted)),
               strFormat("%.0f", pipelineMs),
               strFormat("%.3g", pipelineOpsPerSec),
               strFormat("%.2f",
                         static_cast<double>(pipelineAllocs) /
                             static_cast<double>(pipelineExecuted))});
    table.print();

    std::printf("\nkernel traffic: pending depth %.1f mean, %zu max; "
                "delays (ticks)",
                static_cast<double>(traffic.pendingSum) /
                    static_cast<double>(kernelEvents),
                traffic.pendingMax);
    std::uint64_t drawn = 0;
    for (std::uint64_t n : traffic.delays)
        drawn += n;
    for (std::size_t i = 0; i < std::size(KernelTraffic::kClasses); ++i)
        std::printf("%s %s %.1f%%", i == 0 ? "" : ",",
                    KernelTraffic::kClasses[i],
                    100.0 * static_cast<double>(traffic.delays[i]) /
                        static_cast<double>(drawn));
    std::printf("\n");

    // Deterministic identity of the run — what CI gates.
    obs.report().addMetric("fig11_events_executed",
                           static_cast<double>(fig11Events), "events");
    obs.report().addMetric("fig11_sim_ticks",
                           static_cast<double>(fig11Ticks), "ticks");
    obs.report().addMetric("fig11_requests_completed",
                           static_cast<double>(fig11Completed), "requests");
    obs.report().addMetric("kernel_events_executed",
                           static_cast<double>(kernelExecuted), "events");
    obs.report().addMetric("kernel_traffic_events_executed",
                           static_cast<double>(trafficExecuted), "events");
    obs.report().addMetric("pipeline_ops_executed",
                           static_cast<double>(pipelineExecuted), "ops");

    std::printf("\nEvents/sec and wall time are host-dependent and stay "
                "in this table; the JSON report holds only the "
                "deterministic event/tick/request counts.\n");
    return 0;
}
