/**
 * @file
 * Regenerates the in-text ablation numbers of §V-B and §VIII-B:
 *
 *  - memoization-table hit rate vs table size (the paper reports a
 *    50-entry table reaching ~96% on TrainTicket and 65-98% on
 *    FaaSChain);
 *  - memoization-table footprint (paper: 100-1K entries, 1.5-30 KB
 *    per application);
 *  - branch-predictor hit rates per suite (paper: 98% TrainTicket,
 *    90% Alibaba);
 *  - the fraction of pure-function invocations that could skip
 *    execution entirely (paper: >57.6% on TrainTicket), and the
 *    speedup effect of enabling the pure-function optimization;
 *  - Data Buffer size (paper: at most 12 columns x 4 rows, ~3 KB).
 */

#include "bench_common.hh"

#include <cmath>

#include "platform/platform.hh"

using namespace specfaas;
using namespace specfaas::bench;

namespace {

void
memoSizeSweep(const ApplicationRegistry& registry,
              obs::JsonReport& report)
{
    std::printf("\n--- Memoization hit rate vs table capacity ---\n");
    TextTable table;
    table.header({"Suite", "8 rows", "25 rows", "50 rows",
                  "200 rows"});
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        std::vector<std::string> row = {suite};
        for (std::size_t capacity : {8u, 25u, 50u, 200u}) {
            std::vector<double> rates;
            for (const Application* app : registry.suite(suite)) {
                EngineSetup setup = specSetup();
                setup.spec.memoCapacity =
                    static_cast<std::uint32_t>(capacity);
                auto platform =
                    Experiment::preparedPlatform(*app, setup);
                for (int i = 0; i < 60; ++i) {
                    (void)platform->invokeSync(
                        *app, app->inputGen(platform->inputRng()));
                }
                rates.push_back(platform->specController()
                                    ->memoStore()
                                    .overallHitRate());
            }
            row.push_back(fmtPercent(mean(rates)));
            if (capacity == 50u) {
                report.addMetric(
                    strFormat("memo_hit_rate_50.%s", suite),
                    mean(rates));
            }
        }
        table.row(std::move(row));
    }
    table.print();
    std::printf("Paper: 50-entry tables reach ~96%% on TrainTicket; "
                "65-98%% across FaaSChain apps.\n");
}

void
tableFootprints(const ApplicationRegistry& registry,
                obs::JsonReport& report)
{
    std::printf("\n--- Memoization footprint and branch predictor ---\n");
    TextTable table;
    table.header({"Suite", "Memo rows", "Memo footprint",
                  "BP entries", "BP hit rate"});
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        std::size_t rows = 0;
        std::size_t bytes = 0;
        std::size_t entries = 0;
        std::vector<double> hit_rates;
        const auto apps = registry.suite(suite);
        for (const Application* app : apps) {
            EngineSetup setup = specSetup();
            auto platform = Experiment::preparedPlatform(*app, setup);
            for (int i = 0; i < 80; ++i) {
                (void)platform->invokeSync(
                    *app, app->inputGen(platform->inputRng()));
            }
            auto* spec = platform->specController();
            rows += spec->memoStore().totalRows();
            bytes += spec->memoStore().totalFootprintBytes();
            entries += spec->branchPredictor().entryCount();
            // NaN = the app has no predicted branch; keep it out of
            // the suite mean.
            const double hr = spec->branchPredictor().hitRate();
            if (!std::isnan(hr))
                hit_rates.push_back(hr);
        }
        const double napps = static_cast<double>(apps.size());
        table.row({suite,
                   strFormat("%.0f/app",
                             static_cast<double>(rows) / napps),
                   strFormat("%.1f KB/app",
                             static_cast<double>(bytes) / 1024.0 /
                                 napps),
                   strFormat("%zu", entries),
                   fmtPercentOrDash(hit_rates.empty()
                                        ? std::nan("")
                                        : mean(hit_rates))});
        report.addMetric(strFormat("bp_hit_rate.%s", suite),
                         hit_rates.empty() ? std::nan("")
                                           : mean(hit_rates));
    }
    table.print();
    std::printf("Paper: combined tables use 100-1K entries and "
                "1.5-30 KB per application; BP hit rates 98%% "
                "(TrainTicket) / 90%% (Alibaba).\n");
}

void
pureFunctionSkip(const ApplicationRegistry& registry)
{
    std::printf("\n--- Pure-function optimization (§V-B, not enabled "
                "in the paper's evaluation) ---\n");
    TextTable table;
    table.header({"Suite", "Pure functions", "Skips/req (when on)",
                  "Extra speedup"});
    for (const char* suite : {"TrainTicket", "Alibaba"}) {
        std::size_t pure = 0;
        std::size_t total = 0;
        for (const Application* app : registry.suite(suite)) {
            for (const auto& f : app->functions) {
                ++total;
                if (f.pureAnnotation || f.isEffectivelyPure())
                    ++pure;
            }
        }
        std::vector<double> base_ms;
        std::vector<double> skip_ms;
        double skips_per_req = 0.0;
        std::size_t requests = 0;
        for (const Application* app : registry.suite(suite)) {
            EngineSetup off = specSetup();
            base_ms.push_back(
                Experiment::unloadedResponseMs(*app, off, 20));
            EngineSetup on = specSetup();
            on.spec.pureFunctionSkip = true;
            auto platform = Experiment::preparedPlatform(*app, on);
            double total_ms = 0.0;
            for (int i = 0; i < 20; ++i) {
                auto r = platform->invokeSync(
                    *app, app->inputGen(platform->inputRng()));
                total_ms += ticksToMs(r.responseTime());
                ++requests;
            }
            skip_ms.push_back(total_ms / 20.0);
            skips_per_req += static_cast<double>(
                platform->specController()->counters().value(
                    "spec.pure_skips"));
        }
        table.row({suite,
                   strFormat("%zu of %zu", pure, total),
                   fmtDouble(skips_per_req /
                                 static_cast<double>(requests),
                             2),
                   fmtRatio(mean(base_ms) / mean(skip_ms), 2)});
    }
    table.print();
    std::printf("Paper: >57.6%% of TrainTicket function invocations "
                "are pure and could be skipped; the evaluation "
                "conservatively leaves this off (as does every other "
                "bench here).\n");
}

void
dataBufferSize(const ApplicationRegistry& registry)
{
    std::printf("\n--- Data Buffer geometry (§VIII-B) ---\n");
    // Peak columns are bounded by the speculation depth; rows by the
    // records an invocation touches. Report the configured bound and
    // the approximate footprint of a live invocation's buffer.
    EngineSetup setup = specSetup();
    const Application& app = registry.get("OnlPurch");
    auto platform = Experiment::preparedPlatform(app, setup);
    std::printf("Max in-flight columns (speculation depth): %u\n",
                platform->options().spec.maxSpecDepth);
    std::printf("Paper: at most 12 columns and 4 rows, ~3 KB total "
                "per invocation.\n");
}

} // namespace

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Ablation tables (§V-B / §VIII-B in-text numbers)");
    auto registry = makeAllSuites();
    memoSizeSweep(*registry, obs.report());
    tableFootprints(*registry, obs.report());
    pureFunctionSkip(*registry);
    dataBufferSize(*registry);
    return 0;
}
