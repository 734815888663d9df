/**
 * @file
 * Branch-predictor design ablation (§V-A).
 *
 * The paper keeps per-path sub-entries in each branch-predictor entry
 * because "the path of functions executed from the beginning of the
 * application until the branch typically determines the branch
 * outcome" (Fig. 8). This bench constructs exactly that situation —
 * a branch whose outcome is fully determined by which upstream arm
 * executed, while the aggregate outcome distribution is 50/50 — and
 * compares the path-indexed predictor against an aggregate-only
 * ablation, plus both designs on the regular FaaSChain suite.
 */

#include "bench_common.hh"

#include <cmath>

#include "platform/platform.hh"
#include "workloads/app_helpers.hh"

using namespace specfaas;
using namespace specfaas::bench;

namespace {

/**
 * seq( when(First, MarkA, MarkB), when(PathCond, Fast, Slow), Done ).
 * First is a fair coin; PathCond's outcome equals which mark ran, so
 * it is 100% path-determined yet 50/50 in aggregate.
 */
Application
pathCorrelatedApp()
{
    Application app;
    app.name = "path-correlated";
    app.suite = "ablation";
    app.type = WorkflowType::Explicit;

    app.functions.push_back(condFunction("PcFirst", "b0", 5.0));
    app.functions.push_back(worker("PcMarkA", 6.0, [](const Env&) {
        return Value::object({{"came", Value(1)}});
    }));
    app.functions.push_back(worker("PcMarkB", 6.0, [](const Env&) {
        return Value::object({{"came", Value(2)}});
    }));
    app.functions.push_back(worker("PcPathCond", 4.0, [](const Env& e) {
        return Value(intOr(e.input.at("came"), 0) == 1);
    }));
    app.functions.push_back(worker("PcFast", 8.0, fns::passInput()));
    app.functions.push_back(worker("PcSlow", 8.0, fns::passInput()));
    app.functions.push_back(worker("PcDone", 4.0, [](const Env& e) {
        Value out = Value::object({});
        out["came"] = e.input.at("came");
        return out;
    }));

    app.workflow = sequence({
        when("PcFirst", task("PcMarkA"), task("PcMarkB")),
        when("PcPathCond", task("PcFast"), task("PcSlow")),
        task("PcDone"),
    });
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["b0"] = Value(rng.bernoulli(0.5)); // fair coin upstream
        return v;
    };
    return app;
}

struct Measured
{
    double hitRate = 0.0;
    double meanMs = 0.0;
};

Measured
measure(const Application& app, bool path_history)
{
    PlatformOptions options;
    options.speculative = true;
    options.seed = 42;
    options.spec.bpPathHistory = path_history;
    options.spec.bpDeadBand = 0.0; // always predict, measure quality
    FaasPlatform platform(options);
    platform.deploy(app);
    platform.train(app, 40);

    Measured m;
    const int requests = 100;
    double total = 0.0;
    for (int i = 0; i < requests; ++i) {
        auto r = platform.invokeSync(
            app, app.inputGen(platform.inputRng()));
        total += ticksToMs(r.responseTime());
    }
    m.meanMs = total / requests;
    m.hitRate = platform.specController()->branchPredictor().hitRate();
    return m;
}

double
suiteHitRate(const ApplicationRegistry& registry, bool path_history)
{
    std::vector<double> rates;
    for (const Application* app : registry.suite("FaaSChain")) {
        EngineSetup setup = specSetup();
        setup.spec.bpPathHistory = path_history;
        auto platform = Experiment::preparedPlatform(*app, setup);
        for (int i = 0; i < 60; ++i) {
            (void)platform->invokeSync(
                *app, app->inputGen(platform->inputRng()));
        }
        // NaN = no predictions made for this app; exclude it rather
        // than poison the suite mean.
        const double hr =
            platform->specController()->branchPredictor().hitRate();
        if (!std::isnan(hr))
            rates.push_back(hr);
    }
    return rates.empty() ? std::nan("") : mean(rates);
}

} // namespace

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Ablation: path-indexed vs aggregate branch prediction "
           "(§V-A, Fig. 8)");

    Application app = pathCorrelatedApp();
    const Measured with_path = measure(app, true);
    const Measured aggregate = measure(app, false);

    TextTable table;
    table.header({"Configuration", "BP hit rate", "Mean response"});
    table.row({"path-indexed (paper)",
               fmtPercentOrDash(with_path.hitRate),
               fmtMs(with_path.meanMs)});
    table.row({"aggregate-only", fmtPercentOrDash(aggregate.hitRate),
               fmtMs(aggregate.meanMs)});
    table.print();
    obs.report().addMetric("path_indexed_hit_rate", with_path.hitRate);
    obs.report().addMetric("aggregate_only_hit_rate",
                           aggregate.hitRate);
    obs.report().addMetric("path_indexed_mean_ms", with_path.meanMs, "ms");
    obs.report().addMetric("aggregate_only_mean_ms", aggregate.meanMs, "ms");

    std::printf("\nOn the path-correlated workload the branch is a "
                "fair coin in aggregate but fully determined by the "
                "upstream arm; per-path sub-entries recover it.\n");

    auto registry = makeAllSuites();
    std::printf("\nFaaSChain suite BP hit rate: %s path-indexed vs %s "
                "aggregate-only\n",
                fmtPercentOrDash(suiteHitRate(*registry, true)).c_str(),
                fmtPercentOrDash(suiteHitRate(*registry, false))
                    .c_str());
    return 0;
}
