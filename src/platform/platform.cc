#include "platform.hh"

#include "common/logging.hh"
#include "sim/sim_context.hh"

namespace specfaas {

FaasPlatform::FaasPlatform(PlatformOptions options)
    : options_(options),
      sim_(options.seed, options.context),
      store_(options.storeLatency),
      inputRng_(options.seed ^ 0x1715517ull)
{
    store_.setProfiler(&sim_.context().profiler());
    if (!options_.faultPlan.empty()) {
        faults_ =
            std::make_unique<FaultInjector>(sim_, options_.faultPlan);
        faults_->attachStore(&store_);
        sim_.setFaultInjector(faults_.get());
    }
    cluster_ = std::make_unique<Cluster>(sim_, options_.cluster,
                                         options_.fleet);
    if (options_.speculative) {
        auto spec = std::make_unique<SpecController>(
            sim_, cluster_->fleet(), store_, registry_, options_.spec);
        spec_ = spec.get();
        engine_ = std::move(spec);
    } else {
        engine_ = std::make_unique<BaselineController>(
            sim_, cluster_->fleet(), store_, registry_);
    }
    if (faults_ != nullptr) {
        // Node failures are platform-level events: drop the node's
        // warm pool, crash its in-flight handlers through the engine,
        // and bring it back (empty) after the downtime.
        faults_->armNodeFailures([this](NodeId node, Tick downtime) {
            cluster_->fleet().failNode(node);
            engine_->onNodeFailure(node);
            if (downtime > 0) {
                sim_.events().scheduleDaemon(downtime, [this, node]() {
                    cluster_->fleet().restoreNode(node);
                });
            }
        });
    }
}

void
FaasPlatform::deploy(const Application& app)
{
    registry_.addApplication(app);
    if (app.seedStore) {
        Rng seed_rng(options_.seed ^ 0x5eed5eedull);
        app.seedStore(store_, seed_rng);
    }
    if (options_.prewarmPerFunction > 0) {
        for (const auto& f : app.functions) {
            cluster_->fleet().containers().prewarm(
                f.name, options_.prewarmPerFunction);
        }
    }
}

void
FaasPlatform::invoke(const Application& app, Value input,
                     std::function<void(InvocationResult)> done)
{
    OBS_ZONE(sim_.context().profiler(), "platform/request");
    if (Fleet& fleet = cluster_->fleet(); fleet.admissionActive()) {
        const Symbol tenant(app.name);
        if (!fleet.admit(tenant)) {
            // Fair-share backpressure: shed this tenant's request
            // before it reaches the engine (429 TooManyRequests).
            InvocationResult rejected;
            rejected.id = sim_.context().nextInvocationId();
            rejected.app = app.name;
            rejected.submittedAt = sim_.now();
            rejected.completedAt = sim_.now();
            rejected.rejected = true;
            if (auto& tr = sim_.context().trace(); tr.enabled()) {
                tr.instant(obs::cat::kFleet, "fair-reject", sim_.now(),
                           obs::kControlPlanePid, rejected.id,
                           {{"app", app.name}});
            }
            done(std::move(rejected));
            return;
        }
        done = [this, tenant,
                done = std::move(done)](InvocationResult r) {
            cluster_->fleet().complete(tenant);
            done(std::move(r));
        };
    }
    if (sim_.context().trace().enabled()) {
        sim_.context().trace().instant(obs::cat::kPlatform, "request", sim_.now(),
                             obs::kControlPlanePid, 0,
                             {{"app", app.name},
                              {"engine", engine_->name()}});
        done = [this, done = std::move(done)](InvocationResult r) {
            sim_.context().trace().instant(
                obs::cat::kPlatform, "response", sim_.now(),
                obs::kControlPlanePid, r.id,
                {{"app", r.app},
                 {"rejected", r.rejected}});
            done(std::move(r));
        };
    }
    engine_->invoke(app, std::move(input), std::move(done));
}

InvocationResult
FaasPlatform::invokeSync(const Application& app, Value input)
{
    InvocationResult result;
    bool finished = false;
    engine_->invoke(app, std::move(input),
                    [&](InvocationResult r) {
                        result = std::move(r);
                        finished = true;
                    });
    // Drain everything; background work (e.g. lazy squashes) may
    // outlive the request but terminates.
    sim_.events().run();
    if (!finished && spec_ != nullptr) {
        logInfo("stuck invocation state:\n%s",
                spec_->debugDump().c_str());
        std::fprintf(stderr, "%s\n", spec_->debugDump().c_str());
    }
    SPECFAAS_ASSERT(finished, "invocation of %s did not complete",
                    app.name.c_str());
    return result;
}

void
FaasPlatform::train(const Application& app, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        Value input = app.inputGen ? app.inputGen(inputRng_) : Value();
        (void)invokeSync(app, std::move(input));
    }
}

} // namespace specfaas
