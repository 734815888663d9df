/**
 * @file
 * The serverless platform facade: one simulated deployment bundling
 * the simulation clock, the worker cluster, global storage, the
 * function registry, and one execution engine (baseline or SpecFaaS).
 *
 * Experiment drivers construct one FaasPlatform per configuration,
 * deploy applications onto it, optionally warm it up (warm containers
 * + trained speculation tables — the paper's "warmed-up environment"),
 * then submit requests through the common engine interface.
 */

#ifndef SPECFAAS_PLATFORM_PLATFORM_HH
#define SPECFAAS_PLATFORM_PLATFORM_HH

#include <memory>
#include <string>

#include "baseline/baseline_controller.hh"
#include "cluster/cluster.hh"
#include "fault/fault_injector.hh"
#include "fleet/fleet_config.hh"
#include "fault/fault_plan.hh"
#include "runtime/engine.hh"
#include "sim/simulation.hh"
#include "specfaas/spec_controller.hh"
#include "storage/kv_store.hh"
#include "workflow/registry.hh"

namespace specfaas {

/** Construction options of one platform deployment. */
struct PlatformOptions
{
    /** Speculative engine (SpecFaaS) or conventional baseline. */
    bool speculative = false;

    /** Speculation knobs (only used when speculative). */
    SpecConfig spec;

    /** Cluster geometry and platform cost constants. */
    ClusterConfig cluster;

    /**
     * Fleet dynamics: node lifecycle, autoscaling, warm-pool
     * eviction, fair-share admission. Defaults to a static fleet
     * (exactly the pre-dynamics platform behaviour).
     */
    FleetConfig fleet;

    /** Global storage latencies. */
    KvStoreLatency storeLatency;

    /** Root seed of the whole deployment. */
    std::uint64_t seed = 1;

    /**
     * Deterministic fault-injection plan; an empty plan (no rules)
     * means no injector is constructed and the fault hooks cost one
     * null check.
     */
    FaultPlan faultPlan;

    /**
     * Pre-provision this many warm containers per deployed function
     * (0 = cold environment, every first acquisition cold-starts).
     */
    std::uint32_t prewarmPerFunction = 320;

    /**
     * Per-simulation mutable-state context (ids, trace, counters,
     * profiler). Null selects the process-global default context;
     * parallel sweep/fuzz harnesses pass a private context per
     * platform so concurrent runs stay isolated.
     */
    SimContext* context = nullptr;
};

/** One simulated serverless deployment. */
class FaasPlatform
{
  public:
    explicit FaasPlatform(PlatformOptions options = {});

    FaasPlatform(const FaasPlatform&) = delete;
    FaasPlatform& operator=(const FaasPlatform&) = delete;

    /** @{ Component access. */
    Simulation& sim() { return sim_; }
    Cluster& cluster() { return *cluster_; }
    KvStore& store() { return store_; }
    FunctionRegistry& registry() { return registry_; }
    WorkflowEngine& engine() { return *engine_; }
    /** The speculative engine, or nullptr on a baseline platform. */
    SpecController* specController() { return spec_; }
    /** The fault injector, or nullptr when the plan is empty. */
    FaultInjector* faultInjector() { return faults_.get(); }
    const PlatformOptions& options() const { return options_; }
    /** @} */

    /**
     * Deploy an application: register its functions, seed the global
     * store, and pre-warm containers per the platform options.
     */
    void deploy(const Application& app);

    /** Submit one request asynchronously. */
    void invoke(const Application& app, Value input,
                std::function<void(InvocationResult)> done);

    /**
     * Submit one request and drain the event queue until it
     * completes. Intended for serial (unloaded) measurements and
     * tests.
     */
    InvocationResult invokeSync(const Application& app, Value input);

    /**
     * Warm up: run @p n serial invocations with dataset-drawn inputs
     * so containers are warm and (on a speculative platform) the
     * sequence, branch-predictor and memoization tables are trained.
     */
    void train(const Application& app, std::size_t n);

    /** RNG stream used to draw request inputs. */
    Rng& inputRng() { return inputRng_; }

  private:
    PlatformOptions options_;
    Simulation sim_;
    KvStore store_;
    /** Declared before the engine: hooks query it during execution. */
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<Cluster> cluster_;
    FunctionRegistry registry_;
    std::unique_ptr<WorkflowEngine> engine_;
    SpecController* spec_ = nullptr;
    Rng inputRng_;
};

} // namespace specfaas

#endif // SPECFAAS_PLATFORM_PLATFORM_HH
