/**
 * @file
 * Simulation context: bundles the event queue with the experiment's
 * root random number generator and global simulation options so
 * components share one clock and one randomness stream.
 */

#ifndef SPECFAAS_SIM_SIMULATION_HH
#define SPECFAAS_SIM_SIMULATION_HH

#include <cstdint>

#include "common/arena.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace specfaas {

class FaultInjector;
class SimContext;

/** Process-global default context (sim/sim_context.cc). */
SimContext& defaultSimContext();

/**
 * Root object of one simulated experiment run.
 *
 * Non-copyable; components keep a reference to it for the lifetime of
 * the run.
 */
class Simulation
{
  public:
    /**
     * @param seed root seed; forks feed every stochastic component
     * @param context per-simulation mutable-state context (ids, trace,
     *        counters — see sim/sim_context.hh); null selects the
     *        process-global default context, which is what
     *        single-simulation binaries use
     */
    explicit Simulation(std::uint64_t seed = 1,
                        SimContext* context = nullptr)
        : seed_(seed), rng_(seed),
          context_(context != nullptr ? context : &defaultSimContext())
    {
        events_.setProfiler(&contextProfiler());
    }

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /** The event queue (the simulated clock). */
    EventQueue& events() { return events_; }
    const EventQueue& events() const { return events_; }

    /** Current simulated time. */
    Tick now() const { return events_.now(); }

    /** Root RNG. Prefer forkRng() for per-component streams. */
    Rng& rng() { return rng_; }

    /** Derive an independent RNG stream for one component. */
    Rng forkRng() { return rng_.fork(); }

    /** Root seed this run was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /**
     * The run's fault injector, or nullptr when faults are disabled
     * (the default). Exposed here — forward-declared, never called
     * through by the sim layer — so every component that already
     * holds the Simulation can reach it without new plumbing.
     */
    FaultInjector* faultInjector() const { return faults_; }
    void setFaultInjector(FaultInjector* faults) { faults_ = faults; }

    /**
     * The per-simulation mutable-state context: id sources, trace
     * recorder, counters, sampler archive. Components reach all
     * observability through here so concurrent simulations never
     * share state. Resolved once at construction (null → the
     * process-global default) so this accessor is a plain inline
     * load — it sits in front of every tracing enabled() check on
     * the hot path.
     */
    SimContext& context() const { return *context_; }

    /**
     * Recycled memory for this simulation's function instances
     * (runtime/launcher.cc). Declared before the event queue, so it
     * outlives every queued callback; the components that hold
     * instances are destroyed before the Simulation they run on.
     * Being per simulation, its cached blocks go back to the heap
     * with it.
     */
    FreeList& instanceBlocks() { return instanceBlocks_; }

  private:
    /**
     * The context's profiler, resolved out-of-line (sim_context.hh
     * cannot be included here without a cycle) once at construction.
     */
    obs::Profiler& contextProfiler() const;

    std::uint64_t seed_;
    Rng rng_;
    FreeList instanceBlocks_;
    EventQueue events_;
    FaultInjector* faults_ = nullptr;
    SimContext* context_ = nullptr;
};

} // namespace specfaas

#endif // SPECFAAS_SIM_SIMULATION_HH
