/**
 * @file
 * Shared randomized-application generator and differential runners for
 * the fuzz and chaos test suites (and the bench/fuzz_chaos CLI).
 *
 * AppFuzzer builds random-but-deterministic applications: explicit
 * workflow trees (sequences, branches, loops, parallel sections) and
 * implicit call trees, with random function bodies mixing compute,
 * global reads/writes, HTTP, temp files and local steps. The seed
 * fully determines the app, so a failing seed reproduces anywhere.
 *
 * runApp / runChaos execute the same request sequence on one engine
 * and report everything the equivalence checks compare: responses,
 * the final store fingerprint, engine counters, and (under a fault
 * plan) the injection/retry/give-up tallies.
 */

#ifndef SPECFAAS_TESTS_FUZZ_APPS_HH
#define SPECFAAS_TESTS_FUZZ_APPS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "platform/platform.hh"
#include "workloads/app_helpers.hh"

namespace specfaas {
namespace fuzz {

/** Generator of random-but-deterministic applications. */
class AppFuzzer
{
  public:
    explicit AppFuzzer(std::uint64_t seed) : rng_(seed) {}

    Application
    explicitApp()
    {
        Application app;
        app.name = "fuzz-explicit";
        app.suite = "fuzz";
        app.type = WorkflowType::Explicit;
        app_ = &app;
        app.workflow = genNode(0);
        finishApp(app);
        return app;
    }

    Application
    implicitApp()
    {
        Application app;
        app.name = "fuzz-implicit";
        app.suite = "fuzz";
        app.type = WorkflowType::Implicit;
        app_ = &app;
        app.rootFunction = genCallTree(0);
        finishApp(app);
        return app;
    }

    /**
     * Loop-carrying app: a guaranteed while-loop whose body threads
     * state through both the carry value (iter) and a storage
     * read-modify-write, flanked by plain tasks. Exercises the
     * memoization/replay machinery on loop-carried dependences.
     */
    Application
    loopApp()
    {
        Application app;
        app.name = "fuzz-loop";
        app.suite = "fuzz";
        app.type = WorkflowType::Explicit;
        app_ = &app;
        const std::string cond = genLoopCondFunction();
        const std::string body = genLoopCarryFunction();
        std::vector<WorkflowNode> steps;
        steps.push_back(task(genFunction(false)));
        steps.push_back(whileLoop(cond, task(body)));
        steps.push_back(task(genFunction(false)));
        app.workflow = sequence(std::move(steps));
        finishApp(app);
        return app;
    }

  private:
    /** Random explicit workflow node (bounded depth). */
    WorkflowNode
    genNode(int depth)
    {
        const double roll = rng_.uniform();
        if (depth >= 2 || roll < 0.45)
            return task(genFunction(/*allow_calls=*/depth < 2));
        if (roll < 0.65) {
            std::vector<WorkflowNode> children;
            const int n = static_cast<int>(rng_.uniformInt(
                std::int64_t{2}, std::int64_t{4}));
            for (int i = 0; i < n; ++i)
                children.push_back(genNode(depth + 1));
            return sequence(std::move(children));
        }
        if (roll < 0.84) {
            const std::string cond = genCondFunction();
            if (rng_.bernoulli(0.3))
                return when(cond, genNode(depth + 1));
            return when(cond, genNode(depth + 1), genNode(depth + 1));
        }
        if (roll < 0.9) {
            // Bounded loop: the condition counts its own visits via a
            // loop-carried field the body threads through.
            const std::string cond = genLoopCondFunction();
            const std::string body = genLoopBodyFunction();
            return whileLoop(cond, task(body));
        }
        std::vector<WorkflowNode> arms;
        const int n = static_cast<int>(
            rng_.uniformInt(std::int64_t{2}, std::int64_t{3}));
        // Parallel arms get disjoint storage zones: sibling arms run
        // concurrently in the BASELINE too, so records shared across
        // arms would be racy there (no canonical outcome to compare
        // against). SpecFaaS itself orders arms via the Data Buffer.
        const int saved_zone = zone_;
        for (int i = 0; i < n; ++i) {
            zone_ = nextZone_++;
            arms.push_back(genNode(depth + 1));
        }
        zone_ = saved_zone;
        return parallel(std::move(arms));
    }

    /** Random implicit call subtree; returns the function name. */
    std::string
    genCallTree(int depth)
    {
        const bool caller =
            depth < 2 && rng_.bernoulli(depth == 0 ? 1.0 : 0.4);
        FunctionDef def = genBody(/*allow_calls=*/false);
        def.name = nextName();
        if (caller) {
            const int calls = static_cast<int>(
                rng_.uniformInt(std::int64_t{1}, std::int64_t{3}));
            for (int c = 0; c < calls; ++c) {
                const std::string callee = genCallTree(depth + 1);
                const std::string var = strFormat("c%d", c);
                ValueFn args = [](const Env& e) {
                    Value a = Value::object({});
                    a["key"] = e.input.at("key");
                    return a;
                };
                if (rng_.bernoulli(0.3)) {
                    def.body.push_back(Op::callIf(
                        fns::bucketGuard("key", 8), callee, args, var));
                } else {
                    def.body.push_back(Op::call(callee, args, var));
                }
            }
            // Fold call results into the output deterministically.
            const int calls_made = calls;
            def.output = [calls_made](const Env& e) {
                std::int64_t acc = intOr(e.input.at("salt"), 0);
                for (int c = 0; c < calls_made; ++c) {
                    const Value& v = e.var(strFormat("c%d", c));
                    if (v.isObject())
                        acc = (acc * 31 + intOr(v.at("v"), 0)) % 1009;
                }
                Value out = Value::object({});
                out["v"] = Value(acc);
                return out;
            };
        }
        app_->functions.push_back(std::move(def));
        return app_->functions.back().name;
    }

    std::string
    nextName()
    {
        return strFormat("Fz%u", counter_++);
    }

    /** Random function body (no calls; calls added separately). */
    FunctionDef
    genBody(bool allow_calls)
    {
        (void)allow_calls;
        FunctionDef def;
        def.computeCv = 0.1;
        const int ops = static_cast<int>(
            rng_.uniformInt(std::int64_t{1}, std::int64_t{4}));
        bool read = false;
        for (int i = 0; i < ops; ++i) {
            const double roll = rng_.uniform();
            if (roll < 0.40) {
                def.body.push_back(Op::compute(msToTicks(
                    rng_.uniform(1.0, 8.0))));
            } else if (roll < 0.62) {
                const int bank = static_cast<int>(rng_.uniformInt(
                    std::int64_t{0}, std::int64_t{3}));
                def.body.push_back(Op::storageRead(
                    [bank, zone = zone_](const Env& e) {
                        return strFormat(
                            "fz%d_%d:%s", zone, bank,
                            e.input.at("key").toString().c_str());
                    },
                    strFormat("r%d", i)));
                read = true;
            } else if (roll < 0.80) {
                const int bank = static_cast<int>(rng_.uniformInt(
                    std::int64_t{0}, std::int64_t{3}));
                def.body.push_back(Op::storageWrite(
                    [bank, zone = zone_](const Env& e) {
                        return strFormat(
                            "fz%d_%d:%s", zone, bank,
                            e.input.at("key").toString().c_str());
                    },
                    [](const Env& e) {
                        Value rec = Value::object({});
                        rec["v"] = Value(intOr(e.input.at("salt"), 1));
                        return rec;
                    }));
            } else if (roll < 0.88) {
                def.body.push_back(Op::http());
            } else if (roll < 0.94) {
                def.body.push_back(Op::fileWrite([](const Env&) {
                    return std::string("tmp.dat");
                }));
            } else {
                def.body.push_back(Op::setVar(
                    strFormat("s%d", i), [](const Env& e) {
                        return Value(intOr(e.input.at("salt"), 0) + 1);
                    }));
            }
        }
        const bool uses_read = read;
        def.output = [uses_read](const Env& e) {
            std::int64_t acc =
                bucketOf(e.input.toString(), 97);
            if (uses_read) {
                for (int i = 0; i < 4; ++i) {
                    const Value& v = e.var(strFormat("r%d", i));
                    if (v.isObject())
                        acc = (acc * 17 + intOr(v.at("v"), 0)) % 1009;
                }
            }
            Value out = Value::object({});
            out["v"] = Value(acc);
            out["key"] = e.input.at("key");
            out["salt"] = e.input.at("salt");
            return out;
        };
        return def;
    }

    std::string
    genFunction(bool allow_calls)
    {
        FunctionDef def = genBody(allow_calls);
        def.name = nextName();
        app_->functions.push_back(std::move(def));
        return app_->functions.back().name;
    }

    /** Loop condition: true while input.iter < 2. */
    std::string
    genLoopCondFunction()
    {
        FunctionDef def;
        def.name = nextName();
        def.body.push_back(Op::compute(msToTicks(1.5)));
        def.output = [](const Env& e) {
            return Value(intOr(e.input.at("iter"), 0) < 2);
        };
        app_->functions.push_back(std::move(def));
        return app_->functions.back().name;
    }

    /** Loop body: passes the input through with iter incremented. */
    std::string
    genLoopBodyFunction()
    {
        FunctionDef def;
        def.name = nextName();
        def.body.push_back(Op::compute(msToTicks(2.0)));
        def.output = [](const Env& e) {
            // A loop placed right after a parallel block receives the
            // join's ARRAY carry; restart from an object in that case.
            Value out =
                e.input.isObject() ? e.input : Value::object({});
            out["iter"] = Value(intOr(e.input.at("iter"), 0) + 1);
            return out;
        };
        app_->functions.push_back(std::move(def));
        return app_->functions.back().name;
    }

    /**
     * Loop body with a storage-carried dependence: read a record,
     * fold it, write it back, then increment iter in the carry. Each
     * iteration depends on the previous one through the store.
     */
    std::string
    genLoopCarryFunction()
    {
        FunctionDef def;
        def.name = nextName();
        def.body.push_back(Op::compute(msToTicks(2.0)));
        def.body.push_back(Op::storageRead(
            [zone = zone_](const Env& e) {
                return strFormat(
                    "fz%d_0:%s", zone,
                    e.input.at("key").toString().c_str());
            },
            "acc"));
        def.body.push_back(Op::storageWrite(
            [zone = zone_](const Env& e) {
                return strFormat(
                    "fz%d_0:%s", zone,
                    e.input.at("key").toString().c_str());
            },
            [](const Env& e) {
                const Value& prev = e.var("acc");
                const std::int64_t prior =
                    prev.isObject() ? intOr(prev.at("v"), 0) : 0;
                Value rec = Value::object({});
                rec["v"] = Value(
                    (prior * 7 + intOr(e.input.at("salt"), 1) + 1) %
                    1009);
                return rec;
            }));
        def.output = [](const Env& e) {
            Value out =
                e.input.isObject() ? e.input : Value::object({});
            out["iter"] = Value(intOr(e.input.at("iter"), 0) + 1);
            return out;
        };
        app_->functions.push_back(std::move(def));
        return app_->functions.back().name;
    }

    std::string
    genCondFunction()
    {
        FunctionDef def;
        def.name = nextName();
        def.body.push_back(
            Op::compute(msToTicks(rng_.uniform(1.0, 4.0))));
        const int field = static_cast<int>(
            rng_.uniformInt(std::int64_t{0}, std::int64_t{2}));
        def.output = [field](const Env& e) {
            return e.input.at(strFormat("b%d", field));
        };
        app_->functions.push_back(std::move(def));
        return app_->functions.back().name;
    }

    void
    finishApp(Application& app)
    {
        app.inputGen = [](Rng& rng) {
            Value v = Value::object({});
            v["key"] = Value(strFormat(
                "k%llu",
                static_cast<unsigned long long>(rng.zipf(12, 1.4))));
            v["salt"] = Value(rng.uniformInt(std::int64_t{0},
                                             std::int64_t{5}));
            for (int b = 0; b < 3; ++b)
                v[strFormat("b%d", b)] = Value(rng.bernoulli(0.85));
            return v;
        };
        const int zones = nextZone_;
        app.seedStore = [zones](KvStore& store, Rng& rng) {
            for (int zone = 0; zone < zones; ++zone) {
                for (int bank = 0; bank < 4; ++bank) {
                    for (int k = 0; k < 12; ++k) {
                        store.put(
                            strFormat("fz%d_%d:\"k%d\"", zone, bank,
                                      k),
                            Value::object(
                                {{"v", Value(rng.uniformInt(
                                          std::int64_t{0},
                                          std::int64_t{99}))}}));
                    }
                }
            }
        };
    }

    Rng rng_;
    Application* app_ = nullptr;
    std::uint32_t counter_ = 0;
    int zone_ = 0;
    int nextZone_ = 1;
};

/** Everything an equivalence check compares after a run. */
struct Outcome
{
    std::vector<Value> responses;
    std::uint64_t fingerprint = 0;
    /** Engine counters (zero on a baseline run). */
    std::uint64_t squashes = 0;
    std::uint64_t speculativeLaunches = 0;
    std::uint64_t commits = 0;
};

/**
 * Run @p requests dataset-drawn requests serially on one engine.
 * @p context isolates the run's ids/trace/counters when harnesses
 * execute many runs in one process (null = default context).
 */
inline Outcome
runApp(const Application& app, bool speculative, SpecConfig config,
       std::uint64_t seed, std::size_t requests,
       SimContext* context = nullptr)
{
    PlatformOptions options;
    options.speculative = speculative;
    options.spec = config;
    options.seed = seed;
    options.context = context;
    FaasPlatform platform(options);
    platform.deploy(app);
    Outcome out;
    for (std::size_t i = 0; i < requests; ++i) {
        Value input = app.inputGen(platform.inputRng());
        auto r = platform.invokeSync(app, std::move(input));
        out.responses.push_back(r.response);
    }
    out.fingerprint = platform.store().fingerprint();
    if (auto* spec = platform.specController(); spec != nullptr) {
        const auto& c = spec->counters();
        out.squashes = c.value("spec.squashes");
        out.speculativeLaunches = c.value("spec.speculative_launches");
        out.commits = c.value("spec.commits");
    }
    return out;
}

/** Run an explicit list of inputs (e.g. the same input repeatedly, to
 * drive the memoized-replay fast paths). */
inline Outcome
runAppInputs(const Application& app, bool speculative, SpecConfig config,
             std::uint64_t seed, const std::vector<Value>& inputs,
             SimContext* context = nullptr)
{
    PlatformOptions options;
    options.speculative = speculative;
    options.spec = config;
    options.seed = seed;
    options.context = context;
    FaasPlatform platform(options);
    platform.deploy(app);
    Outcome out;
    for (const Value& input : inputs) {
        auto r = platform.invokeSync(app, Value(input));
        out.responses.push_back(r.response);
    }
    out.fingerprint = platform.store().fingerprint();
    if (auto* spec = platform.specController(); spec != nullptr) {
        const auto& c = spec->counters();
        out.squashes = c.value("spec.squashes");
        out.speculativeLaunches = c.value("spec.speculative_launches");
        out.commits = c.value("spec.commits");
    }
    return out;
}

/** Deployed function names, for fault plans targeting real functions. */
inline std::vector<std::string>
functionNames(const Application& app)
{
    std::vector<std::string> names;
    names.reserve(app.functions.size());
    for (const auto& f : app.functions)
        names.push_back(f.name);
    return names;
}

/** A chaos run's comparable outcome plus its liveness verdict. */
struct ChaosOutcome
{
    std::vector<Value> responses;
    std::uint64_t fingerprint = 0;
    /** False when a request failed to terminate within the step cap. */
    bool allTerminated = true;
    std::uint64_t faultsInjected = 0;
    std::uint64_t retries = 0;
    std::uint64_t gaveUp = 0;
    /** Per-kind injection tallies, indexed by FaultKind. */
    std::array<std::uint64_t, 7> injectedByKind{};

    /**
     * @{ What the drained run still holds. Pending daemon events are
     * not counted: SpecController's graveyard drain stays queued
     * after run() by design.
     */
    std::size_t liveInvocations = 0;
    std::size_t liveSlots = 0; ///< SpecController pipeline slots
    std::size_t busyContainers = 0;
    std::uint32_t workerBusyCores = 0;
    std::uint32_t controllerBusyCores = 0;
    /** @} */

    /** Nothing leaked: every count above is zero. */
    bool
    quiet() const
    {
        return liveInvocations == 0 && liveSlots == 0 &&
               busyContainers == 0 && workerBusyCores == 0 &&
               controllerBusyCores == 0;
    }

    /** The five leftover counts, for a failure message. */
    std::string
    leftovers() const
    {
        return strFormat("invocations=%zu slots=%zu containers=%zu "
                         "worker-cores=%u controller-cores=%u",
                         liveInvocations, liveSlots, busyContainers,
                         workerBusyCores, controllerBusyCores);
    }
};

/**
 * Run @p requests requests serially under @p plan on one engine,
 * with a bounded event loop so a liveness bug surfaces as
 * allTerminated=false instead of a hang. A small warm pool keeps
 * cold starts (and cold-start crashes) in play.
 */
inline ChaosOutcome
runChaos(const Application& app, bool speculative, SpecConfig config,
         std::uint64_t seed, std::size_t requests, const FaultPlan& plan,
         std::uint32_t prewarm = 4, SimContext* context = nullptr)
{
    PlatformOptions options;
    options.speculative = speculative;
    options.spec = config;
    options.seed = seed;
    options.faultPlan = plan;
    options.prewarmPerFunction = prewarm;
    options.context = context;
    FaasPlatform platform(options);
    platform.deploy(app);

    ChaosOutcome out;
    for (std::size_t i = 0; i < requests; ++i) {
        Value input = app.inputGen(platform.inputRng());
        bool finished = false;
        InvocationResult result;
        platform.engine().invoke(app, std::move(input),
                                 [&](InvocationResult r) {
                                     result = std::move(r);
                                     finished = true;
                                 });
        std::size_t steps = 0;
        constexpr std::size_t kStepCap = 5'000'000;
        while (!finished && steps < kStepCap &&
               platform.sim().events().runOne()) {
            ++steps;
        }
        if (!finished) {
            out.allTerminated = false;
            break;
        }
        out.responses.push_back(result.response);
    }
    // Drain stragglers (lazy squashes, pending retries of dead
    // invocations) so the store settles before fingerprinting — but
    // not after a liveness failure, where draining could spin too.
    if (out.allTerminated)
        platform.sim().events().run();
    Fleet& fleet = platform.cluster().fleet();
    out.liveInvocations = platform.engine().liveInvocations();
    if (const auto* spec = platform.specController(); spec != nullptr)
        out.liveSlots = spec->liveSlotCount();
    out.busyContainers = fleet.containers().busyContainers().liveCount();
    out.workerBusyCores = fleet.allWorkerBusyCores();
    out.controllerBusyCores = fleet.controller().busyCores();
    out.fingerprint = platform.store().fingerprint();
    if (auto* fi = platform.faultInjector(); fi != nullptr) {
        out.faultsInjected = fi->injectedTotal();
        out.retries = fi->retries();
        out.gaveUp = fi->gaveUp();
        for (int k = 0; k < 7; ++k) {
            out.injectedByKind[static_cast<std::size_t>(k)] =
                fi->injected(static_cast<FaultKind>(k));
        }
    }
    return out;
}

} // namespace fuzz
} // namespace specfaas

#endif // SPECFAAS_TESTS_FUZZ_APPS_HH
