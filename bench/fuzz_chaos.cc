/**
 * @file
 * Standalone chaos differential fuzzer.
 *
 *     fuzz_chaos [--seeds=<lo>:<hi>] [--requests=<n>] [--plans=<n>]
 *
 * Runs the same differential check as the ChaosEquivalence ctest
 * suite over an arbitrary seed range: for each app seed, generate a
 * random application (explicit workflows on even seeds, implicit
 * call trees on odd) and a batch of random fault plans, run both
 * engines under the identical plan, and require termination, a
 * quiet drained run (no live invocation, pipeline slot, busy
 * container or busy core), equal responses and an equal final-store
 * fingerprint.
 *
 * Cases are independent simulations, so `--jobs=<n>` fans them out
 * across n worker threads (0 = all hardware threads). Each case runs
 * against a private SimContext and its diagnostics are buffered, then
 * everything is emitted in case order — stdout, the exit status and
 * the merged counters are byte-identical to a `--jobs=1` run.
 *
 * On a failure the app kind, both seeds and the plan's text spec are
 * printed — append `<kind> <app-seed> <plan-seed>` to
 * tests/corpus/chaos_seeds.txt to pin the case as a regression test
 * (see the corpus header for the workflow). Exit status 1 on any
 * divergence, hang or leak, 0 when the whole range is clean.
 */

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "fuzz_apps.hh"
#include "platform/platform.hh"
#include "sim/sim_context.hh"

using namespace specfaas;

namespace {

int
usage()
{
    std::fprintf(stderr, "usage: fuzz_chaos [--seeds=<lo>:<hi>] "
                         "[--requests=<n>] [--plans=<n>] "
                         "[--jobs=<n>]\n");
    return 2;
}

SpecConfig
aggressiveConfig()
{
    SpecConfig aggressive;
    aggressive.bpDeadBand = 0.0;
    aggressive.stallThreshold = 2;
    return aggressive;
}

struct CaseId
{
    bool explicitApp;
    std::uint64_t appSeed;
    std::uint64_t planSeed;

    const char* kind() const
    {
        return explicitApp ? "explicit" : "implicit";
    }
};

/** Outcome of one chaos case; log is non-empty only on failure. */
struct CaseResult
{
    bool passed = false;
    std::string log;
};

void
appendf(std::string& out, const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    out += buf;
}

void
reportFailure(std::string& log, const CaseId& id,
              const FaultPlan& plan, const char* what)
{
    appendf(log, "FAIL %s app-seed %llu plan-seed %llu: %s\n",
            id.kind(), static_cast<unsigned long long>(id.appSeed),
            static_cast<unsigned long long>(id.planSeed), what);
    appendf(log, "  corpus line: %s %llu %llu\n", id.kind(),
            static_cast<unsigned long long>(id.appSeed),
            static_cast<unsigned long long>(id.planSeed));
    appendf(log, "  fault plan:\n%s", plan.toSpec().c_str());
}

CaseResult
runCase(const CaseId& id, std::size_t requests, SimContext& context)
{
    // Mirrors chaosApp()/chaosPlan() in tests/test_chaos_equivalence.cc
    // so corpus lines mean the same thing in both drivers.
    fuzz::AppFuzzer fuzzer(id.appSeed * 2654435761ull + 101);
    const Application app =
        id.explicitApp ? fuzzer.explicitApp() : fuzzer.implicitApp();
    Rng plan_rng(id.planSeed * 1000003ull + 29);
    const FaultPlan plan = FaultPlan::random(
        plan_rng, fuzz::functionNames(app), ClusterConfig{}.numNodes);

    const fuzz::ChaosOutcome base =
        fuzz::runChaos(app, false, {}, 53, requests, plan, 4, &context);
    const fuzz::ChaosOutcome spec =
        fuzz::runChaos(app, true, aggressiveConfig(), 53, requests,
                       plan, 4, &context);

    CaseResult result;
    if (!base.allTerminated) {
        reportFailure(result.log, id, plan,
                      "baseline request did not terminate");
        return result;
    }
    if (!spec.allTerminated) {
        reportFailure(result.log, id, plan,
                      "speculative request did not terminate");
        return result;
    }
    // A drained run holds no invocation, slot, busy container or
    // busy core: anything left is a leak the responses cannot show.
    for (const fuzz::ChaosOutcome* out : {&base, &spec}) {
        if (out->quiet())
            continue;
        reportFailure(result.log, id, plan,
                      out == &base ? "baseline run did not quiesce"
                                   : "speculative run did not quiesce");
        appendf(result.log, "  leftovers: %s\n", out->leftovers().c_str());
        return result;
    }
    if (base.responses.size() != spec.responses.size()) {
        reportFailure(result.log, id, plan, "response counts differ");
        return result;
    }
    for (std::size_t i = 0; i < base.responses.size(); ++i) {
        if (base.responses[i].toString() !=
            spec.responses[i].toString()) {
            reportFailure(result.log, id, plan, "responses diverged");
            appendf(result.log,
                    "  request %zu\n    baseline: %s\n    "
                    "speculative: %s\n",
                    i, base.responses[i].toString().c_str(),
                    spec.responses[i].toString().c_str());
            return result;
        }
    }
    if (base.fingerprint != spec.fingerprint) {
        reportFailure(result.log, id, plan,
                      "final store state diverged");
        return result;
    }
    result.passed = true;
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 100;
    std::size_t requests = 10;
    std::uint64_t plans = 2;
    std::size_t jobs = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            if (!parseJobsValue(argv[i] + 7, jobs))
                return usage();
            if (jobs == 0)
                jobs = defaultJobs();
        } else if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
            char* end = nullptr;
            lo = std::strtoull(argv[i] + 8, &end, 10);
            if (end == nullptr || *end != ':')
                return usage();
            hi = std::strtoull(end + 1, &end, 10);
            if (*end != '\0' || hi <= lo)
                return usage();
        } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
            requests = std::strtoull(argv[i] + 11, nullptr, 10);
            if (requests == 0)
                return usage();
        } else if (std::strncmp(argv[i], "--plans=", 8) == 0) {
            plans = std::strtoull(argv[i] + 8, nullptr, 10);
            if (plans == 0)
                return usage();
        } else {
            return usage();
        }
    }

    std::vector<CaseId> ids;
    for (std::uint64_t seed = lo; seed < hi; ++seed)
        for (std::uint64_t p = 0; p < plans; ++p)
            ids.push_back({seed % 2 == 0, seed, seed * plans + p});
    const std::uint64_t cases = ids.size();

    // Run in bounded slabs so wide seed ranges never hold tens of
    // thousands of forked contexts alive at once. Slabs execute in
    // case order and each slab's results are emitted in case order,
    // so stdout and the exit status do not depend on --jobs.
    constexpr std::size_t kSlab = 1024;
    std::uint64_t failures = 0;
    for (std::size_t base = 0; base < ids.size(); base += kSlab) {
        const std::size_t count =
            std::min(kSlab, ids.size() - base);
        std::vector<std::function<CaseResult(SimContext&)>> tasks;
        tasks.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            const CaseId id = ids[base + i];
            tasks.push_back([id, requests](SimContext& context) {
                return runCase(id, requests, context);
            });
        }
        for (const CaseResult& result :
             runSimTasks<CaseResult>(jobs, std::move(tasks))) {
            if (!result.passed)
                ++failures;
            std::fputs(result.log.c_str(), stdout);
        }
    }

    std::printf("%llu/%llu chaos cases passed (seeds [%llu, %llu), "
                "%llu plan(s) each, %zu requests)\n",
                static_cast<unsigned long long>(cases - failures),
                static_cast<unsigned long long>(cases),
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(plans), requests);
    return failures == 0 ? 0 : 1;
}
