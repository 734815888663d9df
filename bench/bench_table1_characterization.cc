/**
 * @file
 * Regenerates Table I: characterization of the three application
 * suites — number of applications and, per application on average:
 * functions, cross-function branches, data dependences, callees per
 * calling function, max DAG depth, and warm execution time.
 */

#include "bench_common.hh"

#include "platform/platform.hh"

using namespace specfaas;
using namespace specfaas::bench;

namespace {

struct SuiteRow
{
    std::string name;
    std::string type;
    std::size_t apps = 0;
    double functions = 0.0;
    double branches = 0.0;
    double dataDeps = 0.0;
    double callees = 0.0;
    std::size_t maxDepth = 0;
    double execMs = 0.0;
};

SuiteRow
characterize(const std::string& suite_name,
             const std::vector<const Application*>& apps)
{
    SuiteRow row;
    row.name = suite_name;
    row.apps = apps.size();
    row.type = apps.front()->type == WorkflowType::Explicit
                   ? "Explicit"
                   : "Implicit";
    for (const Application* app : apps) {
        row.functions += static_cast<double>(app->functionCount());
        row.branches += static_cast<double>(app->branchCount());
        row.dataDeps += static_cast<double>(app->dataDependenceCount());
        row.callees += app->avgCalleesPerCallingFunction();
        row.maxDepth = std::max(row.maxDepth, app->maxDagDepth());

        // Warm execution time: mean baseline response over serial
        // requests (like the paper's Table I measurement).
        EngineSetup setup = baselineSetup();
        setup.trainingInvocations = 5;
        row.execMs += Experiment::unloadedResponseMs(*app, setup, 10);
    }
    const auto n = static_cast<double>(apps.size());
    row.functions /= n;
    row.branches /= n;
    row.dataDeps /= n;
    row.callees /= n;
    row.execMs /= n;
    return row;
}

} // namespace

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Table I: FaaS application suites considered");
    auto registry = makeAllSuites();

    TextTable table;
    table.header({"Characteristic", "Alibaba", "TrainTicket",
                  "FaaSChain"});

    std::vector<SuiteRow> rows;
    for (const char* suite : {"Alibaba", "TrainTicket", "FaaSChain"})
        rows.push_back(characterize(suite, registry->suite(suite)));

    auto cell = [&](auto get) {
        return std::vector<std::string>{get(rows[0]), get(rows[1]),
                                        get(rows[2])};
    };
    auto push = [&](const std::string& label,
                    std::vector<std::string> cells) {
        cells.insert(cells.begin(), label);
        table.row(std::move(cells));
    };

    push("Workflow Type", cell([](const SuiteRow& r) { return r.type; }));
    push("# of Applications", cell([](const SuiteRow& r) {
             return strFormat("%zu", r.apps);
         }));
    push("Avg # Functions", cell([](const SuiteRow& r) {
             return fmtDouble(r.functions, 1);
         }));
    push("Avg # Branches", cell([](const SuiteRow& r) {
             return r.type == "Implicit" && r.name == "Alibaba"
                        ? std::string("N/A")
                        : fmtDouble(r.branches, 1);
         }));
    push("Avg # Data Deps.", cell([](const SuiteRow& r) {
             return fmtDouble(r.dataDeps, 1);
         }));
    push("Avg # Callees/Func.", cell([](const SuiteRow& r) {
             return r.type == "Explicit" ? std::string("N/A")
                                         : fmtDouble(r.callees, 1);
         }));
    push("Max DAG Depth", cell([](const SuiteRow& r) {
             return strFormat("%zu", r.maxDepth);
         }));
    push("Avg Exec. Time (ms)", cell([](const SuiteRow& r) {
             return fmtDouble(r.execMs, 1);
         }));

    table.print();
    for (const SuiteRow& r : rows) {
        obs.report().addMetric(
            strFormat("avg_exec_ms.%s", r.name.c_str()), r.execMs, "ms");
    }
    std::printf("\nPaper reference: Alibaba 17.6 funcs / depth 5 / "
                "387.2 ms; TrainTicket 11.2 / 3 / 268.8 ms; FaaSChain "
                "7.8 / 10 / 160.0 ms\n");
    return 0;
}
