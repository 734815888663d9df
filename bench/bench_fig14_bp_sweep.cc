/**
 * @file
 * Regenerates Fig. 14: SpecFaaS speedup on the FaaSChain applications
 * (averaged across loads) as the branch-predictor hit rate varies.
 * As in the paper, branch outcomes are synthetic (§VII): the dataset
 * bias sets the dominant-direction probability, which the predictor's
 * steady-state hit rate tracks — 100/90/70/50%.
 */

#include "bench_common.hh"

using namespace specfaas;
using namespace specfaas::bench;

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    const std::size_t jobs = jobsArg(argc, argv);
    banner("Fig. 14: speedup vs branch-prediction hit rate "
           "(FaaSChain)");

    const std::vector<double> biases = {1.0, 0.9, 0.7, 0.5};

    TextTable table;
    std::vector<std::string> header = {"Application"};
    for (double b : biases)
        header.push_back(strFormat("%.0f%% hit", b * 100));
    table.header(std::move(header));

    std::map<double, std::vector<double>> per_bias;
    SuiteOptions probe_options;
    auto probe = makeAllSuites(probe_options);
    std::vector<std::string> names;
    for (const Application* app : probe->suite("FaaSChain"))
        names.push_back(app->name);

    std::vector<std::vector<std::string>> rows(
        names.size(), std::vector<std::string>());
    for (std::size_t i = 0; i < names.size(); ++i)
        rows[i].push_back(names[i]);

    // One task per (bias, app, load); registries for every bias are
    // built up front so the task lambdas can borrow the Application
    // pointers for the duration of the parallel batch.
    const std::vector<double> loads = loadLevels();
    std::vector<std::unique_ptr<ApplicationRegistry>> registries;
    std::vector<std::function<double(SimContext&)>> tasks;
    for (double bias : biases) {
        SuiteOptions options;
        options.faasChain.branchBias = bias;
        registries.push_back(makeAllSuites(options));
        for (const Application* app :
             registries.back()->suite("FaaSChain")) {
            for (double rps : loads) {
                tasks.push_back([app, rps](SimContext& context) {
                    EngineSetup base = baselineSetup();
                    // The sweep measures prediction quality directly,
                    // so the dead band (which would refuse 50/50
                    // branches) is off.
                    EngineSetup spec = specSetup();
                    spec.spec.bpDeadBand = 0.0;
                    base.context = &context;
                    spec.context = &context;
                    return Experiment::speedupAtLoad(*app, base, spec,
                                                     rps, 200);
                });
            }
        }
    }
    const std::vector<double> results =
        runSimTasks<double>(jobs, std::move(tasks));

    std::size_t cursor = 0;
    for (double bias : biases) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            std::vector<double> speedups;
            for (std::size_t l = 0; l < loads.size(); ++l)
                speedups.push_back(results[cursor++]);
            const double avg = mean(speedups);
            per_bias[bias].push_back(avg);
            rows[i].push_back(fmtRatio(avg));
        }
    }
    for (auto& row : rows)
        table.row(std::move(row));
    table.separator();
    std::vector<std::string> avg_row = {"Average"};
    double perfect = 0.0;
    for (double bias : biases) {
        const double avg = mean(per_bias[bias]);
        if (bias == 1.0)
            perfect = avg;
        avg_row.push_back(fmtRatio(avg));
        obs.report().addMetric(
            strFormat("avg_speedup.hit%.0f", bias * 100), avg, "x");
    }
    table.row(std::move(avg_row));
    table.print();

    const double at90 = mean(per_bias[0.9]);
    std::printf("\nDrop from perfect to 90%% hit rate: %.1f%% "
                "(paper: 5.7%%). Speedups then fall substantially "
                "toward the 50%% hit rate, as in the paper.\n",
                100.0 * (perfect - at90) / perfect);
    return 0;
}
