/**
 * @file
 * Regenerates Observations 3 and 5: a static census of the deployed
 * functions' global-state behaviour and side effects.
 *
 * Observation 3: most functions do not read writable global state;
 * many do not write global state at all. Observation 5: functions
 * that do have side effects exhibit only three kinds — global-storage
 * writes, temporary local-file writes, and HTTP requests.
 */

#include "bench_common.hh"

using namespace specfaas;
using namespace specfaas::bench;

int
main(int argc, char** argv)
{
    obs::ObsSession obs(argc, argv);
    banner("Observations 3 & 5: global state and side-effect census");
    auto registry = makeAllSuites();

    TextTable table;
    table.header({"Suite", "Functions", "No global read",
                  "No global write", "No side effects",
                  "Storage writes", "File writes", "HTTP"});

    std::size_t all_total = 0;
    std::size_t all_pure = 0;
    for (const char* suite : {"Alibaba", "TrainTicket", "FaaSChain"}) {
        std::size_t total = 0;
        std::size_t no_read = 0;
        std::size_t no_write = 0;
        std::size_t no_side_effects = 0;
        std::size_t storage_writers = 0;
        std::size_t file_writers = 0;
        std::size_t http = 0;
        for (const Application* app : registry->suite(suite)) {
            for (const auto& f : app->functions) {
                ++total;
                if (!f.readsGlobalState())
                    ++no_read;
                if (!f.writesGlobalState())
                    ++no_write;
                if (!f.hasSideEffects())
                    ++no_side_effects;
                bool has_file = false;
                bool has_http = false;
                for (const auto& op : f.body) {
                    if (op.kind == Op::Kind::FileWrite)
                        has_file = true;
                    if (op.kind == Op::Kind::Http)
                        has_http = true;
                }
                if (f.writesGlobalState())
                    ++storage_writers;
                if (has_file)
                    ++file_writers;
                if (has_http)
                    ++http;
            }
        }
        all_total += total;
        all_pure += no_side_effects;
        auto pct = [total](std::size_t n) {
            return fmtPercent(static_cast<double>(n) /
                              static_cast<double>(total));
        };
        table.row({suite, strFormat("%zu", total), pct(no_read),
                   pct(no_write), pct(no_side_effects),
                   strFormat("%zu", storage_writers),
                   strFormat("%zu", file_writers),
                   strFormat("%zu", http)});
    }
    table.print();

    obs.report().addMetric("pure_function_fraction",
                           static_cast<double>(all_pure) /
                               static_cast<double>(all_total));
    std::printf("\nOverall: %.1f%% of the %zu deployed functions have "
                "no side effects at all.\n",
                100.0 * static_cast<double>(all_pure) /
                    static_cast<double>(all_total),
                all_total);
    std::printf("Paper reference: 75.8%% (TrainTicket) / 85.1%% "
                "(FaaSChain) of functions read no writable global "
                "state; 63.4%% of 110 surveyed functions have no side "
                "effects, and the rest only write storage, write temp "
                "files, or issue HTTP requests (Obs. 5).\n");
    return 0;
}
