/**
 * @file
 * Command-line session wrapper for the observability layer.
 *
 * A bench binary declares one ObsSession at the top of main(); the
 * constructor strips the observability flags out of argv (so existing
 * positional-argument handling keeps working) and the destructor
 * writes the trace file / JSON report and prints the counter table
 * after the run:
 *
 *     int main(int argc, char** argv) {
 *         obs::ObsSession obs(argc, argv);
 *         ...
 *         obs.report().addMetric("speedup", 4.6, "x");
 *     }
 *
 * Recognized flags:
 *   --trace-out=<file>       enable tracing; write a Chrome
 *                            trace_event JSON file (load in
 *                            chrome://tracing or ui.perfetto.dev)
 *   --trace-capacity=<n>     ring capacity in events (default 1M)
 *   --counters               print the global counter table on exit
 *   --json-out=<file>        write a schema-versioned JSON run report
 *                            (metrics, counters, critical-path
 *                            breakdown); implies tracing
 *   --profile                enable the zone profiler and print the
 *                            self-time table on exit; adds the
 *                            deterministic "profile" section to
 *                            --json-out reports
 *   --profile-out=<file>     write a collapsed-stack "folded" profile
 *                            (flamegraph.pl / speedscope input); runs
 *                            the zone profiler but adds no table and
 *                            no report section (that is --profile)
 *   --profile-value=<v>      folded value selector: "visits"
 *                            (default, byte-deterministic), "wall"
 *                            (self ns), or "allocs"
 */

#ifndef SPECFAAS_OBS_OBS_CLI_HH
#define SPECFAAS_OBS_OBS_CLI_HH

#include <string>

#include "obs/json_report.hh"
#include "obs/profiler.hh"

namespace specfaas {
class SimContext;
}

namespace specfaas::obs {

/** Scoped enable/flush of tracing, reporting, and counter printing. */
class ObsSession
{
  public:
    /**
     * Parse and remove observability flags from @p argc / @p argv.
     * Unrecognized arguments are left in place and keep their order.
     * A malformed flag value is fatal().
     */
    ObsSession(int& argc, char** argv);

    /** Flush: write trace file / JSON report, print counters. */
    ~ObsSession();

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /**
     * The run report. Benches record config and headline metrics
     * here unconditionally; it is written only under --json-out.
     */
    JsonReport& report() { return report_; }

    /**
     * The session's SimContext — the process-global default context
     * this session configured in its constructor and flushes in its
     * destructor. Parallel sweeps fork per-task contexts from it and
     * merge them back in submission order (see runSimTasks in
     * sim/sim_context.hh), so the flushed artifacts are identical to
     * a serial run's.
     */
    SimContext& context() const;

  private:
    std::string traceOut_;
    std::string jsonOut_;
    std::string profileOut_;
    bool printCounters_ = false;
    bool profile_ = false;
    Profiler::FoldedValue profileValue_ = Profiler::FoldedValue::Visits;
    JsonReport report_;
};

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_OBS_CLI_HH
