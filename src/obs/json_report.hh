/**
 * @file
 * Machine-readable run reports.
 *
 * Every bench binary can emit a schema-versioned JSON report
 * (--json-out=<file>) holding the run configuration, headline
 * metrics, latency histograms, the counter snapshot and the
 * trace-driven critical-path breakdown. Reports are byte-deterministic
 * for a fixed seed — no wall-clock timestamps, sorted object keys,
 * shortest-round-trip number rendering — so CI can diff them and
 * tests can assert byte equality.
 *
 * The same header provides the JSON renderer/parser (the repo's Value
 * is the document model; its toString() is not valid JSON) and
 * compareReports(), the regression check behind bench/compare_reports.
 */

#ifndef SPECFAAS_OBS_JSON_REPORT_HH
#define SPECFAAS_OBS_JSON_REPORT_HH

#include <string>
#include <vector>

#include "common/value.hh"
#include "obs/counter_registry.hh"
#include "obs/critical_path.hh"
#include "obs/histogram.hh"

namespace specfaas::obs {

/** Report schema identifier; bump on incompatible layout changes. */
inline constexpr const char* kReportSchema = "specfaas-report/1";

/**
 * Render @p v as standards-compliant JSON: escaped strings, sorted
 * object keys (Value objects are std::map), shortest-round-trip
 * doubles; NaN and infinities become null. @p pretty adds 2-space
 * indentation.
 */
std::string toJson(const Value& v, bool pretty = true);

/**
 * Parse a JSON document into a Value. Numbers without '.', 'e' or 'E'
 * that fit an int64 parse as Int, everything else as Double.
 * @return false (and *error, when given) on malformed input
 */
bool parseJson(const std::string& text, Value& out,
               std::string* error = nullptr);

/** @{ Report-section conversions. */
Value toValue(const LatencyHistogram& h);
Value toValue(const CriticalPathReport& r);
Value counterSnapshotValue(const CounterRegistry& reg);
/** @} */

/**
 * Accumulates one bench run's report. Bench code records config and
 * metrics unconditionally (the cost is negligible); ObsSession
 * finalizes and writes the file only when --json-out was given.
 */
class JsonReport
{
  public:
    /** @param benchName stable bench identifier, e.g. "fig11_speedup" */
    explicit JsonReport(std::string benchName = "");

    void setBenchName(std::string name) { bench_ = std::move(name); }
    const std::string& benchName() const { return bench_; }

    /** Echo one configuration entry (seed, load, app set, ...). */
    void setConfig(const std::string& key, Value v);

    /**
     * Record a headline metric. @p higherIsBetter tells
     * compareReports which direction is a regression.
     */
    void addMetric(const std::string& name, double value,
                   bool higherIsBetter, const std::string& unit = "");

    /** Attach a free-form section (run summaries, app tables, ...). */
    void addSection(const std::string& name, Value v);

    /** Attach a latency histogram with standard percentiles. */
    void addHistogram(const std::string& name,
                      const LatencyHistogram& h);

    /** Assemble the full document. */
    Value build() const;

    /** Render build() and write it to @p path. */
    bool writeFile(const std::string& path) const;

  private:
    std::string bench_;
    ValueObject config_;
    ValueObject metrics_;
    ValueObject sections_;
    ValueObject histograms_;
};

/** Tolerances for compareReports. */
struct CompareOptions
{
    /**
     * Allowed relative change of a metric in its bad direction
     * (0.05 = 5%). Changes in the good direction never fail unless
     * @ref twoSided is set.
     */
    double relTolerance = 0.05;
    /** Ignore changes smaller than this in absolute value. */
    double absTolerance = 1e-9;
    /**
     * Treat any change beyond the tolerances as a failure, regardless
     * of direction. This is what identity gates want: the metrics are
     * the deterministic fingerprint of a run (event counts, ticks),
     * where drifting "better" is just as much a behaviour change as
     * drifting worse.
     */
    bool twoSided = false;
};

/** Outcome of comparing a candidate report against a baseline. */
struct CompareResult
{
    /** Schema/bench identity errors and missing metrics. */
    std::vector<std::string> errors;
    /** Metrics beyond tolerance in the bad direction. */
    std::vector<std::string> regressions;
    /** Informational: metrics that moved (either direction). */
    std::vector<std::string> notes;

    bool ok() const { return errors.empty() && regressions.empty(); }
};

/**
 * Compare two parsed reports metric-by-metric. Fails on schema or
 * bench-name mismatch, on metrics missing from the candidate, and on
 * any metric whose bad-direction change exceeds the tolerance.
 */
CompareResult compareReports(const Value& baseline,
                             const Value& candidate,
                             const CompareOptions& opts = {});

/**
 * Load, parse and compare two report files — the testable body of
 * the bench/compare_reports CLI. Appends the human-readable result
 * lines (the exact text the CLI prints) to @p output when non-null.
 * @return the CLI exit status: 0 within tolerance, 1 on regressions
 *         or report mismatches, 2 on IO/parse errors
 */
int compareReportFiles(const std::string& baselinePath,
                       const std::string& candidatePath,
                       const CompareOptions& opts = {},
                       std::string* output = nullptr);

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_JSON_REPORT_HH
