/**
 * @file
 * Machine-readable run reports.
 *
 * Every bench binary can emit a schema-versioned JSON report
 * (--json-out=<file>) holding the run configuration, headline
 * metrics, the counter snapshot and the trace-driven critical-path
 * breakdown. Reports are byte-deterministic
 * for a fixed seed — no wall-clock timestamps, sorted object keys,
 * shortest-round-trip number rendering — so a report's bytes are its
 * identity: CI gates the committed BENCH_*.json snapshots with a plain
 * `diff`, and tests assert byte equality.
 *
 * The same header provides the JSON renderer (the repo's Value is the
 * document model; its toString() is not valid JSON).
 */

#ifndef SPECFAAS_OBS_JSON_REPORT_HH
#define SPECFAAS_OBS_JSON_REPORT_HH

#include <string>

#include "common/value.hh"
#include "obs/counter_registry.hh"
#include "obs/critical_path.hh"

namespace specfaas::obs {

/** Report schema identifier; bump on incompatible layout changes. */
inline constexpr const char* kReportSchema = "specfaas-report/3";

/**
 * Render @p v as standards-compliant JSON: escaped strings, sorted
 * object keys (Value objects are std::map), shortest-round-trip
 * doubles; NaN and infinities become null. @p pretty adds 2-space
 * indentation.
 */
std::string toJson(const Value& v, bool pretty = true);

/** @{ Report-section conversions. */
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

    /** Record a headline metric. */
    void addMetric(const std::string& name, double value,
                   const std::string& unit = "");

    /** Attach a free-form section (run summaries, app tables, ...). */
    void addSection(const std::string& name, Value v);

    /** Assemble the full document. */
    Value build() const;

    /** Render build() and write it to @p path. */
    bool writeFile(const std::string& path) const;

  private:
    std::string bench_;
    ValueObject config_;
    ValueObject metrics_;
    ValueObject sections_;
};

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_JSON_REPORT_HH
