/**
 * @file
 * Named counters.
 *
 * Replaces the ad-hoc tally structs scattered through the execution
 * engines with one queryable registry. Hot paths register a counter
 * once and increment through the returned reference (references are
 * stable: storage is a node-based map), so steady-state cost is a
 * single integer increment.
 *
 * Each SimContext owns one registry aggregating across the platform
 * instances of its simulation: engines merge their per-run registries
 * into it on destruction, which is what the bench binaries print
 * under --counters.
 */

#ifndef SPECFAAS_OBS_COUNTER_REGISTRY_HH
#define SPECFAAS_OBS_COUNTER_REGISTRY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specfaas::obs {

/** Registry of named monotonic counters. */
class CounterRegistry
{
  public:
    /**
     * The counter named @p name, created at zero on first use. The
     * returned reference stays valid for the registry's lifetime.
     */
    std::uint64_t& counter(const std::string& name);

    /** Add @p delta to the counter named @p name. */
    void add(const std::string& name, std::uint64_t delta);

    /** Counter value, 0 when absent (no entry is created). */
    std::uint64_t value(const std::string& name) const;

    /** All counters as (name, value), sorted by name. */
    std::vector<std::pair<std::string, double>> snapshot() const;

    /** Number of registered counters. */
    std::size_t entryCount() const { return counters_.size(); }

    /** Accumulate every counter of this registry into @p dst. */
    void mergeInto(CounterRegistry& dst) const;

    /** Render as an aligned two-column table. */
    std::string table() const;

    /** Render and write to stdout. */
    void printTable() const;

    /** Drop all counters. */
    void clear();

  private:
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_COUNTER_REGISTRY_HH
