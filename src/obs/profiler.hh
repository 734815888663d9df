/**
 * @file
 * Deterministic self-profiling: scoped zones over a static site
 * registry.
 *
 * The external-SIGPROF workflow that diagnosed the PR-5 wall (see
 * EXPERIMENTS.md "Engine throughput") could say "the remainder is
 * diffuse" but not *where* the diffusion lives, and its output was
 * neither reproducible nor CI-gateable. This profiler makes the
 * engine measure itself:
 *
 *     void SpecController::walk(...) {
 *         OBS_ZONE(profiler_, "spec/walk");
 *         ...
 *     }
 *
 * Each OBS_ZONE site is interned once into a process-global registry
 * (zones with the same label aggregate, wherever they appear) and the
 * RAII scope records into the *per-simulation* Profiler owned by
 * SimContext, so parallel sweeps stay isolated and merge in
 * submission order exactly like trace events and counters.
 *
 * Every zone records two kinds of data:
 *
 *  - deterministic: visit counts and caller-attributed extra counts
 *    (ticks, slots, rows — whatever the site adds via addCount()).
 *    These are byte-reproducible across runs and job counts, land in
 *    the JSON report's "profile" section, and are CI-gated.
 *  - host-side: wall-clock nanoseconds and heap allocations (when a
 *    counting operator new registers itself via setAllocSource()).
 *    These rank the self-time table and the folded flamegraph output
 *    for humans and are never part of a deterministic artifact.
 *
 * Zones nest: the profiler maintains a path tree (root → enclosing
 * zones → leaf), so self time falls out as a node's inclusive time
 * minus its children's, and recursion cannot double-count — a zone
 * re-entered under itself is a distinct path node whose time is
 * already contained in the outer node's inclusive total.
 *
 * Cost: one predictable branch per scope while disabled (the scope
 * captures nullptr and the destructor tests it); roughly two clock
 * reads plus a cached child-path lookup while enabled.
 */

#ifndef SPECFAAS_OBS_PROFILER_HH
#define SPECFAAS_OBS_PROFILER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace specfaas::obs {

/**
 * Intern @p name into the process-global zone-site registry and
 * return its stable site id. Thread-safe; sites with the same name
 * map to the same id. Call once per call site (the OBS_ZONE macro
 * does this with a function-local static).
 */
std::uint32_t internZoneSite(const char* name);

/** Name of a registered site id. */
const std::string& zoneSiteName(std::uint32_t site);

/** Number of registered sites (diagnostics/tests). */
std::size_t zoneSiteCount();

/** Per-simulation zone profiler; one instance lives in SimContext. */
class Profiler
{
  public:
    /** How folded (collapsed-stack) output values one stack line. */
    enum class FoldedValue
    {
        Visits, ///< deterministic visit counts (byte-reproducible)
        WallNs, ///< self wall-clock nanoseconds (host-dependent)
        Allocs, ///< self heap allocations (needs setAllocSource)
    };

    /** One stack path with its recorded totals. */
    struct PathRow
    {
        /** Zone names, outermost first. */
        std::vector<std::string> stack;
        std::uint64_t visits = 0;
        std::uint64_t count = 0;  ///< caller-attributed, deterministic
        std::uint64_t wallNs = 0; ///< inclusive at this path
        std::uint64_t selfNs = 0; ///< wallNs minus children's wallNs
        std::uint64_t allocs = 0; ///< inclusive at this path
        std::uint64_t selfAllocs = 0;
    };

    /** Per-zone aggregate across every path the zone appears in. */
    struct ZoneRow
    {
        std::string name;
        std::uint64_t visits = 0;
        std::uint64_t count = 0;
        std::uint64_t selfNs = 0;
        /**
         * Inclusive time, counted only at a zone's outermost
         * occurrence on each path so recursion is not double-counted.
         */
        std::uint64_t totalNs = 0;
        std::uint64_t selfAllocs = 0;
        std::uint64_t totalAllocs = 0;
    };

    Profiler() = default;
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /** Start recording (drops previously recorded data). */
    void enable();

    /**
     * Stop recording. Scopes still open keep a pointer to this
     * profiler and will call exit() on destruction; exit() on a
     * disabled/empty profiler is a safe no-op, and the open frames
     * are discarded here so no partial spans survive.
     */
    void disable();

    /** True while zones are being recorded. Hot-path check. */
    bool enabled() const { return enabled_; }

    /** Drop all recorded data (registry stays interned). */
    void clear();

    /** True when at least one zone entry has been recorded. */
    bool hasData() const;

    /** @{ Hot path, called by ZoneScope. */
    void enter(std::uint32_t site);
    void exit();
    /** Add @p n to the current zone's deterministic count. */
    void addCount(std::uint64_t n)
    {
        if (current_ != 0)
            stats_[current_].count += n;
    }
    /** @} */

    /** Paths sorted by stack names (deterministic order). */
    std::vector<PathRow> pathRows() const;

    /** Zone aggregates sorted by name (deterministic order). */
    std::vector<ZoneRow> zoneRows() const;

    /**
     * Accumulate this profiler's recorded paths into @p dst
     * (creating path nodes there as needed). Merging a batch of task
     * profilers in submission order reproduces exactly the totals a
     * serial run would have recorded, so every deterministic output
     * is byte-identical at any job count.
     */
    void mergeInto(Profiler& dst) const;

    /**
     * Test hook: replace the wall clock with @p fn (nullptr restores
     * the real clock). Per-profiler, so tests stay isolated.
     */
    using ClockFn = std::uint64_t (*)();
    void setClockForTest(ClockFn fn) { clock_ = fn; }

    /**
     * Register the process-wide allocation counter the profiler reads
     * around each zone (a bench's counting operator new). Null (the
     * default) records zero allocations. Not owned.
     */
    static void setAllocSource(const std::atomic<std::uint64_t>* src);

  private:
    /** Path-tree node; node 0 is the root (no site). */
    struct Node
    {
        std::uint32_t parent;
        std::uint32_t site;
    };

    /** Recorded totals of one path node. */
    struct Stats
    {
        std::uint64_t visits = 0;
        std::uint64_t count = 0;
        std::uint64_t wallNs = 0;
        std::uint64_t allocs = 0;
    };

    /** One open scope. */
    struct Frame
    {
        std::uint32_t path;
        std::uint64_t startNs;
        std::uint64_t startAllocs;
    };

    std::uint64_t nowNs() const;
    std::uint64_t allocsNow() const;
    std::uint32_t childPathFor(std::uint32_t parent,
                               std::uint32_t site);

    bool enabled_ = false;
    ClockFn clock_ = nullptr;
    std::uint32_t current_ = 0; ///< path node of the innermost zone
    std::vector<Frame> stack_;
    std::vector<Node> nodes_{{0, 0}};
    std::vector<Stats> stats_{{}};
    /** (parent << 32 | site) → path node. */
    std::unordered_map<std::uint64_t, std::uint32_t> edges_;
    /** Per-site monomorphic {parent, node} cache for enter(). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> siteCache_;
};

/**
 * RAII zone scope. Captures the profiler only when it is enabled at
 * entry, so both construction and destruction cost one predictable
 * branch on a non-profiled run.
 */
class ZoneScope
{
  public:
    ZoneScope(Profiler& p, std::uint32_t site)
        : prof_(p.enabled() ? &p : nullptr)
    {
        if (prof_ != nullptr)
            prof_->enter(site);
    }

    /** Null-tolerant overload for layers holding an optional pointer. */
    ZoneScope(Profiler* p, std::uint32_t site)
        : prof_(p != nullptr && p->enabled() ? p : nullptr)
    {
        if (prof_ != nullptr)
            prof_->enter(site);
    }

    ~ZoneScope()
    {
        if (prof_ != nullptr)
            prof_->exit();
    }

    ZoneScope(const ZoneScope&) = delete;
    ZoneScope& operator=(const ZoneScope&) = delete;

    /** Add @p n to this zone's deterministic count. */
    void addCount(std::uint64_t n)
    {
        if (prof_ != nullptr)
            prof_->addCount(n);
    }

  private:
    Profiler* prof_;
};

/**
 * Render the profile as collapsed-stack "folded" text, one line per
 * path — `outer;inner <value>` — sorted lexicographically by path.
 * The format is what flamegraph.pl and speedscope consume directly.
 * Frame names are backslash-escaped (`;`, spaces, tabs, newlines and
 * `\` itself), so a zone name containing the frame or value
 * separator cannot corrupt the line structure; names without special
 * characters render byte-identically to the unescaped form.
 * Visits-valued output is byte-deterministic (and job-count
 * independent under the ordered merge); WallNs/Allocs output is for
 * human flamegraphs. Zero-valued paths are kept so a visits-valued
 * file always lists every path that was entered.
 */
std::string foldedProfile(const Profiler& p,
                          Profiler::FoldedValue value);

/** Write foldedProfile() to @p path. @return false on IO error. */
bool writeFoldedProfile(const Profiler& p, const std::string& path,
                        Profiler::FoldedValue value);

/**
 * Parse folded text back into (path, value) pairs in line order.
 * Paths are returned in their escaped on-disk form (escaping is the
 * identity for names without special characters). Input with raw
 * whitespace in a path, an unknown or dangling escape, a missing
 * value, or an empty path is rejected — a path that needed escaping
 * but wasn't is corruption, not data.
 * @return false on malformed input
 */
bool parseFolded(
    const std::string& text,
    std::vector<std::pair<std::string, std::uint64_t>>& out);

/** Self-time table (zoneRows ranked by self wall time) as text. */
std::string profileTable(const Profiler& p);

} // namespace specfaas::obs

// clang-format off
#define SPECFAAS_OBS_CONCAT2(a, b) a##b
#define SPECFAAS_OBS_CONCAT(a, b) SPECFAAS_OBS_CONCAT2(a, b)
// clang-format on

/**
 * Named scoped zone: `OBS_ZONE_SCOPE(z, prof, "spec/walk");` declares
 * zone variable @p var so the site can add deterministic counts via
 * `var.addCount(n)`.
 */
#define OBS_ZONE_SCOPE(var, prof, name)                                \
    static const std::uint32_t SPECFAAS_OBS_CONCAT(obsZoneSite_,       \
                                                   __LINE__) =         \
        ::specfaas::obs::internZoneSite(name);                         \
    ::specfaas::obs::ZoneScope var(                                    \
        (prof), SPECFAAS_OBS_CONCAT(obsZoneSite_, __LINE__))

/** Anonymous scoped zone covering the rest of the enclosing block. */
#define OBS_ZONE(prof, name)                                           \
    OBS_ZONE_SCOPE(SPECFAAS_OBS_CONCAT(obsZoneScope_, __LINE__),       \
                   prof, name)

#endif // SPECFAAS_OBS_PROFILER_HH
