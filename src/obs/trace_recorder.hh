/**
 * @file
 * Bounded in-memory recorder of trace events.
 *
 * The recorder is disabled by default and costs one branch per call
 * site while disabled — call sites build their arguments behind
 * enabled(), so an untraced run builds no argument vector at all:
 *
 *     if (auto& tr = sim_.context().trace(); tr.enabled())
 *         tr.instant(obs::cat::kSpec, "squash", sim_.now(),
 *                    obs::kControlPlanePid, inv.result.id,
 *                    {{"reason", squashReasonName(reason)},
 *                     {"victims", nVictims}});
 *
 * Event names and argument keys are static strings (literals, or an
 * interned Symbol's name) and values keep their type: nothing is
 * rendered until the exporter writes the trace.
 *
 * Storage is a fixed-capacity ring buffer: when full, the oldest
 * events are overwritten and dropped() counts the loss, so tracing a
 * long run keeps the tail (the interesting part when debugging how a
 * run ended) at a bounded memory cost.
 *
 * Each SimContext owns one recorder; engine layers record into their
 * Simulation::context().trace().
 */

#ifndef SPECFAAS_OBS_TRACE_RECORDER_HH
#define SPECFAAS_OBS_TRACE_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace_event.hh"

namespace specfaas::obs {

/** Ring-buffered trace-event recorder. */
class TraceRecorder
{
  public:
    /** Default ring capacity (events). */
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    /** Start recording into a fresh ring of @p capacity events. */
    void enable(std::size_t capacity = kDefaultCapacity);

    /** Stop recording (buffered events are kept until clear()). */
    void disable() { enabled_ = false; }

    /** True while events are being recorded. Hot-path check. */
    bool enabled() const { return enabled_; }

    /** Drop all buffered events and reset the dropped counter. */
    void clear();

    /** Record one event (no-op when disabled). */
    void record(TraceEvent ev);

    /**
     * Append @p other's buffered events (oldest first) and carry over
     * its dropped count. No-op while disabled. Merging several
     * recorders in submission order reproduces exactly the ring a
     * serial run would have produced: the ring keeps the newest
     * capacity() events either way, and dropped() sums to the same
     * total.
     */
    void absorb(const TraceRecorder& other);

    /** @{ Convenience emitters. */
    void begin(const char* category, const char* name, Tick ts,
               std::uint64_t pid, std::uint64_t tid,
               std::vector<TraceArg> args = {});
    void end(const char* category, const char* name, Tick ts,
             std::uint64_t pid, std::uint64_t tid,
             std::vector<TraceArg> args = {});
    void instant(const char* category, const char* name, Tick ts,
                 std::uint64_t pid, std::uint64_t tid,
                 std::vector<TraceArg> args = {});
    /** @} */

    /** Call @p visit on each buffered event, oldest first. */
    template <typename Visit>
    void
    forEach(Visit&& visit) const
    {
        // Oldest event sits at head_ once the ring has wrapped.
        const std::size_t start = ring_.size() < capacity_ ? 0 : head_;
        for (std::size_t i = 0; i < ring_.size(); ++i)
            visit(ring_[(start + i) % capacity_]);
    }

    /** Buffered events, oldest first (a copy; see forEach()). */
    std::vector<TraceEvent> snapshot() const;

    /** Number of currently buffered events. */
    std::size_t size() const { return ring_.size(); }

    /** Ring capacity (0 until enable()). */
    std::size_t capacity() const { return capacity_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

  private:
    bool enabled_ = false;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0; ///< next write position
    std::uint64_t dropped_ = 0;
    std::vector<TraceEvent> ring_;
};

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_TRACE_RECORDER_HH
