/**
 * @file
 * The Data Buffer (§V-C).
 *
 * One Data Buffer exists per application invocation, on the node
 * running the invocation's controller. It buffers the global-storage
 * updates of in-progress (uncommitted) functions and detects data
 * dependences between concurrently executing functions:
 *
 *  - in-order RAW: the read is served from the predecessor's column
 *    (forwarding);
 *  - out-of-order RAW: the premature reader (and, transitively, its
 *    successors — handled by the controller) is squashed;
 *  - WAR / WAW: handled without squashes by column ordering.
 *
 * Columns are ordered by program order (OrderKey). The paper's
 * fixed-geometry circular buffer is modelled as a bounded ordered
 * map: the maximum number of in-flight columns is enforced by the
 * controller's speculation-depth throttle.
 */

#ifndef SPECFAAS_SPECFAAS_DATA_BUFFER_HH
#define SPECFAAS_SPECFAAS_DATA_BUFFER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "common/value.hh"
#include "runtime/instance.hh"
#include "storage/kv_store.hh"

namespace specfaas {

/** Outcome of a buffered read. */
struct BufferReadResult
{
    /** Value forwarded from a predecessor column, if any. */
    std::optional<Value> value;
    /** True when forwarded from the buffer (in-order RAW). */
    bool forwarded = false;
};

/** Per-invocation speculative write buffer and dependence detector. */
class DataBuffer
{
  public:
    /** @param store authoritative global storage (commit target). */
    explicit DataBuffer(KvStore& store) : store_(store) {}

    /** Open a column for an in-progress function. */
    void addColumn(InstanceId owner, OrderKey order);

    /** True when @p owner currently has a column. */
    bool hasColumn(InstanceId owner) const;

    /**
     * Invalidate a squashed function's column: all its R/W bits and
     * buffered values disappear.
     */
    void invalidateColumn(InstanceId owner);

    /**
     * Record a read by @p reader. Scans the W bits of predecessor
     * columns in reverse program order; forwards the youngest
     * predecessor value when one exists (the caller otherwise fetches
     * from global storage). Sets the reader's R bit either way.
     */
    BufferReadResult read(InstanceId reader, const std::string& key);

    /**
     * Record a write by @p writer. Scans successor columns in
     * program order up to (and including) the first column with the
     * W bit set; every successor in that range that has prematurely
     * read the record (R bit) is an out-of-order RAW violation.
     * @return violating successor owners, in program order
     */
    std::vector<InstanceId> write(InstanceId writer,
                                  const std::string& key, Value value);

    /**
     * Commit: flush @p owner's buffered writes to global storage and
     * drop the column. Only the controller calls this, for the
     * non-speculative head function.
     */
    void commitColumn(InstanceId owner);

    /**
     * Merge a returning callee's column into its caller's (§V-D):
     * buffered writes overwrite the caller's, R bits accumulate.
     */
    void mergeColumn(InstanceId callee, InstanceId caller);

    /** True when @p owner has a buffered write for @p key. */
    bool hasWrite(InstanceId owner, const std::string& key) const;

    /**
     * Instances that consumed forwarded values produced by @p writer
     * and are still live. Used when a column is invalidated for a
     * reason other than a write scan (e.g. a never-called speculative
     * callee): its forwarded readers consumed phantom data and must
     * be squashed as well.
     */
    std::vector<InstanceId> readersForwardedFrom(InstanceId writer) const;

    /**
     * Program-order coordinate of @p owner's live column; nullptr
     * when the column was never opened or already closed. Lets the
     * controller translate buffer-reported instance ids straight to
     * pipeline coordinates without its own reverse map.
     */
    const OrderKey*
    columnOrder(InstanceId owner) const
    {
        auto it = columns_.find(owner);
        return it == columns_.end() ? nullptr : &it->second;
    }

    /** Make room for @p columns live columns up front. */
    void
    reserve(std::size_t columns)
    {
        columns_.reserve(columns);
        ordered_.reserve(columns);
    }

    /** Live column count (in-progress functions). */
    std::size_t columnCount() const { return columns_.size(); }

    /** Number of record rows currently tracked. */
    std::size_t rowCount() const { return rows_.size(); }

    /**
     * Approximate footprint in bytes (rows × live cells), reported
     * by the ablation bench against the paper's §VIII-B "3 KB".
     */
    std::size_t footprintBytes() const;

    /** @{ Event counters. */
    std::uint64_t forwards() const { return forwards_; }
    std::uint64_t violations() const { return violations_; }
    /** @} */

  private:
    struct Cell
    {
        bool read = false;
        bool written = false;
        Value value;
    };

    struct Row
    {
        // owner → cell; program order comes from columns_.
        FlatMap<InstanceId, Cell> cells;
    };

    /** Program-order position of each live column. */
    FlatMap<InstanceId, OrderKey> columns_;
    FlatMap<std::string, Row> rows_;
    /** reader → writers whose buffered values it consumed. */
    std::map<InstanceId, std::set<InstanceId>> forwardSources_;
    KvStore& store_;
    std::uint64_t forwards_ = 0;
    std::uint64_t violations_ = 0;

    /**
     * Owners ordered by program order. Sorted again only after the
     * columns changed; reads and writes between changes reuse it.
     */
    const std::vector<InstanceId>& ordered() const;
    mutable std::vector<InstanceId> ordered_;
    mutable bool orderedValid_ = false;
};

} // namespace specfaas

#endif // SPECFAAS_SPECFAAS_DATA_BUFFER_HH
