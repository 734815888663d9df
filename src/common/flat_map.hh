/**
 * @file
 * Sorted-vector map for small keyed collections.
 *
 * The invocation records keep many small keyed collections (call-site
 * observations, branch hints, fault attempts) whose population is a
 * handful of entries. As std::map each entry is a separately
 * allocated red-black node; a FlatMap keeps the entries sorted in one
 * contiguous vector, so lookups binary-search hot cache lines and
 * insertion shifts a few elements instead of rebalancing.
 *
 * The std::map surface the simulator uses is provided: operator[],
 * at, find, lower_bound, count, erase (by key and iterator),
 * emplace, iteration in key order, size/empty/clear. References are
 * invalidated by insertion and erasure (it is a vector) — callers
 * that held references across mutations under std::map must not use
 * this type.
 */

#ifndef SPECFAAS_COMMON_FLAT_MAP_HH
#define SPECFAAS_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace specfaas {

template <typename K, typename V, typename Compare = std::less<K>>
class FlatMap
{
  public:
    using value_type = std::pair<K, V>;
    using iterator = typename std::vector<value_type>::iterator;
    using const_iterator =
        typename std::vector<value_type>::const_iterator;

    FlatMap() = default;
    explicit FlatMap(Compare cmp) : cmp_(std::move(cmp)) {}

    iterator begin() { return entries_.begin(); }
    iterator end() { return entries_.end(); }
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    void clear() { entries_.clear(); }
    void reserve(std::size_t n) { entries_.reserve(n); }

    iterator
    lower_bound(const K& key)
    {
        return std::lower_bound(entries_.begin(), entries_.end(), key,
                                [this](const value_type& e, const K& k) {
                                    return cmp_(e.first, k);
                                });
    }

    const_iterator
    lower_bound(const K& key) const
    {
        return std::lower_bound(entries_.begin(), entries_.end(), key,
                                [this](const value_type& e, const K& k) {
                                    return cmp_(e.first, k);
                                });
    }

    iterator
    find(const K& key)
    {
        auto it = lower_bound(key);
        return it != entries_.end() && !cmp_(key, it->first)
                   ? it
                   : entries_.end();
    }

    const_iterator
    find(const K& key) const
    {
        auto it = lower_bound(key);
        return it != entries_.end() && !cmp_(key, it->first)
                   ? it
                   : entries_.end();
    }

    std::size_t count(const K& key) const
    {
        return find(key) != end() ? 1 : 0;
    }

    V&
    operator[](const K& key)
    {
        auto it = lower_bound(key);
        if (it != entries_.end() && !cmp_(key, it->first))
            return it->second;
        it = entries_.emplace(it, key, V());
        return it->second;
    }

    V&
    at(const K& key)
    {
        auto it = find(key);
        SPECFAAS_ASSERT(it != end(), "FlatMap::at missing key");
        return it->second;
    }

    const V&
    at(const K& key) const
    {
        auto it = find(key);
        SPECFAAS_ASSERT(it != end(), "FlatMap::at missing key");
        return it->second;
    }

    /** Insert-or-ignore, like std::map::emplace. */
    template <typename KK, typename VV>
    std::pair<iterator, bool>
    emplace(KK&& key, VV&& value)
    {
        auto it = lower_bound(key);
        if (it != entries_.end() && !cmp_(key, it->first))
            return {it, false};
        it = entries_.emplace(it, std::forward<KK>(key),
                              std::forward<VV>(value));
        return {it, true};
    }

    std::size_t
    erase(const K& key)
    {
        auto it = find(key);
        if (it == end())
            return 0;
        entries_.erase(it);
        return 1;
    }

    iterator erase(iterator it) { return entries_.erase(it); }

    /**
     * Erase every entry with key >= @p key (a suffix of the sorted
     * vector) in one shot: one binary search plus one range erase,
     * instead of an O(suffix x size) erase-per-element loop.
     * @return number of entries erased
     */
    std::size_t
    eraseFrom(const K& key)
    {
        auto it = lower_bound(key);
        const auto n = static_cast<std::size_t>(entries_.end() - it);
        entries_.erase(it, entries_.end());
        return n;
    }

    /**
     * Erase every entry for which @p pred (called on the value_type)
     * returns true, in a single compacting pass. Each surviving entry
     * is moved at most once and the predicate runs exactly size()
     * times — the single-pass purge the squash path relies on.
     * @return number of entries erased
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        auto keep = std::remove_if(entries_.begin(), entries_.end(),
                                   std::move(pred));
        const auto n = static_cast<std::size_t>(entries_.end() - keep);
        entries_.erase(keep, entries_.end());
        return n;
    }

  private:
    std::vector<value_type> entries_;
    Compare cmp_;
};

/**
 * Order-indexed pipeline map: a sorted flat map specialised for the
 * controllers' pipeline access pattern, where the key space is the
 * invocation's program-order coordinates and mutation happens almost
 * exclusively at the two ends —
 *
 *  - commit consumes entries strictly from the *front* (the commit
 *    frontier): popFront() advances a head index instead of erasing,
 *    so an N-deep pipeline commits in O(N) total rather than the
 *    O(N^2) element shifting of erase-at-begin on a plain vector;
 *  - squash destroys a *suffix* (every coordinate >= the squash
 *    point): popBackExpect() pops the tail with an O(1) identity
 *    assert and eraseFrom() truncates a whole suffix with one range
 *    erase.
 *
 * Reclaimed front entries are reset to a default-constructed state
 * immediately (so held resources — instance pointers, callbacks —
 * release at the same point a map erase would have released them)
 * and the dead prefix is compacted away once it outgrows the live
 * region, keeping popFront amortised O(1).
 *
 * Iteration, find, lower_bound, emplace and the rest mirror FlatMap
 * over the live region; like FlatMap, references and iterators are
 * invalidated by any mutation.
 */
template <typename K, typename V, typename Compare = std::less<K>>
class PipelineMap
{
  public:
    using value_type = std::pair<K, V>;
    using iterator = typename std::vector<value_type>::iterator;
    using const_iterator =
        typename std::vector<value_type>::const_iterator;

    PipelineMap() = default;
    explicit PipelineMap(Compare cmp) : cmp_(std::move(cmp)) {}

    iterator begin() { return entries_.begin() + head_; }
    iterator end() { return entries_.end(); }
    const_iterator begin() const { return entries_.begin() + head_; }
    const_iterator end() const { return entries_.end(); }

    bool empty() const { return head_ == entries_.size(); }
    std::size_t size() const { return entries_.size() - head_; }

    void
    clear()
    {
        entries_.clear();
        head_ = 0;
    }

    void reserve(std::size_t n) { entries_.reserve(n); }

    value_type& front() { return entries_[head_]; }
    const value_type& front() const { return entries_[head_]; }
    value_type& back() { return entries_.back(); }
    const value_type& back() const { return entries_.back(); }

    iterator
    lower_bound(const K& key)
    {
        return std::lower_bound(begin(), end(), key,
                                [this](const value_type& e, const K& k) {
                                    return cmp_(e.first, k);
                                });
    }

    const_iterator
    lower_bound(const K& key) const
    {
        return std::lower_bound(begin(), end(), key,
                                [this](const value_type& e, const K& k) {
                                    return cmp_(e.first, k);
                                });
    }

    iterator
    find(const K& key)
    {
        auto it = lower_bound(key);
        return it != end() && !cmp_(key, it->first) ? it : end();
    }

    const_iterator
    find(const K& key) const
    {
        auto it = lower_bound(key);
        return it != end() && !cmp_(key, it->first) ? it : end();
    }

    std::size_t count(const K& key) const
    {
        return find(key) != end() ? 1 : 0;
    }

    V&
    operator[](const K& key)
    {
        auto it = lower_bound(key);
        if (it != end() && !cmp_(key, it->first))
            return it->second;
        it = entries_.emplace(it, key, V());
        return it->second;
    }

    V&
    at(const K& key)
    {
        auto it = find(key);
        SPECFAAS_ASSERT(it != end(), "PipelineMap::at missing key");
        return it->second;
    }

    const V&
    at(const K& key) const
    {
        auto it = find(key);
        SPECFAAS_ASSERT(it != end(), "PipelineMap::at missing key");
        return it->second;
    }

    /** Insert-or-ignore, like std::map::emplace. Appends in O(1)
     * (plus the binary search) when the key extends the tail — the
     * common case for program-order walks and monotonic ids. */
    template <typename KK, typename VV>
    std::pair<iterator, bool>
    emplace(KK&& key, VV&& value)
    {
        auto it = lower_bound(key);
        if (it != end() && !cmp_(key, it->first))
            return {it, false};
        it = entries_.emplace(it, std::forward<KK>(key),
                              std::forward<VV>(value));
        return {it, true};
    }

    /**
     * Advance the commit frontier past the front entry. The entry is
     * reset (releasing its payload now) and physically reclaimed by
     * a geometric compaction once dead entries outnumber live ones.
     */
    void
    popFront()
    {
        SPECFAAS_ASSERT(!empty(), "popFront on empty pipeline");
        entries_[head_] = value_type();
        ++head_;
        if (head_ >= kCompactMin && head_ * 2 >= entries_.size()) {
            entries_.erase(entries_.begin(),
                           entries_.begin() +
                               static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    /**
     * Pop the tail entry, asserting it carries exactly @p key — the
     * squash loop's suffix-pop invariant (victims leave in reverse
     * program order, so every departure must be the current tail).
     */
    void
    popBackExpect(const K& key)
    {
        SPECFAAS_ASSERT(!empty(), "popBackExpect on empty pipeline");
        const K& tail = entries_.back().first;
        SPECFAAS_ASSERT(!cmp_(tail, key) && !cmp_(key, tail),
                        "suffix-pop invariant violated: tail is not "
                        "the expected key");
        entries_.pop_back();
        if (head_ == entries_.size())
            clear();
    }

    /**
     * Erase by key. O(1) at either end (the overwhelmingly common
     * cases: commit eats the front, squash eats the back); a middle
     * erase (an adopted callee delivered out of order) shifts.
     */
    std::size_t
    erase(const K& key)
    {
        if (empty())
            return 0;
        if (!cmp_(front().first, key) && !cmp_(key, front().first)) {
            popFront();
            return 1;
        }
        auto it = find(key);
        if (it == end())
            return 0;
        if (it + 1 == end())
            entries_.pop_back();
        else
            entries_.erase(it);
        return 1;
    }

    /** Erase at @p it; same end fast paths as erase(key). Returns
     * the iterator past the erased entry (recomputed when a front
     * pop compacts the dead prefix). */
    iterator
    erase(iterator it)
    {
        if (it == begin()) {
            popFront();
            return begin();
        }
        if (it + 1 == end()) {
            entries_.pop_back();
            return end();
        }
        return entries_.erase(it);
    }

    /** Erase every entry with key >= @p key: one binary search, one
     * range erase. @return number of entries erased */
    std::size_t
    eraseFrom(const K& key)
    {
        auto it = lower_bound(key);
        const auto n = static_cast<std::size_t>(end() - it);
        entries_.erase(it, entries_.end());
        if (head_ == entries_.size())
            clear();
        return n;
    }

    /** Single compacting pass over the live region; see
     * FlatMap::eraseIf. @return number of entries erased */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        auto keep = std::remove_if(begin(), end(), std::move(pred));
        const auto n = static_cast<std::size_t>(end() - keep);
        entries_.erase(keep, entries_.end());
        if (head_ == entries_.size())
            clear();
        return n;
    }

    /** Dead (already-popped, not yet compacted) front entries —
     * introspection for tests pinning the compaction policy. */
    std::size_t deadPrefix() const { return head_; }

  private:
    /** Compaction threshold: never compact tiny pipelines (the erase
     * would cost more than it frees), afterwards compact whenever
     * dead entries reach half the vector, bounding slack at one live
     * region's worth — the classic amortised-O(1) split. */
    static constexpr std::size_t kCompactMin = 64;

    std::vector<value_type> entries_;
    std::size_t head_ = 0;
    Compare cmp_;
};

/**
 * Sorted unique-key index over a pipeline's order coordinates, for
 * membership-style questions the controllers used to answer with a
 * full pipeline scan — "is any branch before coordinate X still
 * unresolved?" becomes a front() compare. Keys are maintained in
 * sorted order; the population is small (open branches, not all
 * slots), so insertion shifts a handful of elements at worst.
 */
template <typename K, typename Compare = std::less<K>>
class OrderedKeySet
{
  public:
    OrderedKeySet() = default;
    explicit OrderedKeySet(Compare cmp) : cmp_(std::move(cmp)) {}

    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }
    void clear() { keys_.clear(); }

    /** Insert @p key; no-op when already present. */
    void
    insert(const K& key)
    {
        auto it = std::lower_bound(keys_.begin(), keys_.end(), key, cmp_);
        if (it != keys_.end() && !cmp_(key, *it))
            return;
        keys_.insert(it, key);
    }

    /** Remove @p key; no-op when absent. */
    void
    erase(const K& key)
    {
        auto it = std::lower_bound(keys_.begin(), keys_.end(), key, cmp_);
        if (it != keys_.end() && !cmp_(key, *it))
            keys_.erase(it);
    }

    /** Remove every key >= @p key (suffix truncation). */
    void
    eraseFrom(const K& key)
    {
        auto it = std::lower_bound(keys_.begin(), keys_.end(), key, cmp_);
        keys_.erase(it, keys_.end());
    }

    bool
    contains(const K& key) const
    {
        auto it = std::lower_bound(keys_.begin(), keys_.end(), key, cmp_);
        return it != keys_.end() && !cmp_(key, *it);
    }

    /** Whether any member sorts strictly before @p key — O(1): the
     * vector is sorted, so only the front can qualify. */
    bool
    anyBefore(const K& key) const
    {
        return !keys_.empty() && cmp_(keys_.front(), key);
    }

  private:
    std::vector<K> keys_;
    Compare cmp_;
};

} // namespace specfaas

#endif // SPECFAAS_COMMON_FLAT_MAP_HH
