/**
 * @file
 * Unit and differential tests for the sorted-vector FlatMap.
 *
 * The controllers route their ordered state (slot maps, blocked
 * frontiers, committed records, open branches, fault attempts, branch
 * hints) through FlatMap; a wrong answer corrupts squash or commit
 * silently. The unit tests pin the std::map surface it promises —
 * ordered iteration, find / lower_bound / count, operator[]
 * insert-or-find, emplace insert-or-ignore, erase by key and
 * iterator — plus the custom comparator shape the controllers use
 * for OrderKey keys. The differential suite drives FlatMap and a
 * reference std::map through the same randomized op streams —
 * commit-heavy (popFront), squash-heavy (popBackExpect / eraseFrom),
 * and fault-retry mixes (middle erase + re-insert) — at ~10^5 ops
 * per seed and asserts full-content equality throughout. The
 * remaining tests pin what the stream can't see: the dead-prefix
 * compaction policy, the O(1) erase fast paths, eraseIf's
 * exactly-one-predicate-call-per-entry contract, and the front
 * compare answering anyBefore on a FlatMap<K, bool> key set.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "runtime/instance.hh"

namespace specfaas {
namespace {

TEST(FlatMap, InsertAndIterateInKeyOrder)
{
    FlatMap<int, std::string> m;
    m[30] = "c";
    m[10] = "a";
    m[20] = "b";
    ASSERT_EQ(m.size(), 3u);
    std::vector<int> keys;
    for (const auto& [k, v] : m)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<int>{10, 20, 30}));
}

TEST(FlatMap, SubscriptFindsOrInserts)
{
    FlatMap<int, std::string> m;
    m[5] = "five";
    EXPECT_EQ(m[5], "five") << "existing key must not be overwritten";
    EXPECT_EQ(m.size(), 1u);
    // Missing key: value-initialized entry appears.
    EXPECT_EQ(m[7], "");
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, FindCountAndAt)
{
    FlatMap<int, int> m;
    m[1] = 10;
    m[3] = 30;
    EXPECT_EQ(m.find(1)->second, 10);
    EXPECT_EQ(m.find(2), m.end());
    EXPECT_EQ(m.count(3), 1u);
    EXPECT_EQ(m.count(4), 0u);
    EXPECT_EQ(m.at(3), 30);
    const FlatMap<int, int>& cm = m;
    EXPECT_EQ(cm.find(3)->second, 30);
    EXPECT_EQ(cm.at(1), 10);
}

TEST(FlatMap, LowerBoundIsFirstNotLess)
{
    FlatMap<int, int> m;
    m[10] = 1;
    m[20] = 2;
    m[30] = 3;
    EXPECT_EQ(m.lower_bound(5)->first, 10);
    EXPECT_EQ(m.lower_bound(20)->first, 20);
    EXPECT_EQ(m.lower_bound(21)->first, 30);
    EXPECT_EQ(m.lower_bound(31), m.end());
}

TEST(FlatMap, EmplaceInsertsOrIgnores)
{
    FlatMap<int, std::string> m;
    auto [it1, fresh1] = m.emplace(4, "four");
    EXPECT_TRUE(fresh1);
    EXPECT_EQ(it1->second, "four");
    auto [it2, fresh2] = m.emplace(4, "FOUR");
    EXPECT_FALSE(fresh2) << "emplace on an existing key must ignore";
    EXPECT_EQ(it2->second, "four");
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseByKeyAndIterator)
{
    FlatMap<int, int> m;
    for (int k : {1, 2, 3, 4})
        m[k] = k * 10;
    EXPECT_EQ(m.erase(2), 1u);
    EXPECT_EQ(m.erase(2), 0u);
    auto it = m.erase(m.find(3));
    ASSERT_NE(it, m.end());
    EXPECT_EQ(it->first, 4) << "erase returns the next entry";
    std::vector<int> keys;
    for (const auto& [k, v] : m)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<int>{1, 4}));
}

TEST(FlatMap, ClearAndEmpty)
{
    FlatMap<int, int> m;
    EXPECT_TRUE(m.empty());
    m[1] = 1;
    EXPECT_FALSE(m.empty());
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMap, CustomComparatorOrdersIteration)
{
    // The controllers key pipeline maps by OrderKey with a custom
    // less; the comparator must drive both ordering and equivalence
    // (two keys are equal when neither is less).
    struct ReverseLess
    {
        bool operator()(int a, int b) const { return a > b; }
    };
    FlatMap<int, std::string, ReverseLess> m;
    m[10] = "a";
    m[30] = "c";
    m[20] = "b";
    std::vector<int> keys;
    for (const auto& [k, v] : m)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<int>{30, 20, 10}));
    EXPECT_EQ(m.find(20)->second, "b");
    EXPECT_EQ(m.count(15), 0u);
}

TEST(FlatMap, RangeScanViaLowerBound)
{
    // The squash path walks [from, end) with lower_bound — the
    // pattern must see exactly the keys at or after the pivot, in
    // order.
    FlatMap<int, int> m;
    for (int k : {2, 4, 6, 8, 10})
        m[k] = k;
    std::vector<int> tail;
    for (auto it = m.lower_bound(5); it != m.end(); ++it)
        tail.push_back(it->first);
    EXPECT_EQ(tail, (std::vector<int>{6, 8, 10}));
}


struct OrderLess
{
    bool
    operator()(const OrderKey& a, const OrderKey& b) const
    {
        return orderKeyLess(a, b);
    }
};

// ---------------------------------------------------------------------------
// Differential suite: FlatMap vs std::map under mixed op streams.
// ---------------------------------------------------------------------------

/** Assert the pipeline's live region matches the reference exactly. */
void
expectEqual(FlatMap<int, int>& pm, const std::map<int, int>& ref)
{
    ASSERT_EQ(pm.size(), ref.size());
    ASSERT_EQ(pm.empty(), ref.empty());
    auto rit = ref.begin();
    for (auto it = pm.begin(); it != pm.end(); ++it, ++rit) {
        ASSERT_EQ(it->first, rit->first);
        ASSERT_EQ(it->second, rit->second);
    }
    if (!ref.empty()) {
        ASSERT_EQ(pm.front().first, ref.begin()->first);
        ASSERT_EQ(pm.back().first, ref.rbegin()->first);
    }
}

/** Op-mix weights, in the order the dispatcher draws them. */
struct OpMix
{
    double insert;       // emplace a fresh (or colliding) key
    double popFront;     // commit: consume the frontier entry
    double popBackTail;  // squash step: pop the exact tail key
    double eraseFrom;    // squash: truncate a random suffix
    double eraseKey;     // fault retry: remove one coordinate
    double eraseIf;      // pending-callee purge: predicate sweep
    double lookup;       // find / lower_bound / count probes
    double clear;        // invocation teardown
};

/**
 * Drive FlatMap<int,int> and std::map<int,int> through @p ops
 * randomized operations drawn from @p mix, checking equality after
 * every mutation. Keys are drawn from a window that slides upward so
 * the stream looks like a real pipeline: new work arrives above the
 * commit frontier, squashes truncate recent suffixes.
 */
void
runDifferential(std::uint64_t seed, std::size_t ops, const OpMix& mix)
{
    Rng rng(seed);
    FlatMap<int, int> pm;
    std::map<int, int> ref;
    int nextKey = 0; // upper edge of the key window

    const std::vector<double> weights = {
        mix.insert,  mix.popFront, mix.popBackTail, mix.eraseFrom,
        mix.eraseKey, mix.eraseIf, mix.lookup,      mix.clear};

    for (std::size_t i = 0; i < ops; ++i) {
        switch (rng.weightedPick(weights)) {
        case 0: { // insert
            // Mostly append past the tail (program-order walk), but
            // sometimes land inside the live window (adopted callee)
            // or collide with an existing key (emplace no-op).
            int key;
            if (rng.bernoulli(0.7) || ref.empty()) {
                key = nextKey++;
            } else {
                const int lo = ref.begin()->first;
                key = lo + static_cast<int>(rng.uniformInt(
                                static_cast<std::uint64_t>(nextKey - lo)));
            }
            const int val = static_cast<int>(rng.next() & 0xffff);
            auto [it, inserted] = pm.emplace(key, val);
            auto [rit, rinserted] = ref.emplace(key, val);
            ASSERT_EQ(inserted, rinserted);
            ASSERT_EQ(it->first, rit->first);
            ASSERT_EQ(it->second, rit->second);
            break;
        }
        case 1: { // popFront (commit)
            if (ref.empty())
                break;
            ASSERT_EQ(pm.front().first, ref.begin()->first);
            pm.popFront();
            ref.erase(ref.begin());
            break;
        }
        case 2: { // popBackExpect (squash victim loop)
            if (ref.empty())
                break;
            const int tail = ref.rbegin()->first;
            pm.popBackExpect(tail);
            ref.erase(tail);
            break;
        }
        case 3: { // eraseFrom (squash suffix truncation)
            if (ref.empty())
                break;
            const int lo = ref.begin()->first;
            const int from = lo + static_cast<int>(rng.uniformInt(
                                      static_cast<std::uint64_t>(
                                          nextKey - lo + 1)));
            const std::size_t n = pm.eraseFrom(from);
            std::size_t rn = 0;
            for (auto it = ref.lower_bound(from); it != ref.end();
                 it = ref.erase(it))
                ++rn;
            ASSERT_EQ(n, rn);
            break;
        }
        case 4: { // erase(key) — present or absent
            const int key = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(nextKey + 1)));
            ASSERT_EQ(pm.erase(key), ref.erase(key));
            break;
        }
        case 5: { // eraseIf (value-predicate purge)
            const int bit = static_cast<int>(rng.uniformInt(4));
            const auto pred = [bit](const std::pair<int, int>& e) {
                return ((e.second >> bit) & 1) != 0;
            };
            const std::size_t n = pm.eraseIf(pred);
            std::size_t rn = 0;
            for (auto it = ref.begin(); it != ref.end();) {
                if (pred(*it)) {
                    it = ref.erase(it);
                    ++rn;
                } else {
                    ++it;
                }
            }
            ASSERT_EQ(n, rn);
            break;
        }
        case 6: { // lookups
            const int key = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(nextKey + 1)));
            ASSERT_EQ(pm.count(key), ref.count(key));
            auto it = pm.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(it != pm.end(), rit != ref.end());
            if (rit != ref.end()) {
                ASSERT_EQ(it->second, rit->second);
            }
            auto lb = pm.lower_bound(key);
            auto rlb = ref.lower_bound(key);
            ASSERT_EQ(lb != pm.end(), rlb != ref.end());
            if (rlb != ref.end()) {
                ASSERT_EQ(lb->first, rlb->first);
            }
            break;
        }
        case 7: { // clear
            pm.clear();
            ref.clear();
            break;
        }
        }
        ASSERT_NO_FATAL_FAILURE(expectEqual(pm, ref));
    }
}

TEST(FlatMap, DifferentialCommitHeavy)
{
    // Commit frontier dominates: the pipeline drains from the front
    // almost as fast as it fills, the shape that exercises the
    // dead-prefix compaction the hardest.
    runDifferential(0x5eed1001ull, 100000,
                    OpMix{40, 35, 2, 1, 2, 1, 15, 0.2});
}

TEST(FlatMap, DifferentialSquashHeavy)
{
    // Deep squashes: suffix truncation and reverse-order tail pops
    // dominate, the misprediction-storm shape.
    runDifferential(0x5eed1002ull, 100000,
                    OpMix{40, 8, 15, 8, 2, 2, 15, 0.2});
}

TEST(FlatMap, DifferentialFaultRetryMix)
{
    // Fault retries: single-coordinate erases and predicate purges
    // punch holes in the middle of the live region.
    runDifferential(0x5eed1003ull, 100000,
                    OpMix{40, 12, 4, 3, 12, 8, 15, 0.5});
}

TEST(FlatMap, DifferentialBalancedChurn)
{
    runDifferential(0x5eed1004ull, 100000,
                    OpMix{35, 15, 8, 4, 6, 4, 20, 1});
}

// ---------------------------------------------------------------------------
// Compaction policy and dead-prefix bookkeeping.
// ---------------------------------------------------------------------------

TEST(FlatMap, PopFrontCompactsOnceDeadReachesHalf)
{
    FlatMap<int, int> pm;
    for (int i = 0; i < 100; ++i)
        pm.emplace(i, i * 10);
    // Below both thresholds: the dead prefix just grows.
    for (int i = 0; i < 63; ++i)
        pm.popFront();
    EXPECT_EQ(pm.deadPrefix(), 63u);
    EXPECT_EQ(pm.size(), 37u);
    EXPECT_EQ(pm.front().first, 63);
    // 64th pop crosses kCompactMin with dead >= half: compacts.
    pm.popFront();
    EXPECT_EQ(pm.deadPrefix(), 0u);
    EXPECT_EQ(pm.size(), 36u);
    EXPECT_EQ(pm.front().first, 64);
    EXPECT_EQ(pm.back().first, 99);
}

TEST(FlatMap, SmallPipelineNeverCompactsButStaysCorrect)
{
    FlatMap<int, int> pm;
    for (int i = 0; i < 40; ++i)
        pm.emplace(i, i);
    for (int i = 0; i < 39; ++i)
        pm.popFront();
    // Dead slack below kCompactMin is tolerated...
    EXPECT_EQ(pm.deadPrefix(), 39u);
    EXPECT_EQ(pm.size(), 1u);
    // ...and inserting on either side of the live region still works:
    // it begins past the dead prefix.
    pm.emplace(100, 1);
    pm.emplace(-1, 2);
    EXPECT_EQ(pm.size(), 3u);
    EXPECT_EQ(pm.deadPrefix(), 39u);
    EXPECT_EQ(pm.front().first, -1);
    EXPECT_EQ(pm.back().first, 100);
    EXPECT_EQ(pm.at(100), 1);
    // Draining through the front starts the vector over, so a small
    // map that fills and empties reuses its first slots.
    for (int i = 0; i < 3; ++i)
        pm.popFront();
    EXPECT_TRUE(pm.empty());
    EXPECT_EQ(pm.deadPrefix(), 0u);
}

TEST(FlatMap, PopFrontResetsEntryPayloadImmediately)
{
    // The reclaimed entry must release its payload at pop time (the
    // controllers park instance pointers and callbacks in pipeline
    // values), not at compaction time.
    FlatMap<int, std::shared_ptr<int>> pm;
    auto payload = std::make_shared<int>(7);
    std::weak_ptr<int> watch = payload;
    pm.emplace(1, std::move(payload));
    pm.emplace(2, nullptr);
    pm.popFront();
    EXPECT_TRUE(watch.expired())
        << "popFront must drop the entry's payload immediately";
    EXPECT_EQ(pm.size(), 1u);
}

TEST(FlatMap, DrainToEmptyViaTailOpsResetsDeadPrefix)
{
    FlatMap<int, int> pm;
    for (int i = 0; i < 8; ++i)
        pm.emplace(i, i);
    for (int i = 0; i < 4; ++i)
        pm.popFront();
    EXPECT_EQ(pm.deadPrefix(), 4u);
    // popBackExpect down to empty: the whole vector resets.
    for (int i = 7; i >= 4; --i)
        pm.popBackExpect(i);
    EXPECT_TRUE(pm.empty());
    EXPECT_EQ(pm.deadPrefix(), 0u);
    // eraseFrom to empty likewise.
    for (int i = 0; i < 8; ++i)
        pm.emplace(i, i);
    pm.popFront();
    EXPECT_EQ(pm.eraseFrom(1), 7u);
    EXPECT_TRUE(pm.empty());
    EXPECT_EQ(pm.deadPrefix(), 0u);
}

// ---------------------------------------------------------------------------
// Erase fast paths.
// ---------------------------------------------------------------------------

TEST(FlatMap, EraseByKeyFrontBackMiddleAbsent)
{
    FlatMap<int, int> pm;
    for (int i = 0; i < 5; ++i)
        pm.emplace(i, i * 10);
    EXPECT_EQ(pm.erase(0), 1u); // front: frontier advance
    EXPECT_EQ(pm.deadPrefix(), 1u);
    EXPECT_EQ(pm.erase(4), 1u); // back: pop
    EXPECT_EQ(pm.erase(2), 1u); // middle: shift
    EXPECT_EQ(pm.erase(42), 0u); // absent
    EXPECT_EQ(pm.size(), 2u);
    EXPECT_EQ(pm.front().first, 1);
    EXPECT_EQ(pm.back().first, 3);
}

TEST(FlatMap, EraseByIteratorFrontBackMiddle)
{
    FlatMap<int, int> pm;
    for (int i = 0; i < 5; ++i)
        pm.emplace(i, i);
    auto it = pm.erase(pm.begin()); // front fast path
    EXPECT_EQ(it, pm.begin());
    EXPECT_EQ(pm.front().first, 1);
    it = pm.erase(pm.begin() + 3); // tail fast path (key 4)
    EXPECT_EQ(it, pm.end());
    EXPECT_EQ(pm.back().first, 3);
    it = pm.erase(pm.begin() + 1); // middle (key 2)
    EXPECT_EQ(it->first, 3);
    EXPECT_EQ(pm.size(), 2u);
}

TEST(FlatMap, PopBackExpectEnforcesTailIdentity)
{
    FlatMap<int, int> pm;
    pm.emplace(1, 10);
    pm.emplace(2, 20);
    pm.popBackExpect(2);
    EXPECT_EQ(pm.back().first, 1);
    EXPECT_DEATH(pm.popBackExpect(5), "suffix-pop invariant");
}

// ---------------------------------------------------------------------------
// eraseIf complexity contract (the squash purge relies on it).
// ---------------------------------------------------------------------------

TEST(FlatMap, EraseIfRunsPredicateExactlyOncePerEntry)
{
    FlatMap<int, int> m;
    for (int i = 0; i < 1000; ++i)
        m.emplace(i, i);
    std::size_t calls = 0;
    const std::size_t erased = m.eraseIf([&calls](const auto& e) {
        ++calls;
        return e.second % 2 == 0;
    });
    EXPECT_EQ(calls, 1000u);
    EXPECT_EQ(erased, 500u);
    EXPECT_EQ(m.size(), 500u);
}

// The same contract with the pipeline-map shape the controllers use
// (victims keyed on the first field, a third of the entries erased).
TEST(PipelineMap, EraseIfRunsPredicateExactlyOncePerEntry)
{
    FlatMap<int, int> pm;
    for (int i = 0; i < 1000; ++i)
        pm.emplace(i, i);
    std::size_t calls = 0;
    const std::size_t erased = pm.eraseIf([&calls](const auto& e) {
        ++calls;
        return e.first % 3 == 0;
    });
    EXPECT_EQ(calls, 1000u)
        << "eraseIf must be a single pass, not erase-per-victim";
    EXPECT_EQ(erased, 334u);
    EXPECT_EQ(pm.size(), 666u);
}

TEST(FlatMap, EraseFromTruncatesSuffixAndReportsCount)
{
    FlatMap<int, int> m;
    for (int i = 0; i < 10; ++i)
        m.emplace(i, i);
    EXPECT_EQ(m.eraseFrom(7), 3u);
    EXPECT_EQ(m.size(), 7u);
    EXPECT_EQ(m.eraseFrom(100), 0u);
    EXPECT_EQ(m.eraseFrom(0), 7u);
    EXPECT_TRUE(m.empty());
}

// ---------------------------------------------------------------------------
// OrderKey comparator shape (the controllers' actual key type).
// ---------------------------------------------------------------------------

TEST(FlatMap, OrderKeyPipelineMirrorsControllerUsage)
{
    FlatMap<OrderKey, int, OrderLess> pm;
    OrderKey a; a.push_back(0);
    OrderKey b; b.push_back(0); b.push_back(1);
    OrderKey c; c.push_back(1);
    OrderKey d; d.push_back(2);
    pm.emplace(c, 3);
    pm.emplace(a, 1);
    pm.emplace(d, 4);
    pm.emplace(b, 2);
    ASSERT_EQ(pm.size(), 4u);
    // Lexicographic program order: [0] < [0,1] < [1] < [2].
    EXPECT_EQ(pm.front().second, 1);
    auto it = pm.begin();
    EXPECT_EQ((it + 1)->second, 2);
    // Squash from [1]: the nested callee under [0] survives.
    EXPECT_EQ(pm.eraseFrom(c), 2u);
    EXPECT_EQ(pm.back().second, 2);
    // Commit frontier consumes in program order.
    pm.popFront();
    EXPECT_EQ(pm.front().second, 2);
}

// ---------------------------------------------------------------------------
// FlatMap<K, bool> as an ordered key set (the open-branch index).
// ---------------------------------------------------------------------------

TEST(FlatMap, InsertEraseContains)
{
    FlatMap<int, bool> s;
    EXPECT_TRUE(s.empty());
    s.emplace(5, true);
    s.emplace(1, true);
    s.emplace(9, true);
    EXPECT_FALSE(s.emplace(5, true).second); // duplicate: no-op
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.count(5), 1u);
    EXPECT_EQ(s.count(4), 0u);
    EXPECT_EQ(s.erase(5), 1u);
    EXPECT_EQ(s.count(5), 0u);
    EXPECT_EQ(s.erase(5), 0u); // absent: no-op
    EXPECT_EQ(s.size(), 2u);
}

TEST(FlatMap, AnyBeforeIsFrontCompare)
{
    FlatMap<int, bool> s;
    EXPECT_FALSE(s.anyBefore(100));
    s.emplace(7, true);
    s.emplace(3, true);
    EXPECT_TRUE(s.anyBefore(4)) << "3 sorts before 4";
    EXPECT_FALSE(s.anyBefore(3)) << "strictly before, not at";
    EXPECT_FALSE(s.anyBefore(0));
    s.erase(3);
    EXPECT_FALSE(s.anyBefore(4));
    EXPECT_TRUE(s.anyBefore(8));
}

TEST(FlatMap, EraseFromTruncatesSuffix)
{
    FlatMap<int, bool> s;
    for (int k : {2, 4, 6, 8})
        s.emplace(k, true);
    s.eraseFrom(5);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.count(2), 1u);
    EXPECT_EQ(s.count(4), 1u);
    EXPECT_EQ(s.count(6), 0u);
    s.eraseFrom(0);
    EXPECT_TRUE(s.empty());
}

TEST(FlatMap, OrderKeyBranchTrackingScenario)
{
    // The spec controller's usage: open branches indexed by program
    // order; anyBefore answers "is a branch before this coordinate
    // still unresolved", eraseFrom mirrors the squash.
    FlatMap<OrderKey, bool, OrderLess> s;
    OrderKey b0; b0.push_back(1);
    OrderKey b1; b1.push_back(3);
    OrderKey probe; probe.push_back(2);
    s.emplace(b1, true);
    EXPECT_FALSE(s.anyBefore(probe));
    s.emplace(b0, true);
    EXPECT_TRUE(s.anyBefore(probe));
    s.eraseFrom(b0); // squash from [1]
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.anyBefore(probe));
}

/**
 * Differential check of the key-set use against a reference map:
 * interleaved insert / erase / eraseFrom / membership / anyBefore.
 */
TEST(FlatMap, DifferentialVsReference)
{
    Rng rng(0x5eed1005ull);
    FlatMap<int, bool> s;
    std::map<int, bool> ref; // keys only
    for (std::size_t i = 0; i < 100000; ++i) {
        const int key = static_cast<int>(rng.uniformInt(256));
        switch (rng.uniformInt(5)) {
        case 0:
        case 1:
            s.emplace(key, true);
            ref.emplace(key, true);
            break;
        case 2:
            s.erase(key);
            ref.erase(key);
            break;
        case 3: {
            if (rng.bernoulli(0.9))
                break; // keep eraseFrom rare so the set stays populated
            s.eraseFrom(key);
            ref.erase(ref.lower_bound(key), ref.end());
            break;
        }
        case 4: {
            ASSERT_EQ(s.count(key), ref.count(key));
            const bool expect =
                !ref.empty() && ref.begin()->first < key;
            ASSERT_EQ(s.anyBefore(key), expect);
            break;
        }
        }
        ASSERT_EQ(s.size(), ref.size());
    }
}

} // namespace
} // namespace specfaas
