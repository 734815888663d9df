/** @file Unit tests for the slab-backed object pools. */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "common/slot_array.hh"

namespace specfaas {
namespace {

struct Tracked
{
    static int liveObjects;
    std::string payload;

    explicit Tracked(std::string p) : payload(std::move(p))
    {
        ++liveObjects;
    }
    ~Tracked() { --liveObjects; }
};

int Tracked::liveObjects = 0;

TEST(SlabPool, CreateDestroyRoundTrip)
{
    Tracked::liveObjects = 0;
    SlabPool<Tracked, 4> pool;
    Tracked* t = pool.create("hello");
    EXPECT_EQ(t->payload, "hello");
    EXPECT_EQ(pool.liveCount(), 1u);
    EXPECT_EQ(Tracked::liveObjects, 1);
    pool.destroy(t);
    EXPECT_EQ(pool.liveCount(), 0u);
    EXPECT_EQ(Tracked::liveObjects, 0);
}

TEST(SlabPool, RecyclesDestroyedSlots)
{
    SlabPool<Tracked, 4> pool;
    Tracked* a = pool.create("a");
    pool.destroy(a);
    Tracked* b = pool.create("b");
    EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b))
        << "freelist must hand back the recycled slot";
    EXPECT_EQ(b->payload, "b");
    EXPECT_EQ(pool.slabCount(), 1u);
    pool.destroy(b);
}

TEST(SlabPool, GrowsByWholeSlabs)
{
    SlabPool<Tracked, 4> pool;
    std::set<void*> addrs;
    Tracked* objs[9];
    for (int i = 0; i < 9; ++i) {
        objs[i] = pool.create(std::to_string(i));
        addrs.insert(objs[i]);
    }
    EXPECT_EQ(addrs.size(), 9u) << "live objects at distinct slots";
    EXPECT_EQ(pool.slabCount(), 3u) << "9 objects at 4 per slab";
    EXPECT_EQ(pool.liveCount(), 9u);
    // Pointers are stable across further growth.
    const std::string before = objs[0]->payload;
    for (int i = 0; i < 20; ++i)
        pool.create("x");
    EXPECT_EQ(objs[0]->payload, before);
}

TEST(SlabPool, DestructorReleasesSurvivors)
{
    Tracked::liveObjects = 0;
    {
        SlabPool<Tracked, 4> pool;
        for (int i = 0; i < 7; ++i)
            pool.create("s");
        Tracked* gone = pool.create("gone");
        pool.destroy(gone);
        EXPECT_EQ(Tracked::liveObjects, 7);
    }
    EXPECT_EQ(Tracked::liveObjects, 0)
        << "pool teardown must run destructors of live objects only";
}

TEST(SlabPool, StressInterleavedCreateDestroy)
{
    Tracked::liveObjects = 0;
    SlabPool<Tracked, 8> pool;
    std::vector<Tracked*> live;
    // Deterministic churn: grow to 100, shrink to 50, regrow to 120.
    for (int i = 0; i < 100; ++i)
        live.push_back(pool.create(std::to_string(i)));
    for (int i = 0; i < 50; ++i) {
        pool.destroy(live.back());
        live.pop_back();
    }
    const std::size_t slabsAfterShrink = pool.slabCount();
    // Exactly the 50 freed slots: regrowth must recycle, not carve.
    for (int i = 0; i < 50; ++i)
        live.push_back(pool.create("r"));
    EXPECT_EQ(pool.slabCount(), slabsAfterShrink)
        << "regrowth into freed slots must not allocate new slabs";
    EXPECT_EQ(pool.liveCount(), live.size());
    EXPECT_EQ(Tracked::liveObjects, static_cast<int>(live.size()));
    for (Tracked* t : live)
        pool.destroy(t);
    EXPECT_EQ(Tracked::liveObjects, 0);
}

TEST(SlabPool, ForEachVisitsLiveObjectsOnly)
{
    SlabPool<Tracked, 4> pool;
    std::vector<Tracked*> objs;
    for (int i = 0; i < 6; ++i)
        objs.push_back(pool.create(std::to_string(i)));
    pool.destroy(objs[1]);
    pool.destroy(objs[4]);
    std::vector<std::string> seen;
    pool.forEach([&](const Tracked& t) { seen.push_back(t.payload); });
    EXPECT_EQ(seen, (std::vector<std::string>{"0", "2", "3", "5"}));
    for (int i : {0, 2, 3, 5})
        pool.destroy(objs[i]);
}

#if defined(__SANITIZE_ADDRESS__)
/** Read a field through a pointer its SlabPool already destroyed. */
void
readAfterDestroy()
{
    SlabPool<Tracked, 4> pool;
    Tracked* t = pool.create("stale");
    pool.destroy(t);
    volatile char c = t->payload[0];
    (void)c;
}
#endif

TEST(SlabPoolDeathTest, UseAfterDestroyIsReportedUnderAsan)
{
#if defined(__SANITIZE_ADDRESS__)
    // A destroyed slot is poisoned until create() hands it out again,
    // so a stale pointer is caught instead of reading a recycled
    // object.
    EXPECT_DEATH(readAfterDestroy(), "use-after-poison");
#else
    GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

// --- FreeList: bounded block cache behind allocate_shared ---

TEST(FreeList, AllocateSharedRecyclesTheSameBlock)
{
    FreeList list;
    const Tracked* first = nullptr;
    {
        auto a = std::allocate_shared<Tracked>(
            FreeListAllocator<Tracked>(list), "a");
        first = a.get();
        EXPECT_EQ(Tracked::liveObjects, 1);
    }
    EXPECT_EQ(Tracked::liveObjects, 0);
    EXPECT_EQ(list.cachedCount(), 1u);
    auto b = std::allocate_shared<Tracked>(FreeListAllocator<Tracked>(list),
                                           "b");
    EXPECT_EQ(b.get(), first) << "a released block is reused first";
    EXPECT_EQ(b->payload, "b");
    EXPECT_EQ(list.cachedCount(), 0u);
}

TEST(FreeList, CacheIsBounded)
{
    FreeList list;
    std::vector<std::shared_ptr<Tracked>> live;
    const std::size_t n = FreeList::kMaxCached + 10;
    for (std::size_t i = 0; i < n; ++i)
        live.push_back(std::allocate_shared<Tracked>(
            FreeListAllocator<Tracked>(list), std::to_string(i)));
    live.clear();
    EXPECT_EQ(Tracked::liveObjects, 0);
    EXPECT_EQ(list.cachedCount(), FreeList::kMaxCached)
        << "blocks past the cap go back to the heap";
}

// --- SlotArray: index-addressed pool with generation-tagged handles ---

TEST(SlotArray, CreateGetDestroyRoundTrip)
{
    SlotArray<Tracked> arr;
    const SlotHandle h = arr.create("one");
    ASSERT_NE(arr.get(h), nullptr);
    EXPECT_EQ(arr.get(h)->payload, "one");
    EXPECT_EQ(&arr.at(h), arr.get(h));
    EXPECT_EQ(arr.liveCount(), 1u);
    arr.destroy(h);
    EXPECT_EQ(arr.get(h), nullptr);
    EXPECT_EQ(arr.liveCount(), 0u);
    EXPECT_EQ(Tracked::liveObjects, 0);
}

TEST(SlotArray, DefaultHandleNeverResolves)
{
    SlotArray<Tracked> arr;
    arr.create("occupant");
    const SlotHandle none{};
    EXPECT_FALSE(static_cast<bool>(none));
    EXPECT_EQ(arr.get(none), nullptr)
        << "generation 0 must never resolve, even with a live "
           "occupant at index 0";
    EXPECT_EQ(arr.get(SlotHandle{99, 1}), nullptr)
        << "out-of-range index must miss, not fault";
}

TEST(SlotArray, RecycledIndexCarriesNewGeneration)
{
    // The ABA guard itself: destroy + recreate reuses the index, but
    // the stale handle keeps missing while the fresh one resolves.
    SlotArray<Tracked> arr;
    const SlotHandle stale = arr.create("first");
    arr.destroy(stale);
    const SlotHandle fresh = arr.create("second");
    EXPECT_EQ(fresh.index, stale.index) << "freelist should recycle";
    EXPECT_GT(fresh.gen, stale.gen);
    EXPECT_EQ(arr.get(stale), nullptr)
        << "stale handle resolved a recycled slot (ABA)";
    ASSERT_NE(arr.get(fresh), nullptr);
    EXPECT_EQ(arr.get(fresh)->payload, "second");
}

TEST(SlotArray, GenerationsOnlyGrowAcrossManyReuses)
{
    SlotArray<Tracked> arr;
    SlotHandle prev = arr.create("0");
    for (int i = 1; i < 100; ++i) {
        arr.destroy(prev);
        const SlotHandle next = arr.create(std::to_string(i));
        EXPECT_EQ(next.index, prev.index);
        EXPECT_GT(next.gen, prev.gen);
        EXPECT_EQ(arr.get(prev), nullptr);
        prev = next;
    }
}

TEST(SlotArray, AddressesAreStableAcrossGrowth)
{
    // Storage is carved from slabs that never move: pointers taken
    // early must stay valid while the array grows past several slab
    // boundaries.
    SlotArray<Tracked, 8> arr;
    std::vector<std::pair<SlotHandle, Tracked*>> first;
    for (int i = 0; i < 8; ++i) {
        const SlotHandle h = arr.create(std::to_string(i));
        first.emplace_back(h, arr.get(h));
    }
    for (int i = 8; i < 100; ++i)
        arr.create(std::to_string(i));
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(arr.get(first[i].first), first[i].second);
        EXPECT_EQ(first[i].second->payload, std::to_string(i));
    }
    EXPECT_EQ(arr.liveCount(), 100u);
    EXPECT_EQ(arr.indexCount(), 100u);
}

TEST(SlotArray, FreelistKeepsIndexCountBounded)
{
    // Steady create/destroy churn recycles indexes instead of
    // carving new ones: the high-water mark tracks peak liveness,
    // not total objects ever created.
    SlotArray<Tracked> arr;
    for (int round = 0; round < 50; ++round) {
        SlotHandle a = arr.create("a");
        SlotHandle b = arr.create("b");
        arr.destroy(a);
        arr.destroy(b);
    }
    EXPECT_EQ(arr.liveCount(), 0u);
    EXPECT_LE(arr.indexCount(), 2u);
    EXPECT_EQ(Tracked::liveObjects, 0);
}

TEST(SlotArray, DestructorDestroysSurvivors)
{
    Tracked::liveObjects = 0;
    {
        SlotArray<Tracked> arr;
        arr.create("a");
        const SlotHandle b = arr.create("b");
        arr.create("c");
        arr.destroy(b);
        EXPECT_EQ(Tracked::liveObjects, 2);
    }
    EXPECT_EQ(Tracked::liveObjects, 0)
        << "array destructor must run survivors' destructors";
}

TEST(SlotArray, HandleEqualityComparesIndexAndGeneration)
{
    SlotArray<Tracked> arr;
    const SlotHandle a = arr.create("a");
    const SlotHandle copy = a;
    EXPECT_EQ(a, copy);
    arr.destroy(a);
    const SlotHandle recycled = arr.create("b");
    EXPECT_EQ(recycled.index, a.index);
    EXPECT_NE(recycled, a)
        << "same index, different generation: distinct handles";
    EXPECT_NE(SlotHandle{}, a);
}

TEST(SlotArray, AtPanicsOnStaleHandle)
{
    SlotArray<Tracked> arr;
    const SlotHandle h = arr.create("x");
    arr.destroy(h);
    EXPECT_DEATH(arr.at(h), "stale slot handle");
}

} // namespace
} // namespace specfaas
