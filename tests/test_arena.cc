/** @file Unit tests for the object pool and the allocate_shared freelist. */

#include <gtest/gtest.h>

#include <cstdint>
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

// --- SlabPool: SlotArray used as a plain slab pool, by pointer only ---
//
// EventQueue entries and busy containers never take a handle: they
// rely on create/destroy alone, so that contract is pinned here
// without handleOf, get or at.

TEST(SlabPool, CreateDestroyRoundTrip)
{
    Tracked::liveObjects = 0;
    SlotArray<Tracked, 4> pool;
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
    SlotArray<Tracked, 4> pool;
    Tracked* a = pool.create("a");
    pool.destroy(a);
    Tracked* b = pool.create("b");
    EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b))
        << "freelist must hand back the recycled slot";
    EXPECT_EQ(b->payload, "b");
    EXPECT_EQ(pool.indexCount(), 1u);
    pool.destroy(b);
}

TEST(SlabPool, DestructorReleasesSurvivors)
{
    Tracked::liveObjects = 0;
    {
        SlotArray<Tracked, 4> pool;
        for (int i = 0; i < 7; ++i)
            pool.create("s");
        Tracked* gone = pool.create("gone");
        pool.destroy(gone);
        EXPECT_EQ(Tracked::liveObjects, 7);
    }
    EXPECT_EQ(Tracked::liveObjects, 0)
        << "pool teardown must run destructors of live objects only";
}

// --- SlotArray: slab pool with generation-tagged handles ---

TEST(SlotArray, CreateGetDestroyRoundTrip)
{
    SlotArray<Tracked, 4> arr;
    Tracked* t = arr.create("one");
    const SlotHandle h = arr.handleOf(*t);
    EXPECT_TRUE(static_cast<bool>(h));
    EXPECT_EQ(arr.get(h), t);
    EXPECT_EQ(&arr.at(h), t);
    EXPECT_EQ(arr.get(h)->payload, "one");
    arr.destroy(t);
    EXPECT_EQ(arr.get(h), nullptr);
    EXPECT_EQ(Tracked::liveObjects, 0);
}

TEST(SlotArray, HandleOfRoundTripsThroughGet)
{
    // Every live object's handle resolves back to that object, across
    // slab boundaries and recycled slots alike.
    SlotArray<Tracked, 4> arr;
    std::vector<Tracked*> objs;
    for (int i = 0; i < 10; ++i)
        objs.push_back(arr.create(std::to_string(i)));
    arr.destroy(objs[3]);
    objs[3] = arr.create("again");
    std::set<std::uint32_t> indexes;
    for (Tracked* t : objs) {
        const SlotHandle h = arr.handleOf(*t);
        EXPECT_TRUE(static_cast<bool>(h));
        EXPECT_EQ(arr.get(h), t);
        indexes.insert(h.index);
    }
    EXPECT_EQ(indexes.size(), objs.size()) << "one index per live slot";
    for (Tracked* t : objs)
        arr.destroy(t);
}

TEST(SlotArray, DefaultHandleNeverResolves)
{
    SlotArray<Tracked> arr;
    Tracked* occupant = arr.create("occupant");
    const SlotHandle none{};
    EXPECT_FALSE(static_cast<bool>(none));
    EXPECT_EQ(arr.get(none), nullptr)
        << "generation 0 must never resolve, even with a live "
           "occupant at index 0";
    EXPECT_EQ(arr.get(SlotHandle{99, 1}), nullptr)
        << "out-of-range index must miss, not fault";
    EXPECT_EQ(arr.get(SlotHandle{1, 1}), nullptr)
        << "an index not yet carved in its slab must miss";
    arr.destroy(occupant);
}

TEST(SlotArray, RecycledIndexCarriesNewGeneration)
{
    // The ABA guard itself: destroy + recreate reuses the slot, but
    // the stale handle keeps missing while the fresh one resolves.
    SlotArray<Tracked, 4> arr;
    Tracked* a = arr.create("first");
    const SlotHandle stale = arr.handleOf(*a);
    arr.destroy(a);
    Tracked* b = arr.create("second");
    const SlotHandle fresh = arr.handleOf(*b);
    EXPECT_EQ(fresh.index, stale.index) << "freelist should recycle";
    EXPECT_GT(fresh.gen, stale.gen);
    EXPECT_EQ(arr.get(stale), nullptr)
        << "stale handle resolved a recycled slot (ABA)";
    ASSERT_EQ(arr.get(fresh), b);
    EXPECT_EQ(arr.get(fresh)->payload, "second");
    arr.destroy(b);
}

TEST(SlotArray, GenerationsOnlyGrowAcrossManyReuses)
{
    SlotArray<Tracked> arr;
    Tracked* t = arr.create("0");
    SlotHandle prev = arr.handleOf(*t);
    for (int i = 1; i < 100; ++i) {
        arr.destroy(t);
        t = arr.create(std::to_string(i));
        const SlotHandle next = arr.handleOf(*t);
        EXPECT_EQ(next.index, prev.index);
        EXPECT_GT(next.gen, prev.gen);
        EXPECT_EQ(arr.get(prev), nullptr);
        prev = next;
    }
    arr.destroy(t);
}

TEST(SlotArray, GrowsByWholeSlabs)
{
    SlotArray<Tracked, 4> arr;
    std::vector<Tracked*> objs;
    for (int i = 0; i < 9; ++i)
        objs.push_back(arr.create(std::to_string(i)));
    EXPECT_EQ(std::set<Tracked*>(objs.begin(), objs.end()).size(), 9u)
        << "live objects at distinct slots";
    EXPECT_EQ(arr.indexCount(), 9u);
    EXPECT_EQ(arr.liveCount(), 9u);
    // A slab is carved whole: the objects of one slab sit at one
    // stride from its first slot, and indexes run in carving order.
    const auto addr = [&](int i) {
        return reinterpret_cast<std::uintptr_t>(objs[i]);
    };
    const std::uintptr_t stride = addr(1) - addr(0);
    EXPECT_GE(stride, sizeof(Tracked));
    for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(addr(i) - addr(i - i % 4), (i % 4) * stride)
            << "object " << i;
        EXPECT_EQ(arr.handleOf(*objs[i]).index,
                  static_cast<std::uint32_t>(i));
    }
    for (Tracked* t : objs)
        arr.destroy(t);
}

TEST(SlotArray, AddressesAreStableAcrossGrowth)
{
    // Storage is carved from slabs that never move: pointers taken
    // early must stay valid while the array grows past several slab
    // boundaries.
    SlotArray<Tracked, 8> arr;
    std::vector<Tracked*> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(arr.create(std::to_string(i)));
    std::vector<SlotHandle> handles;
    for (Tracked* t : first)
        handles.push_back(arr.handleOf(*t));
    for (int i = 8; i < 100; ++i)
        arr.create(std::to_string(i));
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(arr.get(handles[i]), first[i]);
        EXPECT_EQ(first[i]->payload, std::to_string(i));
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
        Tracked* a = arr.create("a");
        Tracked* b = arr.create("b");
        arr.destroy(a);
        arr.destroy(b);
    }
    EXPECT_EQ(arr.liveCount(), 0u);
    EXPECT_LE(arr.indexCount(), 2u);
    EXPECT_EQ(Tracked::liveObjects, 0);
}

TEST(SlotArray, StressInterleavedCreateDestroy)
{
    Tracked::liveObjects = 0;
    SlotArray<Tracked, 8> arr;
    std::vector<Tracked*> live;
    // Deterministic churn: grow to 100, shrink to 50, regrow to 100.
    for (int i = 0; i < 100; ++i)
        live.push_back(arr.create(std::to_string(i)));
    for (int i = 0; i < 50; ++i) {
        arr.destroy(live.back());
        live.pop_back();
    }
    // Exactly the 50 freed slots: regrowth must recycle, not carve.
    for (int i = 0; i < 50; ++i)
        live.push_back(arr.create("r"));
    EXPECT_EQ(arr.indexCount(), 100u)
        << "regrowth into freed slots must not carve new ones";
    EXPECT_EQ(arr.liveCount(), live.size());
    EXPECT_EQ(Tracked::liveObjects, static_cast<int>(live.size()));
    for (Tracked* t : live)
        arr.destroy(t);
    EXPECT_EQ(Tracked::liveObjects, 0);
}

TEST(SlotArray, DestructorDestroysSurvivors)
{
    // A recycled slot whose handle went stale holds a survivor too:
    // teardown destroys it exactly once, by the live generation.
    Tracked::liveObjects = 0;
    {
        SlotArray<Tracked> arr;
        arr.create("a");
        Tracked* b = arr.create("b");
        arr.create("c");
        const SlotHandle stale = arr.handleOf(*b);
        arr.destroy(b);
        Tracked* d = arr.create("d");
        EXPECT_EQ(arr.handleOf(*d).index, stale.index);
        EXPECT_EQ(arr.get(stale), nullptr);
        EXPECT_EQ(Tracked::liveObjects, 3);
    }
    EXPECT_EQ(Tracked::liveObjects, 0)
        << "array destructor must run survivors' destructors";
}

TEST(SlotArray, ForEachVisitsLiveObjectsOnly)
{
    SlotArray<Tracked, 4> arr;
    std::vector<Tracked*> objs;
    for (int i = 0; i < 6; ++i)
        objs.push_back(arr.create(std::to_string(i)));
    arr.destroy(objs[1]);
    arr.destroy(objs[4]);
    std::vector<std::string> seen;
    arr.forEach([&](const Tracked& t) { seen.push_back(t.payload); });
    EXPECT_EQ(seen, (std::vector<std::string>{"0", "2", "3", "5"}));
    for (int i : {0, 2, 3, 5})
        arr.destroy(objs[i]);
}

TEST(SlotArray, HandleEqualityComparesIndexAndGeneration)
{
    SlotArray<Tracked> arr;
    Tracked* t = arr.create("a");
    const SlotHandle a = arr.handleOf(*t);
    const SlotHandle copy = a;
    EXPECT_EQ(a, copy);
    arr.destroy(t);
    const SlotHandle recycled = arr.handleOf(*arr.create("b"));
    EXPECT_EQ(recycled.index, a.index);
    EXPECT_NE(recycled, a)
        << "same index, different generation: distinct handles";
    EXPECT_NE(SlotHandle{}, a);
}

TEST(SlotArray, AtPanicsOnStaleHandle)
{
    SlotArray<Tracked> arr;
    Tracked* t = arr.create("x");
    const SlotHandle h = arr.handleOf(*t);
    arr.destroy(t);
    EXPECT_DEATH(arr.at(h), "stale slot handle");
}

TEST(SlotArray, DoubleDestroyPanics)
{
    SlotArray<Tracked> arr;
    Tracked* t = arr.create("x");
    arr.destroy(t);
    EXPECT_DEATH(arr.destroy(t), "double destroy");
}

#if defined(__SANITIZE_ADDRESS__)
/** Read a field through a pointer its SlotArray already destroyed. */
void
readAfterDestroy()
{
    SlotArray<Tracked, 4> arr;
    Tracked* t = arr.create("stale");
    arr.destroy(t);
    volatile char c = t->payload[0];
    (void)c;
}
#endif

TEST(SlotArrayDeathTest, UseAfterDestroyIsReportedUnderAsan)
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

} // namespace
} // namespace specfaas
