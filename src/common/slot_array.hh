/**
 * @file
 * The simulator's one object pool: slab-carved slots, recycled
 * through a freelist, each addressable by a generation-tagged handle.
 *
 * Event entries, busy containers, invocation records and SpecFaaS
 * pipeline slots are created and destroyed at event rate. A
 * SlotArray carves fixed-size slots out of contiguous slabs that
 * never move or shrink, so steady-state create/destroy touches no
 * allocator, live objects stay densely packed, and a pointer from
 * create() is stable for the object's lifetime. Objects still live
 * when the pool dies are destroyed with it, which lets owners treat
 * it as an arena freed wholesale at end of scope.
 *
 * The API is pointer-first: create() returns the object and
 * destroy() takes it back (the slot sits at the object's address),
 * so the event kernel pays no handle lookup. Owners that need a weak
 * reference derive one with handleOf(): a SlotHandle is the slot's
 * dense index plus its generation, resolved by get()/at() with one
 * slab index and a 32-bit compare. Destroying an object bumps its
 * slot's generation, so a handle captured before a squash, commit or
 * teardown misses afterwards, even when the slot has been recycled
 * (no ABA). A default handle (generation 0) never resolves;
 * generations start at 1 and only grow. Under AddressSanitizer a
 * destroyed slot is poisoned until create() hands it out again, so a
 * use after destroy() is reported instead of reading the slot's next
 * object.
 */

#ifndef SPECFAAS_COMMON_SLOT_ARRAY_HH
#define SPECFAAS_COMMON_SLOT_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <sanitizer/asan_interface.h> // no-op macros without ASan

#include "common/logging.hh"

namespace specfaas {

/** Typed-by-convention handle into one SlotArray. */
struct SlotHandle
{
    std::uint32_t index = 0;
    std::uint32_t gen = 0; // 0 = never valid

    explicit operator bool() const { return gen != 0; }

    friend bool
    operator==(SlotHandle a, SlotHandle b)
    {
        return a.index == b.index && a.gen == b.gen;
    }
    friend bool operator!=(SlotHandle a, SlotHandle b) { return !(a == b); }
};

template <typename T, std::size_t SlabObjects = 64>
class SlotArray
{
    static_assert(SlabObjects > 0, "slab must hold at least one object");

  public:
    SlotArray() = default;
    SlotArray(const SlotArray&) = delete;
    SlotArray& operator=(const SlotArray&) = delete;

    ~SlotArray()
    {
        forEach([](const T& obj) { std::destroy_at(&obj); });
    }

    /** Call @p f on every live object, in index order. */
    template <typename F>
    void
    forEach(F&& f) const
    {
        for (const auto& slab : slabs_) {
            for (std::size_t i = 0; i < SlabObjects; ++i) {
                if (slab[i].live())
                    f(*objectAt(slab[i]));
            }
        }
    }

    /** Construct a T in a recycled or freshly carved slot. */
    template <typename... A>
    T*
    create(A&&... args)
    {
        Slot* slot;
        if (!freelist_.empty()) {
            slot = freelist_.back();
            freelist_.pop_back();
        } else {
            if (carved_ % SlabObjects == 0)
                slabs_.push_back(std::make_unique<Slot[]>(SlabObjects));
            slot = &slabs_.back()[carved_ % SlabObjects];
            slot->index = carved_++;
        }
        ASAN_UNPOISON_MEMORY_REGION(slot->storage, sizeof(T));
        T* obj = ::new (static_cast<void*>(slot->storage))
            T(std::forward<A>(args)...);
        ++slot->gen;
        ++liveCount_;
        return obj;
    }

    /**
     * Destroy a pool-owned object, recycle its slot and bump the
     * slot's generation, invalidating every outstanding handle.
     */
    void
    destroy(T* obj)
    {
        Slot* slot = slotOf(obj);
        SPECFAAS_ASSERT(slot->live(), "double destroy in SlotArray");
        obj->~T();
        ASAN_POISON_MEMORY_REGION(slot->storage, sizeof(T));
        ++slot->gen;
        --liveCount_;
        freelist_.push_back(slot);
    }

    /** The handle of a live pool-owned object. */
    SlotHandle
    handleOf(const T& obj) const
    {
        const Slot* slot = slotOf(&obj);
        return SlotHandle{slot->index, slot->gen};
    }

    /** Resolve a handle; nullptr when stale or never valid. */
    T*
    get(SlotHandle h)
    {
        const std::size_t slab = h.index / SlabObjects;
        if (slab >= slabs_.size())
            return nullptr;
        Slot& slot = slabs_[slab][h.index % SlabObjects];
        if (slot.gen != h.gen || !slot.live())
            return nullptr;
        return objectAt(slot);
    }

    const T*
    get(SlotHandle h) const
    {
        return const_cast<SlotArray*>(this)->get(h);
    }

    /** Resolve a handle that must be live (asserts otherwise). */
    T&
    at(SlotHandle h)
    {
        T* obj = get(h);
        SPECFAAS_ASSERT(obj != nullptr, "stale slot handle %u@%u",
                        h.index, h.gen);
        return *obj;
    }

    const T&
    at(SlotHandle h) const
    {
        return const_cast<SlotArray*>(this)->at(h);
    }

    std::size_t liveCount() const { return liveCount_; }

    /** Slots ever carved (capacity high-water mark). */
    std::size_t indexCount() const { return carved_; }

  private:
    /**
     * storage is the first member, so a slot's address is its
     * object's address. create() and destroy() each bump gen, so it
     * is odd exactly while the slot is live: the header is 8 bytes,
     * the padding a bare live flag would take anyway.
     */
    struct Slot
    {
        alignas(T) unsigned char storage[sizeof(T)];
        std::uint32_t index = 0;
        std::uint32_t gen = 0;

        bool live() const { return (gen & 1) != 0; }
    };

    static Slot*
    slotOf(const T* obj)
    {
        return reinterpret_cast<Slot*>(const_cast<T*>(obj));
    }

    static T*
    objectAt(Slot& slot)
    {
        return std::launder(reinterpret_cast<T*>(slot.storage));
    }

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<Slot*> freelist_;
    std::uint32_t carved_ = 0;
    std::size_t liveCount_ = 0;
};

} // namespace specfaas

#endif // SPECFAAS_COMMON_SLOT_ARRAY_HH
