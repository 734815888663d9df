/**
 * @file
 * Pools for hot-path allocations: SlabPool for objects a single
 * owner creates and destroys, FreeList for the shared-ownership
 * blocks of allocate_shared.
 *
 * The simulator creates and destroys a handful of object types at
 * event rates (event callbacks, speculative invocation records).
 * Routing those through the general-purpose heap costs a malloc/free
 * pair per object and scatters them across the address space. A
 * SlabPool carves fixed-size slots out of contiguous slabs and
 * recycles destroyed slots through a freelist, so steady-state
 * create/destroy touches no allocator at all and live objects stay
 * densely packed.
 *
 * Pointers returned by create() are stable for the object's lifetime
 * (slabs never move or shrink); destroy() runs the destructor and
 * recycles the slot. Any objects still live when the pool is
 * destroyed are destroyed with it, which is what lets owners treat
 * the pool as an arena freed wholesale at end of scope. Under
 * AddressSanitizer a destroyed slot is poisoned until create() hands
 * it out again, so a use after destroy() is reported instead of
 * reading whatever object the slot holds next.
 */

#ifndef SPECFAAS_COMMON_ARENA_HH
#define SPECFAAS_COMMON_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <sanitizer/asan_interface.h> // no-op macros without ASan

#include "common/logging.hh"

namespace specfaas {

template <typename T, std::size_t SlabObjects = 64>
class SlabPool
{
    static_assert(SlabObjects > 0, "slab must hold at least one object");

  public:
    SlabPool() = default;
    SlabPool(const SlabPool&) = delete;
    SlabPool& operator=(const SlabPool&) = delete;

    ~SlabPool()
    {
        forEach([](const T& obj) { std::destroy_at(&obj); });
    }

    /** Call @p f on every live object, in slot order. */
    template <typename F>
    void
    forEach(F&& f) const
    {
        for (const auto& slab : slabs_) {
            for (std::size_t i = 0; i < SlabObjects; ++i) {
                if (slab[i].live)
                    f(static_cast<const T&>(*objectAt(slab[i])));
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
            if (slabs_.empty() || slabUsed_ == SlabObjects) {
                slabs_.push_back(
                    std::make_unique<Slot[]>(SlabObjects));
                slabUsed_ = 0;
            }
            slot = &slabs_.back()[slabUsed_++];
        }
        ASAN_UNPOISON_MEMORY_REGION(slot->storage, sizeof(T));
        T* obj = ::new (static_cast<void*>(slot->storage))
            T(std::forward<A>(args)...);
        slot->live = true;
        ++liveCount_;
        return obj;
    }

    /** Destroy a pool-owned object and recycle its slot. */
    void
    destroy(T* obj)
    {
        // storage is the first member, so the object address is the
        // slot address.
        Slot* slot = reinterpret_cast<Slot*>(obj);
        SPECFAAS_ASSERT(slot->live, "double destroy in SlabPool");
        obj->~T();
        ASAN_POISON_MEMORY_REGION(slot->storage, sizeof(T));
        slot->live = false;
        --liveCount_;
        freelist_.push_back(slot);
    }

    /** Objects currently live in the pool. */
    std::size_t liveCount() const { return liveCount_; }

    /** Slabs allocated so far (capacity = slabCount * SlabObjects). */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    struct Slot
    {
        alignas(T) unsigned char storage[sizeof(T)];
        bool live = false;
    };

    static T*
    objectAt(Slot& slot)
    {
        return std::launder(reinterpret_cast<T*>(slot.storage));
    }

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<Slot*> freelist_;
    std::size_t slabUsed_ = 0;
    std::size_t liveCount_ = 0;
};

/**
 * Bounded freelist of equal-size raw blocks: the memory behind a
 * stream of same-type allocate_shared objects (control block plus
 * object in one block). A released block is kept for the next
 * allocation unless kMaxCached blocks are already waiting, in which
 * case it goes back to the heap; steady-state create/destroy thus
 * touches no allocator, and a burst's worth of idle blocks does not
 * stay reserved for this one type. The first allocation fixes the
 * block size; every later one must ask for the same size (one
 * FreeList serves one type). It must outlive every block it hands
 * out.
 */
class FreeList
{
  public:
    static constexpr std::size_t kMaxCached = 1024;

    FreeList() = default;
    FreeList(const FreeList&) = delete;
    FreeList& operator=(const FreeList&) = delete;

    ~FreeList()
    {
        while (head_ != nullptr)
            ::operator delete(std::exchange(head_, head_->next));
    }

    void*
    allocate(std::size_t bytes)
    {
        if (blockSize_ == 0)
            blockSize_ = std::max(bytes, sizeof(Node));
        SPECFAAS_ASSERT(std::max(bytes, sizeof(Node)) == blockSize_,
                        "FreeList serves %zu-byte blocks, asked for %zu",
                        blockSize_, bytes);
        if (head_ == nullptr)
            return ::operator new(blockSize_);
        --cached_;
        return std::exchange(head_, head_->next);
    }

    void
    deallocate(void* p) noexcept
    {
        if (cached_ == kMaxCached) {
            ::operator delete(p);
            return;
        }
        head_ = ::new (p) Node{head_};
        ++cached_;
    }

    /** Released blocks waiting for reuse. */
    std::size_t cachedCount() const { return cached_; }

  private:
    struct Node
    {
        Node* next;
    };

    std::size_t blockSize_ = 0;
    Node* head_ = nullptr;
    std::size_t cached_ = 0;
};

/** Single-object std allocator over a FreeList (for allocate_shared). */
template <typename T>
class FreeListAllocator
{
  public:
    using value_type = T;

    explicit FreeListAllocator(FreeList& list) noexcept : list_(&list) {}
    template <typename U>
    FreeListAllocator(const FreeListAllocator<U>& other) noexcept
        : list_(other.list_)
    {
    }

    T*
    allocate(std::size_t n)
    {
        static_assert(alignof(T) <= alignof(std::max_align_t),
                      "FreeList blocks are max_align_t aligned");
        SPECFAAS_ASSERT(n == 1, "FreeListAllocator serves single objects");
        return static_cast<T*>(list_->allocate(sizeof(T)));
    }

    void deallocate(T* p, std::size_t) noexcept { list_->deallocate(p); }

    template <typename U>
    bool
    operator==(const FreeListAllocator<U>& other) const noexcept
    {
        return list_ == other.list_;
    }

  private:
    template <typename U>
    friend class FreeListAllocator;

    FreeList* list_;
};

} // namespace specfaas

#endif // SPECFAAS_COMMON_ARENA_HH
