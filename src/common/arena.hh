/**
 * @file
 * Slab-backed object pool for hot-path allocations.
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
 * the pool as an arena freed wholesale at end of scope.
 */

#ifndef SPECFAAS_COMMON_ARENA_HH
#define SPECFAAS_COMMON_ARENA_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

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
        for (auto& slab : slabs_) {
            for (std::size_t i = 0; i < SlabObjects; ++i) {
                if (slab[i].live)
                    objectAt(slab[i])->~T();
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

} // namespace specfaas

#endif // SPECFAAS_COMMON_ARENA_HH
