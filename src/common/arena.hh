/**
 * @file
 * The memory behind allocate_shared: a FreeList of equal-size blocks
 * and the std allocator over it. Objects with a single owner live in
 * a SlotArray (common/slot_array.hh) instead.
 */

#ifndef SPECFAAS_COMMON_ARENA_HH
#define SPECFAAS_COMMON_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>

#include "common/logging.hh"

namespace specfaas {

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
