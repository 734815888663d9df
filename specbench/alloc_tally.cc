/**
 * @file
 * Counting replacement of the global operator new, for the benchmark's
 * allocations-per-event metric. Kept in its own translation unit so
 * the replaced operators are never inlined into their callers.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> gAllocs{0};

} // namespace

/** Heap allocations made by this process so far. */
std::uint64_t
allocationCount()
{
    return gAllocs.load(std::memory_order_relaxed);
}

void*
operator new(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
