#include "event_queue.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "obs/profiler.hh"

namespace specfaas {

EventId
EventQueue::schedule(Tick delay, Callback cb)
{
    SPECFAAS_ASSERT(delay >= 0, "negative delay %lld",
                    static_cast<long long>(delay));
    return scheduleEntry(now_ + delay, std::move(cb), false);
}

EventId
EventQueue::scheduleAt(Tick when, Callback cb)
{
    return scheduleEntry(when, std::move(cb), false);
}

EventId
EventQueue::scheduleDaemon(Tick delay, Callback cb)
{
    SPECFAAS_ASSERT(delay >= 0, "negative daemon delay %lld",
                    static_cast<long long>(delay));
    return scheduleEntry(now_ + delay, std::move(cb), true);
}

EventId
EventQueue::scheduleEntry(Tick when, Callback cb, bool daemon)
{
    SPECFAAS_ASSERT(when >= now_, "scheduling in the past (%lld < %lld)",
                    static_cast<long long>(when),
                    static_cast<long long>(now_));
    const EventId id = nextId_++;
    Entry* e = pool_.create(nullptr, id, when, std::move(cb));
    const Tick blocks = (when - refinedBase_) >> kTickBits;
    SPECFAAS_ASSERT(blocks >= 0, "insert before the refined block");
    if (blocks == 0) {
        const auto t = static_cast<unsigned>(when & (kBucketTicks - 1));
        TickList& list = ticks_[t];
        if (list.head == nullptr)
            list.head = e;
        else
            list.tail->next = e;
        list.tail = e;
        tickBits_ |= 1u << t;
        ++wheelItems_;
    } else if (blocks < static_cast<Tick>(kBuckets)) {
        const std::size_t c =
            static_cast<std::size_t>(when >> kTickBits) & (kBuckets - 1);
        e->next = buckets_[c];
        buckets_[c] = e;
        occupancy_[c >> 6] |= std::uint64_t{1} << (c & 63);
        ++wheelItems_;
    } else {
        heapPush(Item{when, id, e});
    }
    states_.push_back(State::Pending);
    maybeCompact();
    if (daemon)
        daemonIds_.push_back(id);
    return id;
}

void
EventQueue::reclaim(Entry* e)
{
    stateOf(e->id) = State::Done;
    --cancelledPending_;
    pool_.destroy(e);
}

EventQueue::Entry*
EventQueue::wheelFront(Tick limit)
{
    for (;;) {
        while (tickBits_ != 0) {
            const auto t = static_cast<unsigned>(std::countr_zero(tickBits_));
            if (stateOf(ticks_[t].head->id) != State::Cancelled)
                return ticks_[t].head;
            reclaim(popTick(t));
        }
        // The refined block is empty, so wheelItems_ counts the
        // coarse buckets alone. Its own bucket is always empty: the
        // scan from the next one finds the earliest occupied block.
        if (wheelItems_ == 0)
            return nullptr;
        const std::size_t r =
            static_cast<std::size_t>(refinedBase_ >> kTickBits) &
            (kBuckets - 1);
        std::size_t word = ((r + 1) & (kBuckets - 1)) >> 6;
        std::uint64_t bits =
            occupancy_[word] & (~std::uint64_t{0} << ((r + 1) & 63));
        while (bits == 0) {
            word = (word + 1) % occupancy_.size();
            bits = occupancy_[word];
        }
        const std::size_t c =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        const Tick base =
            refinedBase_ +
            static_cast<Tick>((c - r) & (kBuckets - 1)) * kBucketTicks;
        if (base > limit)
            return nullptr;
        refine(c, base);
    }
}

EventQueue::Entry*
EventQueue::popTick(unsigned t)
{
    Entry* e = ticks_[t].head;
    ticks_[t].head = e->next;
    if (e->next == nullptr)
        tickBits_ &= ~(1u << t);
    --wheelItems_;
    return e;
}

void
EventQueue::refine(std::size_t c, Tick base)
{
    Entry* e = buckets_[c];
    buckets_[c] = nullptr;
    occupancy_[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
    refinedBase_ = base;
    while (e != nullptr) {
        Entry* next = e->next;
        const auto t = static_cast<unsigned>(e->when & (kBucketTicks - 1));
        TickList& list = ticks_[t];
        if (list.head == nullptr)
            list.tail = e;
        e->next = list.head;
        list.head = e;
        tickBits_ |= 1u << t;
        e = next;
    }
}

void
EventQueue::heapPush(Item item)
{
    heap_.push_back(item);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!earlier(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
EventQueue::heapPop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
        const std::size_t left = 2 * i + 1;
        std::size_t smallest = i;
        if (left < n && earlier(heap_[left], heap_[smallest]))
            smallest = left;
        if (left + 1 < n && earlier(heap_[left + 1], heap_[smallest]))
            smallest = left + 1;
        if (smallest == i)
            break;
        std::swap(heap_[i], heap_[smallest]);
        i = smallest;
    }
}

void
EventQueue::heapSkipCancelled()
{
    while (!heap_.empty() &&
           stateOf(heap_.front().id) == State::Cancelled) {
        Entry* e = heap_.front().entry;
        heapPop();
        reclaim(e);
    }
}

void
EventQueue::maybeCompact()
{
    while (donePrefix_ < states_.size() &&
           states_[donePrefix_] == State::Done)
        ++donePrefix_;
    // Compact only when the resolved prefix dominates the window, so
    // the erase (which shifts the tail down) is amortized O(1) per
    // scheduled event.
    constexpr std::size_t kCompactMin = 1024;
    if (donePrefix_ >= kCompactMin &&
        donePrefix_ * 2 >= states_.size()) {
        states_.erase(states_.begin(),
                      states_.begin() +
                          static_cast<std::ptrdiff_t>(donePrefix_));
        baseId_ += donePrefix_;
        donePrefix_ = 0;
    }
}

bool
EventQueue::dropDaemonId(EventId id)
{
    for (std::size_t i = 0; i < daemonIds_.size(); ++i) {
        if (daemonIds_[i] == id) {
            daemonIds_[i] = daemonIds_.back();
            daemonIds_.pop_back();
            return true;
        }
    }
    return false;
}

bool
EventQueue::cancel(EventId id)
{
    // Ids below the window base are resolved; id 0 is never issued
    // (baseId_ starts at 1).
    if (id < baseId_ || id >= nextId_ || stateOf(id) != State::Pending)
        return false;
    // Lazily cancelled: the queued entry stays in its lane and is
    // skipped (and its slot reclaimed) when the lane reaches it.
    stateOf(id) = State::Cancelled;
    ++cancelledPending_;
    if (!daemonIds_.empty())
        dropDaemonId(id);
    return true;
}

bool
EventQueue::empty() const
{
    return wheelItems_ + heap_.size() == cancelledPending_;
}

void
EventQueue::advanceClock(Tick t)
{
    if (tickBits_ == 0)
        refinedBase_ = t & ~(kBucketTicks - 1);
    now_ = t;
}

void
EventQueue::fire(Entry* e)
{
    const Tick advanced = e->when - now_;
    advanceClock(e->when);
    stateOf(e->id) = State::Done;
    if (!daemonIds_.empty())
        dropDaemonId(e->id);
    ++executed_;
    {
        OBS_ZONE_SCOPE(zone, profiler_, "sim/dispatch");
        zone.addCount(static_cast<std::uint64_t>(advanced));
        e->cb();
    }
    pool_.destroy(e);
}

bool
EventQueue::runNext(Tick limit)
{
    heapSkipCancelled();
    const Item* top = heap_.empty() ? nullptr : &heap_.front();
    Entry* w = wheelFront(top != nullptr ? std::min(limit, top->when)
                                         : limit);
    // The wheel holds the near future and the heap the far future,
    // but both can be populated around the horizon: dispatch the
    // (when, id)-earlier lane minimum.
    if (w != nullptr &&
        (top == nullptr || earlier(Item{w->when, w->id, w}, *top))) {
        if (w->when > limit)
            return false;
        fire(popTick(static_cast<unsigned>(w->when & (kBucketTicks - 1))));
        return true;
    }
    if (top == nullptr || top->when > limit)
        return false;
    Entry* e = top->entry;
    heapPop();
    fire(e);
    return true;
}

bool
EventQueue::runOne()
{
    if (runNext(std::numeric_limits<Tick>::max()))
        return true;
    // Nothing is pending, but a bucket of cancelled entries may have
    // been refined ahead of the clock: pull the block back to now().
    advanceClock(now_);
    return false;
}

void
EventQueue::run()
{
    // Stop once only daemon events remain; a self-rescheduling
    // fleet scan would otherwise keep the loop alive forever. Remaining
    // daemons stay queued and fire if more work arrives later.
    while (pendingWorkCount() > 0 && runOne()) {
    }
}

void
EventQueue::runUntil(Tick until)
{
    SPECFAAS_ASSERT(until >= now_, "runUntil into the past");
    while (runNext(until)) {
    }
    advanceClock(until);
}

} // namespace specfaas
