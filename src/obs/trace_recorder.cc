#include "trace_recorder.hh"

#include "common/logging.hh"

namespace specfaas::obs {

void
TraceRecorder::enable(std::size_t capacity)
{
    SPECFAAS_ASSERT(capacity > 0, "trace ring with zero capacity");
    capacity_ = capacity;
    // The ring grows as events arrive, up to the capacity: a task
    // context that records a few thousand events must not pay for a
    // session-sized ring.
    std::vector<TraceEvent>().swap(ring_);
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
    enabled_ = true;
}

void
TraceRecorder::clear()
{
    ring_.clear();
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
}

void
TraceRecorder::record(TraceEvent ev)
{
    if (!enabled_ || !sampled(ev.tid))
        return;
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(ev));
        ++size_;
        head_ = ring_.size() % capacity_;
        return;
    }
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

void
TraceRecorder::begin(const char* category, std::string name, Tick ts,
                     std::uint64_t pid, std::uint64_t tid,
                     std::vector<TraceArg> args)
{
    record(TraceEvent{Phase::Begin, category, std::move(name), ts, pid,
                      tid, std::move(args)});
}

void
TraceRecorder::end(const char* category, std::string name, Tick ts,
                   std::uint64_t pid, std::uint64_t tid,
                   std::vector<TraceArg> args)
{
    record(TraceEvent{Phase::End, category, std::move(name), ts, pid,
                      tid, std::move(args)});
}

void
TraceRecorder::instant(const char* category, std::string name, Tick ts,
                       std::uint64_t pid, std::uint64_t tid,
                       std::vector<TraceArg> args)
{
    record(TraceEvent{Phase::Instant, category, std::move(name), ts, pid,
                      tid, std::move(args)});
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest event sits at head_ once the ring has wrapped.
    const std::size_t start = size_ < capacity_ ? 0 : head_;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % capacity_]);
    return out;
}

void
TraceRecorder::absorb(const TraceRecorder& other)
{
    if (!enabled_)
        return;
    const std::size_t start =
        other.size_ < other.capacity_ ? 0 : other.head_;
    for (std::size_t i = 0; i < other.size_; ++i)
        record(other.ring_[(start + i) % other.capacity_]);
    dropped_ += other.dropped_;
}

// trace() — the default-context shim — is defined in
// sim/sim_context.cc.

} // namespace specfaas::obs
