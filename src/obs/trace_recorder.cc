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
    dropped_ = 0;
    enabled_ = true;
}

void
TraceRecorder::clear()
{
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
}

void
TraceRecorder::record(TraceEvent ev)
{
    if (!enabled_)
        return;
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(ev));
        head_ = ring_.size() % capacity_;
        return;
    }
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

void
TraceRecorder::begin(const char* category, const char* name, Tick ts,
                     std::uint64_t pid, std::uint64_t tid,
                     std::vector<TraceArg> args)
{
    record(TraceEvent{Phase::Begin, category, name, ts, pid,
                      tid, std::move(args)});
}

void
TraceRecorder::end(const char* category, const char* name, Tick ts,
                   std::uint64_t pid, std::uint64_t tid,
                   std::vector<TraceArg> args)
{
    record(TraceEvent{Phase::End, category, name, ts, pid,
                      tid, std::move(args)});
}

void
TraceRecorder::instant(const char* category, const char* name, Tick ts,
                       std::uint64_t pid, std::uint64_t tid,
                       std::vector<TraceArg> args)
{
    record(TraceEvent{Phase::Instant, category, name, ts, pid,
                      tid, std::move(args)});
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    forEach([&out](const TraceEvent& ev) { out.push_back(ev); });
    return out;
}

void
TraceRecorder::absorb(const TraceRecorder& other)
{
    if (!enabled_)
        return;
    other.forEach([this](const TraceEvent& ev) { record(ev); });
    dropped_ += other.dropped_;
}

} // namespace specfaas::obs
