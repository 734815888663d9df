#include "node.hh"

#include <algorithm>

#include "common/logging.hh"

namespace specfaas {

Node::Node(Simulation& sim, NodeId id, std::uint32_t cores,
           std::uint32_t* busy_total)
    : sim_(sim), id_(id), cores_(cores), busyTotal_(busy_total),
      windowStart_(sim.now()), lastChange_(sim.now())
{
    SPECFAAS_ASSERT(cores > 0, "node with zero cores");
}

void
Node::accountBusy()
{
    const Tick now = sim_.now();
    busyTicks_ += static_cast<Tick>(busy_) * (now - lastChange_);
    lastChange_ = now;
}

ComputeTaskId
Node::submit(Tick duration, ComputeCallback done)
{
    SPECFAAS_ASSERT(duration >= 0, "negative compute duration");
    const ComputeTaskId id = nextTask_++;
    if (busy_ < cores_)
        startTask(id, duration, std::move(done));
    else
        waiting_.push_back(Waiting{id, duration, std::move(done)});
    return id;
}

Node::Running*
Node::findRunning(ComputeTaskId id)
{
    for (Running& r : running_)
        if (r.id == id)
            return &r;
    return nullptr;
}

void
Node::startTask(ComputeTaskId id, Tick duration, ComputeCallback done)
{
    accountBusy();
    ++busy_;
    if (busyTotal_ != nullptr)
        ++*busyTotal_;
    // The callback stays in the running-task table rather than being
    // captured into the event, so the scheduled closure is two words
    // and the completion path needs no extra allocation.
    const EventId completion =
        sim_.events().schedule(duration, [this, id]() {
            Running* r = findRunning(id);
            SPECFAAS_ASSERT(r != nullptr, "completion for unknown task");
            ComputeCallback cb = std::move(r->done);
            if (r != &running_.back())
                *r = std::move(running_.back());
            running_.pop_back();
            coreReleased();
            cb();
        });
    running_.push_back(Running{id, completion, std::move(done)});
}

void
Node::coreReleased()
{
    accountBusy();
    SPECFAAS_ASSERT(busy_ > 0, "releasing core on idle node");
    --busy_;
    if (busyTotal_ != nullptr)
        --*busyTotal_;
    if (waitHead_ < waiting_.size() && busy_ < cores_) {
        Waiting next = std::move(waiting_[waitHead_]);
        ++waitHead_;
        if (waitHead_ == waiting_.size()) {
            waiting_.clear();
            waitHead_ = 0;
        } else if (waitHead_ > 64 &&
                   waitHead_ * 2 > waiting_.size()) {
            waiting_.erase(waiting_.begin(),
                           waiting_.begin() +
                               static_cast<std::ptrdiff_t>(waitHead_));
            waitHead_ = 0;
        }
        startTask(next.id, next.duration, std::move(next.done));
    }
}

bool
Node::abort(ComputeTaskId task, Tick kill_overhead)
{
    // Queued task: drop it outright.
    auto it = std::find_if(waiting_.begin() +
                               static_cast<std::ptrdiff_t>(waitHead_),
                           waiting_.end(),
                           [task](const Waiting& w) {
                               return w.id == task;
                           });
    if (it != waiting_.end()) {
        waiting_.erase(it);
        return true;
    }

    // Running task: cancel its completion and occupy the core for the
    // kill overhead before reclaiming it.
    Running* r = findRunning(task);
    if (r == nullptr)
        return false;
    sim_.events().cancel(r->completion);
    if (r != &running_.back())
        *r = std::move(running_.back());
    running_.pop_back();
    sim_.events().schedule(kill_overhead, [this]() { coreReleased(); });
    return true;
}

bool
Node::isActive(ComputeTaskId task) const
{
    for (const Running& r : running_)
        if (r.id == task)
            return true;
    return std::any_of(waiting_.begin() +
                           static_cast<std::ptrdiff_t>(waitHead_),
                       waiting_.end(),
                       [task](const Waiting& w) { return w.id == task; });
}

Tick
Node::busyCoreTicks() const
{
    return busyTicks_ +
           static_cast<Tick>(busy_) * (sim_.now() - lastChange_);
}

void
Node::resetUtilization()
{
    windowStart_ = sim_.now();
    lastChange_ = sim_.now();
    busyTicks_ = 0;
}

double
Node::utilization() const
{
    const Tick elapsed = sim_.now() - windowStart_;
    if (elapsed <= 0)
        return 0.0;
    return static_cast<double>(busyCoreTicks()) /
           (static_cast<double>(cores_) * static_cast<double>(elapsed));
}

} // namespace specfaas
