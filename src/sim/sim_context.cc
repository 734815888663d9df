#include "sim_context.hh"

#include "sim/simulation.hh"

namespace specfaas {

void
SimContext::reset()
{
    resetIds();
    trace_.disable();
    trace_.clear();
    counters_.clear();
    profiler_.disable();
    profiler_.clear();
}

std::unique_ptr<SimContext>
SimContext::forTask(const SimContext& session, std::uint64_t taskIndex)
{
    auto context = std::make_unique<SimContext>();
    if (session.trace_.enabled())
        context->trace_.enable(session.trace_.capacity());
    if (session.profiler_.enabled())
        context->profiler_.enable();
    context->setIdBase((taskIndex + 1) << kTaskIdBits);
    return context;
}

void
SimContext::mergeInto(SimContext& dst) const
{
    dst.trace_.absorb(trace_);
    counters_.mergeInto(dst.counters_);
    profiler_.mergeInto(dst.profiler_);
}

SimContext&
defaultSimContext()
{
    static SimContext context;
    return context;
}

obs::Profiler&
Simulation::contextProfiler() const
{
    return context_->profiler();
}

} // namespace specfaas
