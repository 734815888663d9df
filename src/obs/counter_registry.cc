#include "counter_registry.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"

namespace specfaas::obs {

std::uint64_t&
CounterRegistry::counter(const std::string& name)
{
    return counters_[name];
}

void
CounterRegistry::add(const std::string& name, std::uint64_t delta)
{
    counters_[name] += delta;
}

std::uint64_t
CounterRegistry::value(const std::string& name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, double>>
CounterRegistry::snapshot() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(entryCount());
    for (const auto& [name, v] : counters_)
        out.emplace_back(name, static_cast<double>(v));
    return out;
}

void
CounterRegistry::mergeInto(CounterRegistry& dst) const
{
    for (const auto& [name, v] : counters_)
        dst.counters_[name] += v;
}

std::string
CounterRegistry::table() const
{
    TextTable t;
    t.header({"counter", "value"});
    for (const auto& [name, v] : counters_)
        t.row({name, strFormat("%llu",
                               static_cast<unsigned long long>(v))});
    return t.render();
}

void
CounterRegistry::printTable() const
{
    std::fputs(table().c_str(), stdout);
}

void
CounterRegistry::clear()
{
    counters_.clear();
}

} // namespace specfaas::obs
