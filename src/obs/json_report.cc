#include "json_report.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "obs/trace_export.hh"

namespace specfaas::obs {

// --- JSON rendering -----------------------------------------------------

namespace {

void
renderNumber(std::string& out, double d)
{
    if (!std::isfinite(d)) {
        out += "null"; // JSON has no NaN/Inf
        return;
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), d);
    out.append(buf, res.ptr);
}

void
renderInto(std::string& out, const Value& v, bool pretty, int depth)
{
    const std::string pad = pretty ? std::string(2 * (depth + 1), ' ')
                                   : std::string();
    const std::string close = pretty ? std::string(2 * depth, ' ')
                                     : std::string();
    const char* nl = pretty ? "\n" : "";
    switch (v.kind()) {
    case Value::Kind::Null:
        out += "null";
        return;
    case Value::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        return;
    case Value::Kind::Int:
        out += strFormat("%lld",
                         static_cast<long long>(v.asInt()));
        return;
    case Value::Kind::Double:
        renderNumber(out, v.asDouble());
        return;
    case Value::Kind::String:
        out += '"';
        out += jsonEscape(v.asString());
        out += '"';
        return;
    case Value::Kind::Array: {
        const ValueArray& a = v.asArray();
        if (a.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < a.size(); ++i) {
            out += pad;
            renderInto(out, a[i], pretty, depth + 1);
            if (i + 1 < a.size())
                out += ',';
            out += nl;
        }
        out += close;
        out += ']';
        return;
    }
    case Value::Kind::Object: {
        const ValueObject& o = v.asObject();
        if (o.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        out += nl;
        std::size_t i = 0;
        for (const auto& [key, val] : o) {
            out += pad;
            out += '"';
            out += jsonEscape(key);
            out += pretty ? "\": " : "\":";
            renderInto(out, val, pretty, depth + 1);
            if (++i < o.size())
                out += ',';
            out += nl;
        }
        out += close;
        out += '}';
        return;
    }
    }
}

} // namespace

std::string
toJson(const Value& v, bool pretty)
{
    std::string out;
    renderInto(out, v, pretty, 0);
    if (pretty)
        out += '\n';
    return out;
}

// --- Section conversions ------------------------------------------------

namespace {

/** A report integer: a count or a tick total, whatever its C++ type. */
template <typename T>
Value
integer(T v)
{
    return Value(static_cast<std::int64_t>(v));
}

Value
toValue(const SegmentBreakdown& b)
{
    return Value::object({{"queueing", integer(b.queueing)},
                          {"container_creation", integer(b.containerCreation)},
                          {"runtime_setup", integer(b.runtimeSetup)},
                          {"execution", integer(b.execution)},
                          {"stall_read", integer(b.stallRead)},
                          {"validation", integer(b.validation)},
                          {"commit_wait", integer(b.commitWait)},
                          {"total", integer(b.total())}});
}

} // namespace

Value
toValue(const CriticalPathReport& r)
{
    ValueObject apps;
    for (const auto& [name, app] : r.perApp) {
        apps[name] = Value::object({{"invocations", integer(app.invocations)},
                                    {"totals", toValue(app.totals)}});
    }
    const WastedWork& ww = r.speculation;
    ValueObject byReason;
    for (const auto& [reason, ticks] : ww.wastedByReason) {
        byReason[reason] = Value::object(
            {{"squashes", integer(ww.squashesByReason.at(reason))},
             {"wasted_ticks", integer(ticks)}});
    }
    const Value spec = Value::object(
        {{"useful_ticks", integer(ww.usefulTicks)},
         {"wasted_ticks", integer(ww.wastedTicks)},
         {"committed_instances", integer(ww.committedInstances)},
         {"squashed_instances", integer(ww.squashedInstances)},
         {"wasted_fraction", Value(ww.wastedFraction())},
         {"by_reason", Value(std::move(byReason))}});
    return Value::object({{"invocations", integer(r.invocations.size())},
                          {"rejected", integer(r.rejectedInvocations)},
                          {"incomplete", integer(r.incompleteInvocations)},
                          {"totals", toValue(r.totals)},
                          {"per_app", Value(std::move(apps))},
                          {"speculation", spec}});
}

Value
counterSnapshotValue(const CounterRegistry& reg)
{
    ValueObject o;
    for (const auto& [name, value] : reg.snapshot())
        o[name] = Value(value);
    return Value(std::move(o));
}

// --- JsonReport ---------------------------------------------------------

JsonReport::JsonReport(std::string benchName)
    : bench_(std::move(benchName))
{
}

void
JsonReport::setConfig(const std::string& key, Value v)
{
    config_[key] = std::move(v);
}

void
JsonReport::addMetric(const std::string& name, double value,
                      const std::string& unit)
{
    ValueObject m;
    m["value"] = Value(value);
    if (!unit.empty())
        m["unit"] = Value(unit);
    metrics_[name] = Value(std::move(m));
}

void
JsonReport::addSection(const std::string& name, Value v)
{
    sections_[name] = std::move(v);
}

Value
JsonReport::build() const
{
    ValueObject doc;
    doc["schema"] = Value(kReportSchema);
    doc["bench"] = Value(bench_);
    doc["config"] = Value(config_);
    doc["metrics"] = Value(metrics_);
    doc["sections"] = Value(sections_);
    return Value(std::move(doc));
}

bool
JsonReport::writeFile(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string text = toJson(build());
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace specfaas::obs
