#include "json_report.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>

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

// --- JSON parsing -------------------------------------------------------

namespace {

struct Parser
{
    const char* p;
    const char* end;
    std::string err;

    bool fail(const std::string& what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    void skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool consume(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return fail(strFormat("expected '%c' at offset %zu", c,
                              static_cast<std::size_t>(p - end)));
    }

    bool parseValue(Value& out);

    bool parseString(std::string& out)
    {
        skipWs();
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p >= end)
                return fail("truncated escape");
            const char esc = *p++;
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (end - p < 4)
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    code <<= 4;
                    const char h = *p++;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the code point (BMP only; surrogate
                // pairs are not produced by our own writer).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                return fail("bad escape");
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool parseNumber(Value& out)
    {
        const char* start = p;
        if (p < end && *p == '-')
            ++p;
        bool isDouble = false;
        while (p < end &&
               ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
                *p == 'E' || *p == '+' || *p == '-')) {
            if (*p == '.' || *p == 'e' || *p == 'E')
                isDouble = true;
            ++p;
        }
        if (p == start)
            return fail("expected number");
        const std::string text(start, p);
        if (!isDouble) {
            errno = 0;
            char* endp = nullptr;
            const long long i = std::strtoll(text.c_str(), &endp, 10);
            if (errno == 0 && endp != nullptr && *endp == '\0') {
                out = Value(static_cast<std::int64_t>(i));
                return true;
            }
        }
        out = Value(std::strtod(text.c_str(), nullptr));
        return true;
    }
};

bool
Parser::parseValue(Value& out)
{
    skipWs();
    if (p >= end)
        return fail("unexpected end of input");
    switch (*p) {
    case '{': {
        ++p;
        ValueObject obj;
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            out = Value(std::move(obj));
            return true;
        }
        while (true) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return false;
            Value v;
            if (!parseValue(v))
                return false;
            obj.emplace(std::move(key), std::move(v));
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            break;
        }
        if (!consume('}'))
            return false;
        out = Value(std::move(obj));
        return true;
    }
    case '[': {
        ++p;
        ValueArray arr;
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            out = Value(std::move(arr));
            return true;
        }
        while (true) {
            Value v;
            if (!parseValue(v))
                return false;
            arr.push_back(std::move(v));
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            break;
        }
        if (!consume(']'))
            return false;
        out = Value(std::move(arr));
        return true;
    }
    case '"': {
        std::string s;
        if (!parseString(s))
            return false;
        out = Value(std::move(s));
        return true;
    }
    case 't':
        if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
            p += 4;
            out = Value(true);
            return true;
        }
        return fail("bad literal");
    case 'f':
        if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
            p += 5;
            out = Value(false);
            return true;
        }
        return fail("bad literal");
    case 'n':
        if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
            p += 4;
            out = Value();
            return true;
        }
        return fail("bad literal");
    default:
        return parseNumber(out);
    }
}

} // namespace

bool
parseJson(const std::string& text, Value& out, std::string* error)
{
    Parser parser{text.data(), text.data() + text.size(), {}};
    if (!parser.parseValue(out)) {
        if (error != nullptr)
            *error = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        if (error != nullptr)
            *error = "trailing characters after document";
        return false;
    }
    return true;
}

// --- Section conversions ------------------------------------------------

Value
toValue(const LatencyHistogram& h)
{
    ValueObject o;
    o["count"] = Value(static_cast<std::int64_t>(h.count()));
    o["sum"] = Value(h.sum());
    o["min"] = Value(h.min());
    o["max"] = Value(h.max());
    o["mean"] = Value(h.mean());
    ValueObject pct;
    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        pct[strFormat("p%g", p)] = Value(h.percentile(p));
    }
    o["percentiles"] = Value(std::move(pct));
    ValueArray buckets;
    for (const auto& b : h.buckets()) {
        buckets.push_back(Value::object(
            {{"lo", Value(b.lower)},
             {"hi", Value(b.upper)},
             {"n", Value(static_cast<std::int64_t>(b.count))}}));
    }
    o["buckets"] = Value(std::move(buckets));
    return Value(std::move(o));
}

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
                      bool higherIsBetter, const std::string& unit)
{
    ValueObject m;
    m["value"] = Value(value);
    m["higher_is_better"] = Value(higherIsBetter);
    if (!unit.empty())
        m["unit"] = Value(unit);
    metrics_[name] = Value(std::move(m));
}

void
JsonReport::addSection(const std::string& name, Value v)
{
    sections_[name] = std::move(v);
}

void
JsonReport::addHistogram(const std::string& name,
                         const LatencyHistogram& h)
{
    histograms_[name] = toValue(h);
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
    doc["histograms"] = Value(histograms_);
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

// --- Report comparison --------------------------------------------------

namespace {

/** A metric value that compares as "not there": JSON null (how NaN
 * renders) or a non-finite double (a NaN that never round-tripped). */
bool
undefinedMetric(const Value& v)
{
    return v.isNull() || (v.isDouble() && !std::isfinite(v.asNumber()));
}

} // namespace

CompareResult
compareReports(const Value& baseline, const Value& candidate,
               const CompareOptions& opts)
{
    CompareResult res;
    if (!baseline.isObject() || baseline.asObject().empty()) {
        res.errors.push_back(
            "baseline report is empty or not a JSON object");
        return res;
    }
    if (!candidate.isObject() || candidate.asObject().empty()) {
        res.errors.push_back(
            "candidate report is empty or not a JSON object");
        return res;
    }
    const Value& bs = baseline.at("schema");
    const Value& cs = candidate.at("schema");
    if (!bs.isString() || !cs.isString() ||
        bs.asString() != cs.asString()) {
        res.errors.push_back("schema mismatch");
        return res;
    }
    const Value& bb = baseline.at("bench");
    const Value& cb = candidate.at("bench");
    if (bb.isString() && cb.isString() &&
        bb.asString() != cb.asString()) {
        res.errors.push_back(strFormat(
            "bench mismatch: baseline '%s' vs candidate '%s'",
            bb.asString().c_str(), cb.asString().c_str()));
        return res;
    }

    const Value& bm = baseline.at("metrics");
    const Value& cm = candidate.at("metrics");
    if (!bm.isObject()) {
        res.errors.push_back("baseline has no metrics object");
        return res;
    }
    if (!cm.isObject()) {
        res.errors.push_back("candidate has no metrics object");
        return res;
    }
    for (const auto& [name, metric] : bm.asObject()) {
        const Value& other = cm.at(name);
        if (other.isNull()) {
            res.errors.push_back(
                strFormat("metric '%s' missing from candidate",
                          name.c_str()));
            continue;
        }
        const Value& oldV = metric.at("value");
        const Value& newV = other.at("value");
        // NaN renders as JSON null; a metric that silently became
        // undefined is a broken bench, not a pass.
        if (undefinedMetric(oldV) && undefinedMetric(newV)) {
            res.notes.push_back(strFormat(
                "metric '%s' undefined in both reports", name.c_str()));
            continue;
        }
        if (undefinedMetric(newV)) {
            res.errors.push_back(strFormat(
                "metric '%s' became undefined (NaN) in candidate",
                name.c_str()));
            continue;
        }
        if (undefinedMetric(oldV)) {
            res.notes.push_back(strFormat(
                "metric '%s' undefined in baseline, %g in candidate",
                name.c_str(), newV.asNumber()));
            continue;
        }
        const double oldX = oldV.asNumber();
        const double newX = newV.asNumber();
        const bool higherBetter =
            metric.at("higher_is_better").isBool()
                ? metric.at("higher_is_better").asBool()
                : true;
        const double delta = newX - oldX;
        if (std::fabs(delta) <= opts.absTolerance)
            continue;
        const double rel =
            oldX != 0.0 ? delta / std::fabs(oldX)
                        : std::numeric_limits<double>::infinity() *
                              (delta > 0 ? 1.0 : -1.0);
        const double badness = opts.twoSided
                                   ? std::fabs(rel)
                                   : (higherBetter ? -rel : rel);
        const std::string line = strFormat(
            "%s: %g -> %g (%+.2f%%, %s is better)", name.c_str(), oldX,
            newX, rel * 100.0, higherBetter ? "higher" : "lower");
        if (badness > opts.relTolerance)
            res.regressions.push_back(line);
        else
            res.notes.push_back(line);
    }
    // Candidate-only metrics can't regress anything, but surfacing
    // them catches renamed metrics whose old name then reads as
    // "missing from candidate" forever.
    for (const auto& [name, metric] : cm.asObject()) {
        (void)metric;
        if (bm.at(name).isNull()) {
            res.notes.push_back(strFormat(
                "metric '%s' only in candidate", name.c_str()));
        }
    }

    // Deterministic profiler zones (sections.profile.zones), gated by
    // subset: snapshots without a profile section gate nothing, so
    // profiled and unprofiled baselines coexist. Zone visit/count
    // drift is directionless identity data — with --two-sided drift
    // beyond tolerance is a regression, one-sided runs only note it.
    const Value& bz =
        baseline.at("sections").at("profile").at("zones");
    const Value& cz =
        candidate.at("sections").at("profile").at("zones");
    if (bz.isArray()) {
        if (!cz.isArray()) {
            res.errors.push_back(
                "baseline has profile zones but candidate has none");
            return res;
        }
        std::map<std::string, const Value*> candidateZones;
        for (const Value& z : cz.asArray()) {
            if (z.at("name").isString())
                candidateZones[z.at("name").asString()] = &z;
        }
        for (const Value& z : bz.asArray()) {
            if (!z.at("name").isString())
                continue;
            const std::string& zname = z.at("name").asString();
            auto it = candidateZones.find(zname);
            if (it == candidateZones.end()) {
                res.errors.push_back(strFormat(
                    "profile zone '%s' missing from candidate",
                    zname.c_str()));
                continue;
            }
            for (const char* field : {"visits", "count"}) {
                const Value& oldV = z.at(field);
                const Value& newV = it->second->at(field);
                if (oldV.isNull() || newV.isNull())
                    continue;
                const double oldX = oldV.asNumber();
                const double newX = newV.asNumber();
                const double delta = newX - oldX;
                if (std::fabs(delta) <= opts.absTolerance)
                    continue;
                const double rel =
                    oldX != 0.0
                        ? std::fabs(delta / oldX)
                        : std::numeric_limits<double>::infinity();
                const std::string line = strFormat(
                    "profile zone '%s' %s: %g -> %g (%+.2f%%)",
                    zname.c_str(), field, oldX, newX,
                    (newX - oldX) / (oldX != 0.0 ? oldX : 1.0) *
                        100.0);
                if (opts.twoSided && rel > opts.relTolerance)
                    res.regressions.push_back(line);
                else
                    res.notes.push_back(line);
            }
            candidateZones.erase(it);
        }
        for (const auto& [zname, z] : candidateZones) {
            (void)z;
            res.notes.push_back(strFormat(
                "profile zone '%s' only in candidate", zname.c_str()));
        }
    }
    return res;
}

int
compareReportFiles(const std::string& baselinePath,
                   const std::string& candidatePath,
                   const CompareOptions& opts, std::string* output)
{
    auto say = [output](const std::string& line) {
        if (output != nullptr) {
            *output += line;
            *output += '\n';
        }
    };

    Value reports[2];
    const std::string* paths[2] = {&baselinePath, &candidatePath};
    for (int i = 0; i < 2; ++i) {
        std::FILE* f = std::fopen(paths[i]->c_str(), "rb");
        if (f == nullptr) {
            say(strFormat("ERROR      cannot read %s",
                          paths[i]->c_str()));
            return 2;
        }
        std::string text;
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        std::string error;
        if (!parseJson(text, reports[i], &error)) {
            say(strFormat("ERROR      %s: %s", paths[i]->c_str(),
                          error.c_str()));
            return 2;
        }
    }

    const CompareResult result =
        compareReports(reports[0], reports[1], opts);
    for (const std::string& e : result.errors)
        say("ERROR      " + e);
    for (const std::string& r : result.regressions)
        say("REGRESSION " + r);
    for (const std::string& n2 : result.notes)
        say("note       " + n2);
    if (result.ok()) {
        say(strFormat("OK: %s is within %.1f%% of %s",
                      candidatePath.c_str(),
                      100.0 * opts.relTolerance,
                      baselinePath.c_str()));
        return 0;
    }
    say(strFormat("FAIL: %zu error(s), %zu regression(s)",
                  result.errors.size(), result.regressions.size()));
    return 1;
}

} // namespace specfaas::obs
