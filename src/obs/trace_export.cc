#include "trace_export.hh"

#include <cstdio>
#include <cstring>
#include <set>

#include "common/logging.hh"

namespace specfaas::obs {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20)
                out += strFormat("\\u%04x", c);
            else
                out += static_cast<char>(c);
        }
    }
    return out;
}

namespace {

void
appendArgs(std::string& out, const std::vector<TraceArg>& args)
{
    out += "\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        const TraceArg& a = args[i];
        if (i > 0)
            out += ',';
        out += '"';
        out += jsonEscape(a.key);
        out += "\":";
        if (const auto* n = std::get_if<std::int64_t>(&a.value)) {
            // The lifecycle span's invocation id renders as a JSON
            // string, the form existing traces carry; every other
            // integer is bare.
            out += strFormat(std::strcmp(a.key, "invocation") == 0
                                 ? "\"%lld\""
                                 : "%lld",
                             static_cast<long long>(*n));
        } else if (const auto* r = std::get_if<double>(&a.value)) {
            out += strFormat("%.3f", *r);
        } else {
            out += '"';
            out += jsonEscape(a.text());
            out += '"';
        }
    }
    out += '}';
}

void
appendEvent(std::string& out, const TraceEvent& e)
{
    out += strFormat("{\"ph\":\"%c\",\"cat\":\"%s\",\"name\":\"",
                     static_cast<char>(e.phase), e.category);
    out += jsonEscape(e.name);
    out += strFormat("\",\"ts\":%lld,\"pid\":%llu,\"tid\":%llu,",
                     static_cast<long long>(e.ts),
                     static_cast<unsigned long long>(e.pid),
                     static_cast<unsigned long long>(e.tid));
    appendArgs(out, e.args);
    out += '}';
}

void
appendProcessName(std::string& out, std::uint64_t pid,
                  const std::string& name)
{
    out += strFormat("{\"ph\":\"M\",\"name\":\"process_name\","
                     "\"pid\":%llu,\"tid\":0,\"args\":{\"name\":\"",
                     static_cast<unsigned long long>(pid));
    out += jsonEscape(name);
    out += "\"}}";
}

/**
 * Render the Chrome trace document of the events @p forEach visits
 * (oldest first) into @p out. Whenever @p out reaches @p chunk bytes,
 * and once at the end, @p out is handed to @p flush; a streaming
 * flush writes it out and clears it.
 */
template <typename ForEach, typename Flush>
void
renderChromeTrace(const ForEach& forEach, std::string& out,
                  std::size_t chunk, const Flush& flush)
{
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

    std::set<std::uint64_t> pids;
    forEach([&pids](const TraceEvent& e) { pids.insert(e.pid); });
    bool first = true;
    for (std::uint64_t pid : pids) {
        if (!first)
            out += ',';
        first = false;
        appendProcessName(out, pid,
                          pid == kControlPlanePid
                              ? "control-plane"
                              : strFormat("node-%llu",
                                          static_cast<unsigned long long>(
                                              pid - 1)));
    }
    forEach([&](const TraceEvent& e) {
        if (!first)
            out += ',';
        first = false;
        appendEvent(out, e);
        if (out.size() >= chunk)
            flush(out);
    });
    out += "]}";
    flush(out);
}

} // namespace

std::string
toChromeTraceJson(const std::vector<TraceEvent>& events)
{
    std::string out;
    renderChromeTrace(
        [&events](const auto& visit) {
            for (const TraceEvent& e : events)
                visit(e);
        },
        out, std::string::npos, [](std::string&) {});
    return out;
}

bool
writeChromeTrace(const TraceRecorder& recorder, const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    // Render straight from the ring through a bounded buffer: a
    // full trace runs to hundreds of MiB, so neither the events nor
    // the document are ever held whole.
    constexpr std::size_t kChunk = 1 << 20;
    std::string buf;
    buf.reserve(kChunk + 4096);
    bool ok = true;
    renderChromeTrace(
        [&recorder](const auto& visit) { recorder.forEach(visit); }, buf,
        kChunk, [f, &ok](std::string& text) {
            ok = ok && std::fwrite(text.data(), 1, text.size(), f) ==
                           text.size();
            text.clear();
        });
    return std::fclose(f) == 0 && ok;
}

} // namespace specfaas::obs
