#include "profiler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <deque>

#include "common/logging.hh"

namespace specfaas::obs {

// --- Site registry ------------------------------------------------------

namespace {

/**
 * Process-global site registry. Sites are interned once per OBS_ZONE
 * call site through a function-local static, so the mutex is cold:
 * it is taken on first execution of each site and never again.
 * Names live in a deque so zoneSiteName() references stay stable.
 */
struct SiteRegistry
{
    std::mutex mutex;
    std::deque<std::string> names;
    std::unordered_map<std::string, std::uint32_t> ids;
};

SiteRegistry&
siteRegistry()
{
    static SiteRegistry reg;
    return reg;
}

/** The counting-operator-new tally the profiler reads, if any. */
std::atomic<const std::atomic<std::uint64_t>*> gAllocSource{nullptr};

} // namespace

std::uint32_t
internZoneSite(const char* name)
{
    SiteRegistry& reg = siteRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.ids.find(name);
    if (it != reg.ids.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(reg.names.size());
    reg.names.emplace_back(name);
    reg.ids.emplace(name, id);
    return id;
}

const std::string&
zoneSiteName(std::uint32_t site)
{
    SiteRegistry& reg = siteRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    SPECFAAS_ASSERT(site < reg.names.size(),
                    "unknown zone site %u", site);
    return reg.names[site];
}

std::size_t
zoneSiteCount()
{
    SiteRegistry& reg = siteRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.names.size();
}

// --- Profiler -----------------------------------------------------------

void
Profiler::setAllocSource(const std::atomic<std::uint64_t>* src)
{
    gAllocSource.store(src, std::memory_order_relaxed);
}

std::uint64_t
Profiler::nowNs() const
{
    if (clock_ != nullptr)
        return clock_();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
Profiler::allocsNow() const
{
    const auto* src = gAllocSource.load(std::memory_order_relaxed);
    return src != nullptr ? src->load(std::memory_order_relaxed) : 0;
}

void
Profiler::enable()
{
    clear();
    enabled_ = true;
}

void
Profiler::disable()
{
    enabled_ = false;
    // Open frames are abandoned: their ZoneScope destructors will
    // still run exit(), which tolerates the empty stack below.
    stack_.clear();
    current_ = 0;
}

void
Profiler::clear()
{
    current_ = 0;
    stack_.clear();
    nodes_.assign(1, Node{0, 0});
    stats_.assign(1, Stats{});
    edges_.clear();
    siteCache_.clear();
}

bool
Profiler::hasData() const
{
    return nodes_.size() > 1;
}

std::uint32_t
Profiler::childPathFor(std::uint32_t parent, std::uint32_t site)
{
    constexpr std::uint32_t kNoParent = 0xffffffffu;
    if (site >= siteCache_.size())
        siteCache_.resize(site + 1, {kNoParent, 0});
    auto& cached = siteCache_[site];
    if (cached.first == parent)
        return cached.second;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(parent) << 32) | site;
    std::uint32_t node;
    if (const auto it = edges_.find(key); it != edges_.end()) {
        node = it->second;
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{parent, site});
        stats_.emplace_back();
        edges_.emplace(key, node);
    }
    cached = {parent, node};
    return node;
}

void
Profiler::enter(std::uint32_t site)
{
    const std::uint32_t path = childPathFor(current_, site);
    current_ = path;
    ++stats_[path].visits;
    stack_.push_back(Frame{path, nowNs(), allocsNow()});
}

void
Profiler::exit()
{
    // Empty under a disable() that abandoned open scopes; exiting
    // must stay safe so those scopes can unwind.
    if (stack_.empty())
        return;
    const Frame f = stack_.back();
    stack_.pop_back();
    Stats& s = stats_[f.path];
    s.wallNs += nowNs() - f.startNs;
    s.allocs += allocsNow() - f.startAllocs;
    current_ = nodes_[f.path].parent;
}

namespace {

/** Zone names of @p node's path, outermost first. */
std::vector<std::string>
stackNames(const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
               parentSite,
           std::uint32_t node)
{
    std::vector<std::string> names;
    for (std::uint32_t i = node; i != 0; i = parentSite[i].first)
        names.push_back(zoneSiteName(parentSite[i].second));
    std::reverse(names.begin(), names.end());
    return names;
}

/**
 * Escape one frame name for the collapsed-stack format. ';' is the
 * frame separator and ' ' the value separator, so raw occurrences
 * inside a zone name would silently corrupt the file for every
 * downstream consumer; backslash-escape them (and the escape
 * character itself, plus literal whitespace that would break the
 * line structure). Names without special characters pass through
 * byte-identical.
 */
std::string
escapeFrame(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case ';':
            out += "\\;";
            break;
        case ' ':
            out += "\\ ";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
joinStack(const std::vector<std::string>& stack)
{
    std::string s;
    for (std::size_t i = 0; i < stack.size(); ++i) {
        if (i > 0)
            s += ';';
        s += escapeFrame(stack[i]);
    }
    return s;
}

} // namespace

std::vector<Profiler::PathRow>
Profiler::pathRows() const
{
    // Children's inclusive totals, to derive self values.
    std::vector<std::uint64_t> childNs(nodes_.size(), 0);
    std::vector<std::uint64_t> childAllocs(nodes_.size(), 0);
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
        childNs[nodes_[i].parent] += stats_[i].wallNs;
        childAllocs[nodes_[i].parent] += stats_[i].allocs;
    }

    std::vector<std::pair<std::uint32_t, std::uint32_t>> parentSite;
    parentSite.reserve(nodes_.size());
    for (const Node& n : nodes_)
        parentSite.emplace_back(n.parent, n.site);

    std::vector<PathRow> rows;
    rows.reserve(nodes_.size() - 1);
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
        PathRow row;
        row.stack = stackNames(parentSite,
                               static_cast<std::uint32_t>(i));
        row.visits = stats_[i].visits;
        row.count = stats_[i].count;
        row.wallNs = stats_[i].wallNs;
        // An interrupted frame (disable with scopes open) can leave a
        // child's recorded total exceeding its parent's; clamp rather
        // than wrap.
        row.selfNs = stats_[i].wallNs >= childNs[i]
                         ? stats_[i].wallNs - childNs[i]
                         : 0;
        row.allocs = stats_[i].allocs;
        row.selfAllocs = stats_[i].allocs >= childAllocs[i]
                             ? stats_[i].allocs - childAllocs[i]
                             : 0;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const PathRow& a, const PathRow& b) {
                  return a.stack < b.stack;
              });
    return rows;
}

std::vector<Profiler::ZoneRow>
Profiler::zoneRows() const
{
    const std::vector<PathRow> paths = pathRows();
    std::unordered_map<std::string, ZoneRow> byName;
    for (const PathRow& p : paths) {
        const std::string& leaf = p.stack.back();
        ZoneRow& z = byName[leaf];
        z.name = leaf;
        z.visits += p.visits;
        z.count += p.count;
        z.selfNs += p.selfNs;
        z.selfAllocs += p.selfAllocs;
        // Inclusive totals only at the outermost occurrence of the
        // zone on this path, so recursion is not double-counted.
        const bool outermost =
            std::find(p.stack.begin(), p.stack.end() - 1, leaf) ==
            p.stack.end() - 1;
        if (outermost) {
            z.totalNs += p.wallNs;
            z.totalAllocs += p.allocs;
        }
    }
    std::vector<ZoneRow> rows;
    rows.reserve(byName.size());
    for (auto& [name, row] : byName)
        rows.push_back(std::move(row));
    std::sort(rows.begin(), rows.end(),
              [](const ZoneRow& a, const ZoneRow& b) {
                  return a.name < b.name;
              });
    return rows;
}

void
Profiler::mergeInto(Profiler& dst) const
{
    // Children are always created after their parent, so a single
    // index-ordered pass can map every node onto dst's tree.
    std::vector<std::uint32_t> map(nodes_.size(), 0);
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        map[i] = dst.childPathFor(map[n.parent], n.site);
        Stats& d = dst.stats_[map[i]];
        const Stats& s = stats_[i];
        d.visits += s.visits;
        d.count += s.count;
        d.wallNs += s.wallNs;
        d.allocs += s.allocs;
    }
}

// --- Folded output ------------------------------------------------------

std::string
foldedProfile(const Profiler& p, Profiler::FoldedValue value)
{
    std::string out;
    for (const Profiler::PathRow& row : p.pathRows()) {
        std::uint64_t v = 0;
        switch (value) {
        case Profiler::FoldedValue::Visits:
            v = row.visits;
            break;
        case Profiler::FoldedValue::WallNs:
            v = row.selfNs;
            break;
        case Profiler::FoldedValue::Allocs:
            v = row.selfAllocs;
            break;
        }
        out += joinStack(row.stack);
        out += ' ';
        out += strFormat("%llu", static_cast<unsigned long long>(v));
        out += '\n';
    }
    return out;
}

bool
writeFoldedProfile(const Profiler& p, const std::string& path,
                   Profiler::FoldedValue value)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string text = foldedProfile(p, value);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

bool
parseFolded(const std::string& text,
            std::vector<std::pair<std::string, std::uint64_t>>& out)
{
    out.clear();
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        // The value separator is the single unescaped space. Scan
        // with escape awareness: validate every escape sequence,
        // reject raw whitespace (an unescaped tab, or a second
        // unescaped space, means the path was written by something
        // that didn't escape — exactly the corruption this format
        // check exists to catch).
        std::size_t space = std::string::npos;
        std::size_t unescapedSpaces = 0;
        for (std::size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            if (c == '\\') {
                if (i + 1 >= line.size())
                    return false; // dangling escape
                const char e = line[++i];
                if (e != '\\' && e != ';' && e != ' ' && e != 't' &&
                    e != 'n' && e != 'r')
                    return false; // unknown escape
                continue;
            }
            if (c == ' ') {
                space = i;
                ++unescapedSpaces;
            } else if (c == '\t' || c == '\r') {
                return false; // raw whitespace in path or value
            }
        }
        if (unescapedSpaces != 1 || space == 0 ||
            space + 1 >= line.size())
            return false;
        std::uint64_t v = 0;
        for (std::size_t i = space + 1; i < line.size(); ++i) {
            if (line[i] < '0' || line[i] > '9')
                return false;
            v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
        }
        out.emplace_back(line.substr(0, space), v);
    }
    return true;
}

std::string
profileTable(const Profiler& p)
{
    std::vector<Profiler::ZoneRow> rows = p.zoneRows();
    // Self wall time is what ranks the work-list; the deterministic
    // columns ride along for cross-checking against the JSON gate.
    std::sort(rows.begin(), rows.end(),
              [](const Profiler::ZoneRow& a,
                 const Profiler::ZoneRow& b) {
                  if (a.selfNs != b.selfNs)
                      return a.selfNs > b.selfNs;
                  return a.name < b.name;
              });
    std::uint64_t totalSelf = 0;
    for (const auto& r : rows)
        totalSelf += r.selfNs;
    std::string out = strFormat(
        "%-32s %10s %6s %10s %12s %12s %12s\n", "zone", "self-ms",
        "self%", "total-ms", "visits", "count", "self-allocs");
    for (const auto& r : rows) {
        out += strFormat(
            "%-32s %10.3f %5.1f%% %10.3f %12llu %12llu %12llu\n",
            r.name.c_str(), static_cast<double>(r.selfNs) / 1e6,
            totalSelf > 0 ? 100.0 * static_cast<double>(r.selfNs) /
                                static_cast<double>(totalSelf)
                          : 0.0,
            static_cast<double>(r.totalNs) / 1e6,
            static_cast<unsigned long long>(r.visits),
            static_cast<unsigned long long>(r.count),
            static_cast<unsigned long long>(r.selfAllocs));
    }
    return out;
}

} // namespace specfaas::obs
