#include "alibaba.hh"

#include <algorithm>

#include "app_helpers.hh"

#include "common/logging.hh"

namespace specfaas {

namespace {

/** One node of the generated call tree. */
struct TreeNode
{
    std::string name;
    double serviceMs = 7.5;
    bool reads = false;
    bool writes = false;
    bool guarded = false; // conditional call from the parent
    std::vector<TreeNode> children;
};

std::size_t
countNodes(const TreeNode& n)
{
    std::size_t c = 1;
    for (const auto& ch : n.children)
        c += countNodes(ch);
    return c;
}

/**
 * Grow a call tree with trace-like fan-out. Fan-out shrinks with
 * depth (gathers at the top, leaves below), matching the multi-tier
 * pattern of Figure 2.
 */
TreeNode
growTree(Rng& rng, const AlibabaTraceConfig& cfg, std::uint32_t app,
         std::uint32_t depth, std::uint32_t& counter,
         std::size_t& budget)
{
    TreeNode n;
    n.name = strFormat("Ali%u_f%u", app, counter++);
    n.serviceMs = std::max(
        1.0, rng.lognormal(cfg.meanServiceMs, 0.45));
    n.reads = rng.bernoulli(cfg.readFraction);
    n.writes = rng.bernoulli(cfg.writeFraction);

    if (depth >= cfg.maxDepth || budget == 0)
        return n;
    // A node only becomes a gather (caller) when enough budget
    // remains for a realistic fan-out; otherwise it stays a leaf so
    // the mean callees-per-caller stays near the trace value.
    if (depth > 1 && budget < 3)
        return n;

    // Mean fan-out decays gently with depth; the root fans out
    // widest (gathers at the top, services below), keeping the mean
    // callee count per calling function near the trace's 3.4.
    const double base = cfg.meanFanout * (depth == 1 ? 1.3 : 1.0) /
                        (1.0 + 0.18 * (depth - 1));
    auto kids = static_cast<std::size_t>(base + rng.uniform(0.0, 1.0));
    // Interior nodes call at least one service; leaves appear when
    // the budget runs out or depth is reached.
    if (depth <= 2)
        kids = std::max<std::size_t>(kids, 3);
    kids = std::min(kids, budget);
    for (std::size_t i = 0; i < kids && budget > 0; ++i) {
        --budget;
        TreeNode child =
            growTree(rng, cfg, app, depth + 1, counter, budget);
        child.guarded = rng.bernoulli(0.22); // some calls conditional
        n.children.push_back(std::move(child));
    }
    return n;
}

/** Build the FunctionDef for one tree node (and recurse). */
void
emitFunctions(const TreeNode& n, Application& app)
{
    FunctionDef d;
    d.name = n.name;
    // Split the service time around the call sites: half before the
    // first call, half after the last, like a real gather handler.
    const Tick half = msToTicks(n.serviceMs / 2.0);
    d.body.push_back(Op::compute(std::max<Tick>(half, msToTicks(0.5))));

    if (n.reads) {
        d.body.push_back(
            Op::storageRead(fns::keyOf("ali", "item"), "rec"));
    }

    ValueFn args = [](const Env& e) {
        return Value::object({{"item", e.input.at("item")}});
    };

    for (std::size_t i = 0; i < n.children.size(); ++i) {
        const TreeNode& child = n.children[i];
        const std::string var = strFormat("c%zu", i);
        if (child.guarded) {
            d.body.push_back(Op::callIf(fns::bucketGuard("item", 10),
                                        child.name, args, var));
        } else {
            d.body.push_back(Op::call(child.name, args, var));
        }
    }

    d.body.push_back(Op::compute(std::max<Tick>(half, msToTicks(0.5))));

    if (n.writes) {
        d.body.push_back(Op::storageWrite(
            [name = n.name](const Env& e) {
                return "alio:" + name + ":" +
                       e.input.at("item").toString();
            },
            [](const Env& e) {
                return Value::object({{"k", e.input.at("item")}});
            }));
    }

    // Leaf services with no global access are pure: their inputs
    // fully determine their outputs (§V-B annotation).
    d.pureAnnotation =
        !n.reads && !n.writes && n.children.empty();

    const bool has_read = n.reads;
    const std::size_t nchildren = n.children.size();
    d.output = [name = n.name, has_read, nchildren](const Env& e) {
        // Low-cardinality aggregate of the children results plus any
        // read state; deterministic for a given input + store state.
        std::int64_t acc =
            bucketOf(name + e.input.at("item").toString(), 13);
        if (has_read)
            acc += e.var("rec").at("v").asInt();
        for (std::size_t i = 0; i < nchildren; ++i) {
            const Value& c = e.var(strFormat("c%zu", i));
            if (c.isObject())
                acc += c.at("v").asInt();
        }
        return Value::object({{"v", Value(acc % 29)}});
    };
    app.functions.push_back(std::move(d));

    for (const auto& child : n.children)
        emitFunctions(child, app);
}

} // namespace

Application
makeAlibabaApp(const AlibabaTraceConfig& config, std::uint32_t index)
{
    Application app;
    app.name = strFormat("AliApp%u", index + 1);
    app.suite = "Alibaba";
    app.type = WorkflowType::Implicit;

    Rng rng(config.seed + index * 7919);
    std::uint32_t counter = 0;
    // Vary the per-application size around the trace mean.
    const double target =
        config.meanFunctions * rng.uniform(0.75, 1.25);
    std::size_t budget = static_cast<std::size_t>(
        std::max(4.0, target)) - 1;
    TreeNode root = growTree(rng, config, index, 1, counter, budget);
    app.rootFunction = root.name;
    emitFunctions(root, app);

    DatasetConfig ds = config.dataset;
    app.inputGen = [ds](Rng& r) {
        return Value::object(
            {{"item", Value(strFormat("k%llu",
                                      static_cast<unsigned long long>(
                                          r.zipf(ds.items, ds.zipfS))))}});
    };
    const auto items = ds.items;
    app.seedStore = [items](KvStore& store, Rng& r) {
        for (std::uint32_t i = 0; i < items; ++i) {
            store.put(strFormat("ali:\"k%u\"", i),
                      Value::object({{"v", Value(r.uniformInt(
                                                std::int64_t{0}, 20))}}));
        }
    };
    return app;
}

std::vector<Application>
alibabaSuite(const AlibabaTraceConfig& config)
{
    std::vector<Application> suite;
    for (std::uint32_t i = 0; i < config.applications; ++i)
        suite.push_back(makeAlibabaApp(config, i));
    return suite;
}

} // namespace specfaas
