/** @file Unit tests for the op-program interpreter and squash policies. */

#include <gtest/gtest.h>

#include "fleet/fleet.hh"
#include "runtime/hooks.hh"
#include "runtime/interpreter.hh"
#include "runtime/launcher.hh"
#include "sim/simulation.hh"
#include "workflow/registry.hh"

namespace specfaas {
namespace {

/** Records everything the interpreter intercepts. */
class RecordingHooks : public RuntimeHooks
{
  public:
    void
    storageGet(const InstancePtr&, const std::string& key,
               ValueCallback done) override
    {
        gets.push_back(key);
        done(Value(static_cast<std::int64_t>(gets.size())));
    }

    void
    storagePut(const InstancePtr&, const std::string& key, Value value,
               DoneCallback done) override
    {
        puts.emplace_back(key, std::move(value));
        done();
    }

    void
    functionCall(const InstancePtr&, std::size_t call_site,
                 Symbol callee, Value args,
                 ValueCallback done) override
    {
        calls.emplace_back(call_site, callee.str());
        Value result = Value::object({});
        result["echo"] = std::move(args);
        done(std::move(result));
    }

    void
    httpRequest(const InstancePtr&, DoneCallback done) override
    {
        ++https;
        done();
    }

    void
    completed(const InstancePtr& inst, Value output) override
    {
        completions.emplace_back(inst->def->name, std::move(output));
    }

    std::vector<std::string> gets;
    std::vector<std::pair<std::string, Value>> puts;
    std::vector<std::pair<std::size_t, std::string>> calls;
    int https = 0;
    std::vector<std::pair<std::string, Value>> completions;
};

struct Rig
{
    Rig() : fleet(sim, ClusterConfig{}, FleetConfig{}),
            interp(sim, fleet, hooks),
            launcher(sim, fleet, registry, interp)
    {
        fleet.containers().prewarm("f", 4);
    }

    InstancePtr
    run(FunctionDef def, Value input = Value())
    {
        def.name = "f";
        registry.add(std::move(def));
        LaunchSpec spec;
        spec.function = Symbol("f");
        spec.input = std::move(input);
        InstancePtr inst = launcher.launch(std::move(spec));
        sim.events().run();
        return inst;
    }

    Simulation sim;
    Fleet fleet;
    RecordingHooks hooks;
    FunctionRegistry registry;
    Interpreter interp;
    Launcher launcher;
};

TEST(Interpreter, EmptyBodyEchoesInput)
{
    Rig rig;
    FunctionDef def;
    rig.run(std::move(def), Value(11));
    ASSERT_EQ(rig.hooks.completions.size(), 1u);
    EXPECT_EQ(rig.hooks.completions[0].second.asInt(), 11);
}

TEST(Interpreter, ComputeBurnsSimulatedTime)
{
    Rig rig;
    FunctionDef def;
    def.computeCv = 0.0; // deterministic duration
    def.body.push_back(Op::compute(msToTicks(5.0)));
    InstancePtr inst = rig.run(std::move(def));
    EXPECT_EQ(inst->execTime, msToTicks(5.0));
    EXPECT_EQ(inst->state, InstanceState::Completed);
}

TEST(Interpreter, StorageOpsRoutedThroughHooks)
{
    Rig rig;
    FunctionDef def;
    def.body.push_back(Op::storageRead(
        [](const Env&) { return std::string("in-key"); }, "v"));
    def.body.push_back(Op::storageWrite(
        [](const Env&) { return std::string("out-key"); },
        [](const Env& e) { return e.var("v"); }));
    def.output = [](const Env& e) { return e.var("v"); };
    rig.run(std::move(def));
    EXPECT_EQ(rig.hooks.gets, (std::vector<std::string>{"in-key"}));
    ASSERT_EQ(rig.hooks.puts.size(), 1u);
    EXPECT_EQ(rig.hooks.puts[0].first, "out-key");
    EXPECT_EQ(rig.hooks.completions[0].second.asInt(), 1);
}

TEST(Interpreter, CallResultBoundToVariable)
{
    Rig rig;
    FunctionDef def;
    def.body.push_back(Op::call(
        "callee", [](const Env&) { return Value(5); }, "r"));
    def.output = [](const Env& e) { return e.var("r").at("echo"); };
    rig.run(std::move(def));
    ASSERT_EQ(rig.hooks.calls.size(), 1u);
    EXPECT_EQ(rig.hooks.calls[0].second, "callee");
    EXPECT_EQ(rig.hooks.completions[0].second.asInt(), 5);
}

TEST(Interpreter, GuardedCallSkippedAndRecorded)
{
    Rig rig;
    FunctionDef def;
    def.body.push_back(Op::callIf(
        [](const Env&) { return false; }, "never",
        [](const Env&) { return Value(); }, "r"));
    def.body.push_back(Op::callIf(
        [](const Env&) { return true; }, "always",
        [](const Env&) { return Value(); }, "r2"));
    InstancePtr inst = rig.run(std::move(def));
    ASSERT_EQ(rig.hooks.calls.size(), 1u);
    EXPECT_EQ(rig.hooks.calls[0].second, "always");
    ASSERT_EQ(inst->callSites.size(), 2u);
    EXPECT_FALSE(inst->callSites[0].taken);
    EXPECT_TRUE(inst->callSites[1].taken);
}

TEST(Interpreter, FileOpsAreLocalCopyOnWrite)
{
    Rig rig;
    FunctionDef def;
    def.body.push_back(Op::fileWrite(
        [](const Env&) { return std::string("tmp.json"); }));
    def.body.push_back(Op::fileRead(
        [](const Env&) { return std::string("tmp.json"); }, "f"));
    InstancePtr inst = rig.run(std::move(def));
    // Temp files are discarded at completion (§VI).
    EXPECT_TRUE(inst->ownFiles.empty());
    EXPECT_EQ(inst->state, InstanceState::Completed);
    // No hook traffic: file I/O is purely node-local.
    EXPECT_TRUE(rig.hooks.gets.empty());
    EXPECT_TRUE(rig.hooks.puts.empty());
}

TEST(Interpreter, HttpRoutedThroughHooks)
{
    Rig rig;
    FunctionDef def;
    def.body.push_back(Op::http());
    rig.run(std::move(def));
    EXPECT_EQ(rig.hooks.https, 1);
}

TEST(Interpreter, SetVarEvaluatesAgainstEnv)
{
    Rig rig;
    FunctionDef def;
    def.body.push_back(Op::setVar("a", [](const Env&) {
        return Value(2);
    }));
    def.body.push_back(Op::setVar("b", [](const Env& e) {
        return Value(e.var("a").asInt() * 3);
    }));
    def.output = [](const Env& e) { return e.var("b"); };
    rig.run(std::move(def));
    EXPECT_EQ(rig.hooks.completions[0].second.asInt(), 6);
}

TEST(Interpreter, StringVarLookupNeverInterns)
{
    Env env;
    env.set(Symbol("set-var"), Value(4));
    EXPECT_EQ(env.var("set-var").asInt(), 4);
    const std::size_t before = Symbol::tableSize();
    EXPECT_TRUE(env.var("env-lookup-of-a-name-never-interned").isNull());
    EXPECT_EQ(Symbol::tableSize(), before);
    EXPECT_TRUE(
        Symbol::lookup("env-lookup-of-a-name-never-interned").empty());
}

TEST(Interpreter, ProcessKillSquashStopsWork)
{
    Rig rig;
    FunctionDef def;
    def.computeCv = 0.0;
    def.body.push_back(Op::compute(msToTicks(100.0)));
    def.name = "f";
    rig.registry.add(def);
    LaunchSpec spec;
    spec.function = Symbol("f");
    InstancePtr inst = rig.launcher.launch(std::move(spec));
    // Let the container fork and the burst start.
    rig.sim.events().runUntil(msToTicks(2.0));
    ASSERT_EQ(inst->state, InstanceState::Running);
    rig.interp.squash(inst, SquashPolicy::ProcessKill);
    EXPECT_EQ(inst->state, InstanceState::Dead);
    rig.sim.events().run();
    EXPECT_TRUE(rig.hooks.completions.empty());
    // The core freed shortly after the kill, not after 100 ms.
    EXPECT_LT(rig.sim.now(), msToTicks(20.0));
}

TEST(Interpreter, LazySquashBurnsRemainingCompute)
{
    Rig rig;
    FunctionDef def;
    def.computeCv = 0.0;
    def.body.push_back(Op::compute(msToTicks(40.0)));
    def.body.push_back(Op::compute(msToTicks(60.0)));
    def.name = "f";
    rig.registry.add(def);
    LaunchSpec spec;
    spec.function = Symbol("f");
    InstancePtr inst = rig.launcher.launch(std::move(spec));
    rig.sim.events().runUntil(msToTicks(2.0));
    rig.interp.squash(inst, SquashPolicy::Lazy);
    rig.sim.events().run();
    EXPECT_TRUE(rig.hooks.completions.empty());
    // The node stayed busy for roughly the whole remaining body.
    EXPECT_GE(rig.sim.now(), msToTicks(95.0));
}

TEST(Interpreter, ContainerKillDestroysContainer)
{
    Rig rig;
    FunctionDef def;
    def.computeCv = 0.0;
    def.body.push_back(Op::compute(msToTicks(50.0)));
    def.name = "f";
    rig.registry.add(def);
    const std::size_t before =
        rig.fleet.containers().containerCount("f");
    LaunchSpec spec;
    spec.function = Symbol("f");
    InstancePtr inst = rig.launcher.launch(std::move(spec));
    rig.sim.events().runUntil(msToTicks(2.0));
    rig.interp.squash(inst, SquashPolicy::ContainerKill);
    rig.sim.events().run();
    EXPECT_EQ(rig.fleet.containers().containerCount("f"), before - 1);
}

TEST(Interpreter, SquashDuringLaunchReturnsContainer)
{
    Rig rig;
    FunctionDef def;
    def.body.push_back(Op::compute(msToTicks(10.0)));
    def.name = "f";
    rig.registry.add(def);
    LaunchSpec spec;
    spec.function = Symbol("f");
    spec.preOverhead = msToTicks(5.0);
    InstancePtr inst = rig.launcher.launch(std::move(spec));
    // Squash before the container is even acquired.
    rig.interp.squash(inst, SquashPolicy::ProcessKill);
    rig.sim.events().run();
    EXPECT_TRUE(rig.hooks.completions.empty());
    // All containers are back in the warm pool.
    EXPECT_EQ(rig.fleet.containers().containerCount("f"), 4u);
}

} // namespace
} // namespace specfaas
