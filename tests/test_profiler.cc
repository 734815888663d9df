/**
 * @file
 * Zone profiler tests: the path-tree accounting (self vs inclusive,
 * recursion, deterministic counts), the RAII scope's disabled and
 * disable-mid-scope behaviour, folded output and its round-trip,
 * SimContext ownership with the submission-ordered merge (folded
 * Visits output byte-identical at any job count), and end-to-end zone
 * coverage of a real platform run — including the identity pin that
 * "sim/dispatch" visits equal the event queue's executed count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz_apps.hh"
#include "obs/profiler.hh"
#include "sim/sim_context.hh"

namespace specfaas {
namespace {

using obs::Profiler;

/** Manually advanced fake clock (ClockFn is a plain function ptr). */
std::uint64_t gFakeNow = 0;

std::uint64_t
fakeClock()
{
    return gFakeNow;
}

/** Find the aggregate row of @p name; asserts it exists. */
Profiler::ZoneRow
zoneNamed(const Profiler& prof, const std::string& name)
{
    for (const Profiler::ZoneRow& z : prof.zoneRows())
        if (z.name == name)
            return z;
    ADD_FAILURE() << "zone '" << name << "' not recorded";
    return {};
}

TEST(Profiler, NestedZonesSplitSelfAndInclusiveTime)
{
    Profiler prof;
    prof.setClockForTest(&fakeClock);
    gFakeNow = 0;
    prof.enable();
    {
        OBS_ZONE(prof, "outer");
        gFakeNow += 10;
        {
            OBS_ZONE(prof, "inner");
            gFakeNow += 30;
        }
        gFakeNow += 5;
    }
    const Profiler::ZoneRow outer = zoneNamed(prof, "outer");
    const Profiler::ZoneRow inner = zoneNamed(prof, "inner");
    EXPECT_EQ(outer.visits, 1u);
    EXPECT_EQ(outer.totalNs, 45u);
    EXPECT_EQ(outer.selfNs, 15u);
    EXPECT_EQ(inner.visits, 1u);
    EXPECT_EQ(inner.totalNs, 30u);
    EXPECT_EQ(inner.selfNs, 30u);
}

TEST(Profiler, RecursionCountsInclusiveTimeOnce)
{
    Profiler prof;
    prof.setClockForTest(&fakeClock);
    gFakeNow = 0;
    prof.enable();
    {
        OBS_ZONE(prof, "rec");
        gFakeNow += 10;
        {
            OBS_ZONE(prof, "rec");
            gFakeNow += 20;
        }
    }
    const Profiler::ZoneRow rec = zoneNamed(prof, "rec");
    // Two visits; the inner occurrence's 20ns is already inside the
    // outer's 30ns inclusive total, so totalNs must not reach 50.
    EXPECT_EQ(rec.visits, 2u);
    EXPECT_EQ(rec.totalNs, 30u);
    EXPECT_EQ(rec.selfNs, 30u);
}

TEST(Profiler, AddCountAccumulatesIntoCurrentZone)
{
    Profiler prof;
    prof.enable();
    for (int i = 0; i < 3; ++i) {
        OBS_ZONE_SCOPE(zone, prof, "counted");
        zone.addCount(7);
    }
    const Profiler::ZoneRow z = zoneNamed(prof, "counted");
    EXPECT_EQ(z.visits, 3u);
    EXPECT_EQ(z.count, 21u);
}

TEST(Profiler, DisabledProfilerRecordsNothing)
{
    Profiler prof;
    {
        OBS_ZONE_SCOPE(zone, prof, "ghost");
        zone.addCount(5);
    }
    EXPECT_FALSE(prof.hasData());
    EXPECT_TRUE(prof.zoneRows().empty());
    EXPECT_EQ(obs::foldedProfile(prof, Profiler::FoldedValue::Visits),
              "");
}

TEST(Profiler, DisableMidScopeIsSafe)
{
    // A scope captured while enabled calls exit() after disable();
    // the open frame was discarded, so exit() must be a harmless
    // no-op. The visit itself stays recorded (the zone genuinely was
    // entered) but no partial wall time is attributed, and the next
    // enable() starts from a clean slate.
    Profiler prof;
    prof.setClockForTest(&fakeClock);
    gFakeNow = 0;
    prof.enable();
    {
        OBS_ZONE(prof, "interrupted");
        gFakeNow += 50;
        prof.disable();
    }
    const Profiler::ZoneRow interrupted =
        zoneNamed(prof, "interrupted");
    EXPECT_EQ(interrupted.visits, 1u);
    EXPECT_EQ(interrupted.totalNs, 0u)
        << "partial wall time survived a mid-scope disable";
    prof.enable();
    EXPECT_FALSE(prof.hasData()) << "enable() must clear old data";
    {
        OBS_ZONE(prof, "after");
    }
    EXPECT_EQ(zoneNamed(prof, "after").visits, 1u);
}

TEST(Profiler, FoldedOutputRoundTrips)
{
    Profiler prof;
    prof.enable();
    for (int i = 0; i < 4; ++i) {
        OBS_ZONE(prof, "a");
        OBS_ZONE(prof, "b");
    }
    {
        OBS_ZONE(prof, "b");
    }
    const std::string folded =
        obs::foldedProfile(prof, Profiler::FoldedValue::Visits);
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    ASSERT_TRUE(obs::parseFolded(folded, rows));
    ASSERT_EQ(rows.size(), 3u);
    // Sorted lexicographically by path.
    EXPECT_EQ(rows[0].first, "a");
    EXPECT_EQ(rows[0].second, 4u);
    EXPECT_EQ(rows[1].first, "a;b");
    EXPECT_EQ(rows[1].second, 4u);
    EXPECT_EQ(rows[2].first, "b");
    EXPECT_EQ(rows[2].second, 1u);
}

TEST(Profiler, ParseFoldedRejectsMalformedLines)
{
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    EXPECT_FALSE(obs::parseFolded("no-value-here\n", rows));
    EXPECT_FALSE(obs::parseFolded(" 42\n", rows));
    EXPECT_FALSE(obs::parseFolded("path notanumber\n", rows));
    // Paths that needed escaping but weren't: raw whitespace means
    // the writer did not escape, so the line is corruption.
    EXPECT_FALSE(obs::parseFolded("two words 42\n", rows));
    EXPECT_FALSE(obs::parseFolded("tab\tpath 42\n", rows));
    EXPECT_FALSE(obs::parseFolded("cr\rpath 42\n", rows));
    // Broken escape sequences.
    EXPECT_FALSE(obs::parseFolded("bad\\escape 42\n", rows));
    EXPECT_FALSE(obs::parseFolded("dangling\\ 42\n", rows))
        << "the escaped space leaves no unescaped value separator";
    EXPECT_FALSE(obs::parseFolded("dangling 42\\\n", rows));
    // Escaped forms of the same shapes are fine.
    EXPECT_TRUE(obs::parseFolded("two\\ words 42\n", rows));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].first, "two\\ words");
    EXPECT_EQ(rows[0].second, 42u);
}

TEST(Profiler, FoldedOutputEscapesSeparatorCharacters)
{
    // A zone name carrying the frame separator, the value separator,
    // or the escape character itself must not corrupt the collapsed
    // line structure: one line per path, one unescaped space, value
    // intact — and the file still parses.
    Profiler prof;
    prof.enable();
    {
        OBS_ZONE(prof, "outer zone");
        OBS_ZONE(prof, "in;ner");
    }
    {
        OBS_ZONE(prof, "back\\slash");
    }
    const std::string folded =
        obs::foldedProfile(prof, Profiler::FoldedValue::Visits);
    EXPECT_NE(folded.find("outer\\ zone 1\n"), std::string::npos);
    EXPECT_NE(folded.find("outer\\ zone;in\\;ner 1\n"),
              std::string::npos);
    EXPECT_NE(folded.find("back\\\\slash 1\n"), std::string::npos);

    std::vector<std::pair<std::string, std::uint64_t>> rows;
    ASSERT_TRUE(obs::parseFolded(folded, rows));
    ASSERT_EQ(rows.size(), 3u);
    for (const auto& [path, value] : rows)
        EXPECT_EQ(value, 1u) << path;
}

TEST(Profiler, FoldedEscapingIsIdentityForOrdinaryNames)
{
    // Every real zone name (letters, digits, '/', '-') renders
    // byte-identically to the unescaped form, so committed folded
    // snapshots are unaffected by the escaping layer.
    Profiler prof;
    prof.enable();
    {
        OBS_ZONE(prof, "sim/dispatch");
        OBS_ZONE(prof, "interp/step-2");
    }
    EXPECT_EQ(obs::foldedProfile(prof, Profiler::FoldedValue::Visits),
              "sim/dispatch 1\n"
              "sim/dispatch;interp/step-2 1\n");
}

TEST(Profiler, MergeIntoAccumulatesPathTotals)
{
    Profiler a;
    a.enable();
    {
        OBS_ZONE_SCOPE(zone, a, "shared");
        zone.addCount(10);
        OBS_ZONE(a, "only-a");
    }
    Profiler b;
    b.enable();
    for (int i = 0; i < 2; ++i) {
        OBS_ZONE_SCOPE(zone, b, "shared");
        zone.addCount(1);
        OBS_ZONE(b, "only-b");
    }

    Profiler dst;
    dst.enable();
    a.mergeInto(dst);
    b.mergeInto(dst);
    EXPECT_EQ(zoneNamed(dst, "shared").visits, 3u);
    EXPECT_EQ(zoneNamed(dst, "shared").count, 12u);
    EXPECT_EQ(zoneNamed(dst, "only-a").visits, 1u);
    EXPECT_EQ(zoneNamed(dst, "only-b").visits, 2u);
}

TEST(Profiler, ForTaskMirrorsProfilerEnable)
{
    SimContext session;
    EXPECT_FALSE(
        SimContext::forTask(session, 0)->profiler().enabled());
    session.profiler().enable();
    EXPECT_TRUE(
        SimContext::forTask(session, 0)->profiler().enabled());
}

/** Record a deterministic little profile into @p context. */
void
recordTaskZones(SimContext& context, std::size_t task)
{
    Profiler& prof = context.profiler();
    for (std::size_t i = 0; i <= task; ++i) {
        OBS_ZONE_SCOPE(zone, prof, "task/outer");
        zone.addCount(task);
        OBS_ZONE(prof, "task/inner");
    }
}

/** Session-level folded Visits output of an n-task parallel run. */
std::string
foldedOfParallelRun(std::size_t jobs, std::size_t tasks)
{
    SimContext session;
    session.profiler().enable();
    std::vector<std::function<int(SimContext&)>> fns;
    for (std::size_t t = 0; t < tasks; ++t) {
        fns.push_back([t](SimContext& context) {
            recordTaskZones(context, t);
            return 0;
        });
    }
    runSimTasks<int>(jobs, std::move(fns), &session);
    return obs::foldedProfile(session.profiler(),
                              Profiler::FoldedValue::Visits);
}

TEST(Profiler, FoldedVisitsAreByteIdenticalAcrossJobCounts)
{
    const std::string serial = foldedOfParallelRun(1, 8);
    const std::string parallel = foldedOfParallelRun(8, 8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // 8 tasks, task t visits outer t+1 times: 36 outer visits total.
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    ASSERT_TRUE(obs::parseFolded(serial, rows));
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].first, "task/outer");
    EXPECT_EQ(rows[0].second, 36u);
    EXPECT_EQ(rows[1].first, "task/outer;task/inner");
    EXPECT_EQ(rows[1].second, 36u);
}

TEST(Profiler, ZeroZoneRunProducesEmptyArtifacts)
{
    Profiler prof;
    prof.enable();
    EXPECT_FALSE(prof.hasData());
    EXPECT_TRUE(prof.zoneRows().empty());
    EXPECT_TRUE(prof.pathRows().empty());
    EXPECT_EQ(obs::foldedProfile(prof, Profiler::FoldedValue::Visits),
              "");
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    EXPECT_TRUE(obs::parseFolded("", rows));
    EXPECT_TRUE(rows.empty());
}

TEST(Profiler, SiteRegistryAggregatesByName)
{
    // Two distinct call sites with the same label intern to the same
    // site id and therefore the same zone aggregate.
    const std::uint32_t a = obs::internZoneSite("dup/zone");
    const std::uint32_t b = obs::internZoneSite("dup/zone");
    EXPECT_EQ(a, b);
    EXPECT_EQ(obs::zoneSiteName(a), "dup/zone");
}

// ---------------------------------------------------------------------
// End-to-end: a real platform run records the wired zones.
// ---------------------------------------------------------------------

TEST(Profiler, PlatformRunRecordsWiredZones)
{
    SimContext context;
    context.profiler().enable();
    fuzz::AppFuzzer fuzzer(0xbeef);
    const Application app = fuzzer.explicitApp();
    fuzz::runApp(app, /*speculative=*/true, SpecConfig{}, 17, 4,
                 &context);

    const Profiler& prof = context.profiler();
    ASSERT_TRUE(prof.hasData());
    // The layers wired in this PR all show up on a spec-engine run.
    for (const char* name :
         {"sim/dispatch", "interp/start", "interp/step",
          "runtime/launch", "cluster/acquire", "cluster/release",
          "spec/invoke", "spec/walk", "spec/commit", "storage/get"}) {
        EXPECT_GT(zoneNamed(prof, name).visits, 0u) << name;
    }
}

TEST(Profiler, DispatchVisitsEqualExecutedEvents)
{
    // The "sim/dispatch" zone wraps exactly the event-queue callback
    // dispatch, so its visit count must equal the queue's executed
    // count — the cheapest cross-check that no span is dropped or
    // double-counted on the hottest path.
    SimContext context;
    context.profiler().enable();
    PlatformOptions options;
    options.speculative = true;
    options.seed = 17;
    options.context = &context;
    FaasPlatform platform(options);
    fuzz::AppFuzzer fuzzer(0xf00d);
    const Application app = fuzzer.explicitApp();
    platform.deploy(app);
    for (std::size_t i = 0; i < 4; ++i) {
        Value input = app.inputGen(platform.inputRng());
        platform.invokeSync(app, std::move(input));
    }
    const Profiler::ZoneRow dispatch =
        zoneNamed(context.profiler(), "sim/dispatch");
    EXPECT_EQ(dispatch.visits,
              platform.sim().events().executedCount());
    // The zone's deterministic count accumulates the ticks each
    // dispatch advanced the clock by, which sums to now().
    EXPECT_EQ(dispatch.count,
              static_cast<std::uint64_t>(platform.sim().now()));
}

} // namespace
} // namespace specfaas
