/** @file Unit tests for statistics helpers and the table printer. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats_util.hh"
#include "common/table.hh"

namespace specfaas {
namespace {

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentileUnsortedInput)
{
    EXPECT_DOUBLE_EQ(percentile({30.0, 10.0, 20.0}, 100.0), 30.0);
}

TEST(Stats, PercentileSingleSample)
{
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Stats, PercentileSortedBoundaries)
{
    const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 25.0), 2.0);
    EXPECT_DOUBLE_EQ(percentileSorted({9.0}, 0.0), 9.0);
    EXPECT_DOUBLE_EQ(percentileSorted({9.0}, 100.0), 9.0);
}

TEST(Stats, StddevKnownValue)
{
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
                2.138, 0.001);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
    // Undefined for an empty sample: NaN, not a fabricated 0.0.
    EXPECT_TRUE(std::isnan(geomean({})));
}

TEST(Stats, EmpiricalCdfMonotone)
{
    std::vector<double> xs;
    for (int i = 100; i > 0; --i)
        xs.push_back(static_cast<double>(i));
    auto cdf = empiricalCdf(xs, 10);
    ASSERT_EQ(cdf.size(), 10u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].x, cdf[i - 1].x);
        EXPECT_GT(cdf[i].cum, cdf[i - 1].cum);
    }
    EXPECT_DOUBLE_EQ(cdf.back().cum, 1.0);
    EXPECT_DOUBLE_EQ(cdf.back().x, 100.0);
}

TEST(Stats, EmpiricalCdfSmallSample)
{
    // maxPoints larger than the sample: one point per observation.
    auto cdf = empiricalCdf({3.0, 1.0, 2.0}, 50);
    ASSERT_EQ(cdf.size(), 3u);
    EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
    EXPECT_DOUBLE_EQ(cdf[2].x, 3.0);
    EXPECT_DOUBLE_EQ(cdf.back().cum, 1.0);
    EXPECT_TRUE(empiricalCdf({}, 10).empty());
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
    EXPECT_EQ(fmtRatio(4.64), "4.6x");
    EXPECT_EQ(fmtPercent(0.587), "58.7%");
    EXPECT_EQ(fmtMs(12.34), "12.3 ms");
    // Undefined rates (0 predictions) render as a dash, not "100%".
    EXPECT_EQ(fmtPercentOrDash(0.587), "58.7%");
    EXPECT_EQ(fmtPercentOrDash(std::nan("")), "–");
    EXPECT_EQ(fmtRatioOrDash(4.64), "4.6x");
    EXPECT_EQ(fmtRatioOrDash(geomean({})), "–");
}

} // namespace
} // namespace specfaas
