#include "stats_util.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "logging.hh"

namespace specfaas {

double
mean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
percentileSorted(const std::vector<double>& sorted, double p)
{
    SPECFAAS_ASSERT(!sorted.empty(), "percentile of empty sample");
    SPECFAAS_ASSERT(p >= 0.0 && p <= 100.0, "percentile p=%f", p);
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
percentile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    return percentileSorted(xs, p);
}

double
stddev(const std::vector<double>& xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double
geomean(const std::vector<double>& xs)
{
    // The geometric mean of zero samples is undefined — returning 0.0
    // here used to masquerade as "no speedup at all" in aggregate
    // tables. NaN follows the branchHitRate convention; render with
    // fmtRatioOrDash / fmtPercentOrDash.
    if (xs.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double logsum = 0.0;
    for (double x : xs) {
        SPECFAAS_ASSERT(x > 0.0, "geomean of non-positive sample %f", x);
        logsum += std::log(x);
    }
    return std::exp(logsum / static_cast<double>(xs.size()));
}

std::vector<CdfPoint>
empiricalCdf(std::vector<double> xs, std::size_t maxPoints)
{
    std::vector<CdfPoint> out;
    if (xs.empty())
        return out;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    const std::size_t points = std::min(maxPoints, n);
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        // Sample quantiles evenly in cumulative-probability space.
        const double q = static_cast<double>(i + 1) /
                         static_cast<double>(points);
        const auto idx = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n))) - 1;
        out.push_back({xs[std::min(idx, n - 1)], q});
    }
    return out;
}

} // namespace specfaas
