/**
 * @file
 * Statistics helpers shared by metrics collectors and benchmarks:
 * mean, percentiles and CDF extraction.
 */

#ifndef SPECFAAS_COMMON_STATS_UTIL_HH
#define SPECFAAS_COMMON_STATS_UTIL_HH

#include <cstddef>
#include <vector>

namespace specfaas {

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double>& xs);

/**
 * Percentile by linear interpolation between closest ranks.
 * @param xs sample (need not be sorted; copied internally)
 * @param p percentile in [0, 100]
 */
double percentile(std::vector<double> xs, double p);

/** Percentile of a pre-sorted sample (no copy). */
double percentileSorted(const std::vector<double>& sorted, double p);

/** Sample standard deviation; 0 for n < 2. */
double stddev(const std::vector<double>& xs);

/**
 * Geometric mean; requires strictly positive samples. NaN for an
 * empty sample (undefined, rendered as a dash in report tables).
 */
double geomean(const std::vector<double>& xs);

/** One (x, F(x)) point of an empirical CDF. */
struct CdfPoint
{
    double x;
    double cum; // in [0, 1]
};

/**
 * Empirical CDF of a sample, downsampled to at most maxPoints evenly
 * spaced quantiles (for printing CDFs like the paper's Fig. 4).
 */
std::vector<CdfPoint> empiricalCdf(std::vector<double> xs,
                                   std::size_t maxPoints = 50);

} // namespace specfaas

#endif // SPECFAAS_COMMON_STATS_UTIL_HH
