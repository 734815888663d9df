/**
 * @file
 * Bounded-memory latency aggregation for benchmarks.
 *
 * LatencyHistogram is a log-bucketed (HDR-style) histogram with
 * percentile queries. Bench loops that used to retain every response
 * time in a raw vector record into one of these instead; memory is
 * O(log(range)) and percentiles stay within one sub-bucket (~6%
 * relative error at 16 sub-buckets per octave).
 */

#ifndef SPECFAAS_OBS_HISTOGRAM_HH
#define SPECFAAS_OBS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace specfaas::obs {

/**
 * Log-bucketed histogram for non-negative quantities (latencies in
 * ticks or milliseconds). Values below 1 share an underflow bucket;
 * above that, each power-of-two octave is split into kSubBuckets
 * geometrically-placed buckets.
 */
class LatencyHistogram
{
  public:
    /** Sub-buckets per power-of-two octave (relative error ~1/16). */
    static constexpr std::size_t kSubBuckets = 16;

    /** Record one observation. Negative/NaN clamp to the 0-bucket. */
    void add(double v);

    /** Accumulate another histogram into this one. */
    void merge(const LatencyHistogram& other);

    /** Number of observations. */
    std::uint64_t count() const { return count_; }
    /** Sum of observations (exact, not bucketed). */
    double sum() const { return sum_; }
    /** Mean of observations; NaN when empty. */
    double mean() const;
    /** Exact minimum observation; NaN when empty. */
    double min() const;
    /** Exact maximum observation; NaN when empty. */
    double max() const;

    /**
     * Percentile estimate by linear interpolation within the bucket
     * holding the requested rank, clamped to [min, max]. NaN when
     * empty. @param p percentile in [0, 100]
     */
    double percentile(double p) const;

    /** One non-empty bucket: [lower, upper) and its count. */
    struct Bucket
    {
        double lower;
        double upper;
        std::uint64_t count;
    };

    /** Non-empty buckets in ascending value order. */
    std::vector<Bucket> buckets() const;

  private:
    static std::size_t bucketIndex(double v);
    static double bucketLower(std::size_t idx);

    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_HISTOGRAM_HH
