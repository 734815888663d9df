#include "histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace specfaas::obs {

// --- LatencyHistogram ---------------------------------------------------

std::size_t
LatencyHistogram::bucketIndex(double v)
{
    if (!(v >= 1.0)) // < 1, negative, or NaN
        return 0;
    int exp = 0;
    const double frac = std::frexp(v, &exp); // v = frac * 2^exp
    // v is in [2^(exp-1), 2^exp); frac in [0.5, 1).
    const std::size_t octave = static_cast<std::size_t>(exp - 1);
    std::size_t sub = static_cast<std::size_t>(
        (frac * 2.0 - 1.0) * static_cast<double>(kSubBuckets));
    if (sub >= kSubBuckets)
        sub = kSubBuckets - 1;
    return 1 + octave * kSubBuckets + sub;
}

double
LatencyHistogram::bucketLower(std::size_t idx)
{
    if (idx == 0)
        return 0.0;
    const std::size_t octave = (idx - 1) / kSubBuckets;
    const std::size_t sub = (idx - 1) % kSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(sub) /
                                static_cast<double>(kSubBuckets),
                      static_cast<int>(octave));
}

void
LatencyHistogram::add(double v)
{
    const std::size_t idx = bucketIndex(v);
    if (idx >= counts_.size())
        counts_.resize(idx + 1, 0);
    ++counts_[idx];
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    if (other.count_ == 0)
        return;
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

double
LatencyHistogram::mean() const
{
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return sum_ / static_cast<double>(count_);
}

double
LatencyHistogram::min() const
{
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return min_;
}

double
LatencyHistogram::max() const
{
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return max_;
}

double
LatencyHistogram::percentile(double p) const
{
    SPECFAAS_ASSERT(p >= 0.0 && p <= 100.0, "percentile %f out of range",
                    p);
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();

    // Rank of the requested percentile (1-based, ceil convention).
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        const std::uint64_t prev = cum;
        cum += counts_[i];
        if (static_cast<double>(cum) < target)
            continue;
        // Interpolate linearly within [lower, upper) by the fraction
        // of the bucket's population below the target rank.
        const double lower = bucketLower(i);
        const double upper = bucketLower(i + 1);
        const double within =
            (target - static_cast<double>(prev)) /
            static_cast<double>(counts_[i]);
        const double est = lower + (upper - lower) *
                                       std::clamp(within, 0.0, 1.0);
        return std::clamp(est, min_, max_);
    }
    return max_;
}

std::vector<LatencyHistogram::Bucket>
LatencyHistogram::buckets() const
{
    std::vector<Bucket> out;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        out.push_back(Bucket{bucketLower(i), bucketLower(i + 1),
                             counts_[i]});
    }
    return out;
}

} // namespace specfaas::obs
