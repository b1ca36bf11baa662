#include "common/stats.h"

#include <cstdio>

namespace asymnvm {

void
Histogram::merge(const Histogram &other)
{
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    sum_ += other.sum_;
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
}

uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    // Rank of the target sample (1-based, clamped into range).
    const double want = p / 100.0 * static_cast<double>(count_);
    const auto target = std::min(
        count_, std::max<uint64_t>(1, static_cast<uint64_t>(want + 0.5)));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (seen + buckets_[i] < target) {
            seen += buckets_[i];
            continue;
        }
        // Target falls in bucket i, spanning [lo, hi]. Interpolate by
        // rank: samples are assumed uniform across the bucket's range.
        const uint64_t lo = i == 0 ? 0 : 1ULL << (i - 1);
        const uint64_t hi = std::min<uint64_t>(
            i == 0 ? 0 : (1ULL << i) - 1, max_);
        if (hi <= lo)
            return std::min(lo, max_);
        const double frac = static_cast<double>(target - seen) /
                            static_cast<double>(buckets_[i]);
        return std::min<uint64_t>(
            max_, lo + static_cast<uint64_t>(frac * (hi - lo) + 0.5));
    }
    return max_;
}

std::string
Histogram::summary() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu mean=%.0fns p50=%lluns p99=%lluns max=%lluns",
                  static_cast<unsigned long long>(count_), mean(),
                  static_cast<unsigned long long>(percentile(50)),
                  static_cast<unsigned long long>(percentile(99)),
                  static_cast<unsigned long long>(max_));
    return buf;
}

} // namespace asymnvm
