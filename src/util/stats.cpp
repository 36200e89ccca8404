#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace coruscant {

std::uint64_t
LatencyHistogram::bucketUpperEdge(std::size_t idx)
{
    if (idx < (1ull << kLinearBits))
        return idx;
    std::size_t rel = idx - (1ull << kLinearBits);
    std::size_t octave = kLinearBits + rel / (1ull << kSubBits);
    std::size_t sub = rel % (1ull << kSubBits);
    std::uint64_t step = 1ull << (octave - kSubBits);
    std::uint64_t lower = (1ull << octave) + sub * step;
    return lower + step - 1;
}

std::uint64_t
LatencyHistogram::percentile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target)
            // The covering bucket only bounds the order statistic to
            // [lower, upper]; its upper edge can exceed every recorded
            // observation (a single sample of 64 lands in [64, 65]).
            // No observation lies outside [min_, max_], so clamping
            // tightens the estimate without ever undershooting a
            // value that was actually observed alone in its bucket.
            return std::clamp(bucketUpperEdge(i), min_, max_);
    }
    return max_;
}

std::string
LatencyHistogram::summary() const
{
    std::ostringstream os;
    os << "n=" << count_ << " mean=" << mean() << " p50=" << p50()
       << " p95=" << p95() << " p99=" << p99() << " p99.9=" << p999()
       << " max=" << max_;
    return os.str();
}

std::string
CostLedger::summary() const
{
    std::ostringstream os;
    os << "total: " << totalCycles_ << " cycles, " << totalEnergyPj_
       << " pJ\n";
    for (std::size_t i = 0; i < kCostCategories; ++i) {
        const Entry &e = entries_[i];
        if (e.count == 0)
            continue;
        os << "  " << costName(static_cast<Cost>(i)) << ": " << e.count
           << " ops, " << e.cycles << " cycles, " << e.energyPj
           << " pJ\n";
    }
    return os.str();
}

} // namespace coruscant
