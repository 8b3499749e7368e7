// Order statistics for the benchmark's reports. A timing is reported as a
// median plus the highest percentile that still has at least ten samples
// beyond it (nearest-rank definition, so every reported value is one that
// was actually measured).
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace firzen {
namespace perfbench {

/// Samples a reported percentile must have beyond it.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the value at 1-based sorted rank ceil(q * n).
/// `q` in (0, 1]; `values` must be non-empty.
double Percentile(std::vector<double> values, double q);

/// Median as the nearest-rank 50th percentile.
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Number of samples ranked strictly above the q-th percentile of n samples.
int64_t SamplesBeyond(int64_t n, double q);

/// Smallest n for which SamplesBeyond(n, q) >= kMinSamplesBeyond.
int64_t MinSamplesFor(double q);

}  // namespace perfbench
}  // namespace firzen

#endif  // PERFBENCH_STATS_H_
