#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace firzen {
namespace perfbench {
namespace {

// 1-based nearest rank. The epsilon keeps q * n from rounding up past an
// exact integer (0.99 * 1000 is 990.0000000000001 in binary).
int64_t NearestRank(int64_t n, double q) {
  const auto rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("Percentile of no samples");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q outside (0, 1]");
  const int64_t rank = NearestRank(static_cast<int64_t>(values.size()), q);
  auto nth = values.begin() + (rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  return n - NearestRank(n, q);
}

int64_t MinSamplesFor(double q) {
  int64_t n = 1;
  while (SamplesBeyond(n, q) < kMinSamplesBeyond) ++n;
  return n;
}

}  // namespace perfbench
}  // namespace firzen
