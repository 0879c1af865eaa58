#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a reported percentile must have beyond it.
inline constexpr uint64_t kMinSamplesBeyond = 10;

/// A nearest-rank percentile: the sample at rank ceil(q * n) of the sorted
/// samples, so the value is one that was measured.
struct Percentile {
  double value = 0.0;
  uint64_t samples = 0;  ///< n behind the percentile.
  uint64_t beyond = 0;   ///< samples strictly above the rank.
  bool reportable = false;  ///< beyond >= kMinSamplesBeyond.
};

/// The q-quantile (0 < q < 1) of `samples` under the rule above.
Percentile NearestRank(std::vector<double> samples, double q);

/// Median of `samples` (mean of the middle two for even n); 0 when empty.
double Median(std::vector<double> samples);

}  // namespace perfbench
