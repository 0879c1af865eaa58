#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const uint64_t rank =
      std::clamp<uint64_t>(static_cast<uint64_t>(std::ceil(q * n)), 1,
                           samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.reportable = out.beyond >= kMinSamplesBeyond;
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

}  // namespace perfbench
