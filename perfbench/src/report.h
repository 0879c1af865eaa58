#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "stats.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = -1;  ///< n behind a percentile; -1 for other metrics.
  bool reportable = true;  ///< false: a percentile short of samples.
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Metrics reported by the untraced and the traced (`--trace 1`) runs. The
/// names match BENCHMARK.json; run.py checks that each run reports its set.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// Sets a latency percentile in ms from samples in ms. A percentile with
  /// fewer than kMinSamplesBeyond samples beyond it is not reportable and
  /// counts as a failed check.
  void SetPercentile(const std::string& name, const std::vector<double>& ms,
                     double q, Checker* checker);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Prints one human-readable line per metric (with the sample count behind
/// each percentile), then, as the last line, the result object with exactly
/// the metrics named in `selected`. Returns the process exit code: 0 when
/// every check passed and every selected metric was measured, 1 otherwise.
int PrintResult(const Report& report, const std::vector<MetricSpec>& selected,
                const Checker& checker);

}  // namespace perfbench
