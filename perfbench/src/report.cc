#include "report.h"

#include <cstdio>

#include "util/json.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"campaigns_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"annotation_hours", "h"},
    {"datasets.build_s", "s"},
    {"sampling.build_s", "s"},
    {"sampling.draw_s", "s"},
    {"sampling.units", "count"},
    {"labels.annotate_s", "s"},
    {"labels.teardown_s", "s"},
    {"labels.lookups", "count"},
    {"labels.hit_ratio", "ratio"},
    {"labels.ns_per_lookup", "ns"},
    {"labels.parallel_batch_share", "ratio"},
    {"estimators.estimate_s", "s"},
    {"core.stopping_s", "s"},
    {"core.rounds", "count"},
    {"core.loop_s", "s"},
    {"core.incremental.init_s", "s"},
    {"core.incremental.update_s", "s"},
    {"kg.append_s", "s"},
    {"kg.clusters_appended", "count"},
    {"serve.step.server_ms", "ms"},
    {"serve.query.server_ms", "ms"},
    {"serve.trace.server_ms", "ms"},
    {"serve.resume.server_ms", "ms"},
    {"serve.tenant_status.server_ms", "ms"},
    {"serve.step.transport_ms", "ms"},
    {"serve.connections", "count"},
    {"requests_per_s", "1/s"},
    {"step_p50_ms", "ms"},
    {"step_p99_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"trace_p99_ms", "ms"},
    {"resume_p50_ms", "ms"},
    {"sched.select_s", "s"},
    {"sched.grants", "count"},
    {"sched.evictions", "count"},
    {"sched.free_grant_share", "ratio"},
    {"residue_share", "ratio"},
    {"obs.trace_overhead_share", "ratio"},
};

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit, -1, true};
}

void Report::SetPercentile(const std::string& name,
                           const std::vector<double>& ms, double q,
                           Checker* checker) {
  const Percentile p = NearestRank(ms, q);
  checker->Expect(p.reportable,
                  name + ": fewer than 10 samples beyond the percentile (n=" +
                      std::to_string(p.samples) + ")");
  metrics_[name] =
      Metric{p.value, "ms", static_cast<int64_t>(p.samples), p.reportable};
}

int PrintResult(const Report& report, const std::vector<MetricSpec>& selected,
                const Checker& checker) {
  for (const auto& [name, metric] : report.metrics()) {
    if (metric.samples >= 0) {
      std::printf("%-32s %.6g %s (n=%lld)\n", name.c_str(), metric.value,
                  metric.unit.c_str(), static_cast<long long>(metric.samples));
    } else {
      std::printf("%-32s %.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::printf("%-32s %.6g (%llu failed of %llu attempted)\n", "error_rate",
              checker.ErrorRate(),
              static_cast<unsigned long long>(checker.failed()),
              static_cast<unsigned long long>(checker.attempted()));
  for (const std::string& failure : checker.Failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  bool complete = true;
  kgacc::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(checker.failed() == 0);
  json.Key("attempted").Uint(checker.attempted());
  json.Key("failed").Uint(checker.failed());
  json.Key("metrics").BeginObject();
  for (const MetricSpec& spec : selected) {
    const std::string& name = spec.name;
    const auto it = report.metrics().find(name);
    if (it == report.metrics().end()) {
      std::printf("MISSING: %s\n", name.c_str());
      complete = false;
      continue;
    }
    json.Key(name).BeginObject();
    json.Key("value").Number(it->second.value);
    json.Key("unit").String(it->second.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return checker.failed() == 0 && complete ? 0 : 1;
}

}  // namespace perfbench
