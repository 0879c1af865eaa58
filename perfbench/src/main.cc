// kgacc_perfbench — the repository benchmark.
//
//   kgacc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans-out FILE]
//
// Runs one workload (static-full, annotate-heavy, evolving, serve-mix) built
// from the seed. Setup runs several times (setup_s is the median); the timed
// phase then repeats the workload's script for at least S seconds, or runs
// a fixed script sized from S (serve-mix). Between set-ups, and between
// half-second segments of a timed phase, the benchmark runs its reference
// kernel; setup_s and campaigns_per_s are scaled by the slowdown it shows,
// so they read as on a machine of the reference speed (see reference.h).
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the timed phase
// untraced for S/2 seconds (or a script sized from S/2), repeats exactly the
// same iterations with the benchmark's spans and the program's metrics
// registry on, then once more untraced, each phase after a fresh set-up. It
// reports the per-layer metrics of the traced phase, its residue (time no
// root span covers) and the tracing overhead (traced median iteration time
// over the mean of the two untraced ones, minus 1).
//
// Every run checks the program's outputs. The last stdout line is the result
// object; the exit code is non-zero when a check failed.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "reference.h"
#include "workload.h"

namespace perfbench {
namespace {

using Factory = std::function<std::unique_ptr<Workload>(const RunConfig&,
                                                        Checker*)>;

const std::map<std::string, Factory>& Workloads() {
  static const std::map<std::string, Factory> workloads = {
      {"static-full", MakeStaticFull},
      {"annotate-heavy", MakeAnnotateHeavy},
      {"evolving", MakeEvolving},
      {"serve-mix", MakeServeMix},
  };
  return workloads;
}

/// Metrics of the untraced phase reported with the per-layer metrics of the
/// traced run: the client-observed serve metrics (serve-mix only) and the
/// simulated annotation cost.
constexpr const char* kUntracedLayerMetrics[] = {
    "annotation_hours", "requests_per_s", "step_p50_ms",  "step_p99_ms",
    "query_p99_ms",     "trace_p99_ms",   "resume_p50_ms"};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

void PrintPhase(const char* name, const PhaseResult& phase) {
  std::printf("%s: %.3f s, iterations per actor:", name, phase.elapsed_s);
  for (const uint64_t n : phase.iterations) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: kgacc_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               error);
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "spans-out") {
      return Usage(("unknown flag --" + key).c_str());
    }
  }
  const auto factory = Workloads().find(args["workload"]);
  if (factory == Workloads().end()) return Usage("unknown --workload");

  RunConfig config;
  char* end = nullptr;
  config.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (args["seed"].empty() || *end != '\0') return Usage("bad --seed");
  config.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(config.seconds > 0.0)) return Usage("bad --seconds");
  if (args["trace"] != "0" && args["trace"] != "1") return Usage("bad --trace");
  config.trace = args["trace"] == "1";
  config.spans_out = args["spans-out"];

  Checker checker;
  Report report;
  std::unique_ptr<Workload> workload = factory->second(config, &checker);

  // Each set-up is followed by a sample of the reference kernel; setup_s is
  // the median set-up time over the slowdown the kernel showed meanwhile.
  // The untraced run times half of the set-ups after the timed phase, so the
  // median spans two moments of the run rather than one burst of load.
  SpanRecorder setup_spans;
  std::vector<double> setup_s;
  std::vector<double> setup_reference_s;
  auto time_setup = [&](SpanRecorder* spans) {
    const int64_t start = NowNanos();
    workload->Setup(spans);
    setup_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
    SampleReference(setup_s.back(), workload->HandsOffRequests(),
                    &setup_reference_s);
  };
  const int setups = workload->SetupRepeats();
  const int setups_before = config.trace ? setups : (setups + 1) / 2;
  for (int i = 0; i < setups_before; ++i) {
    if (i > 0) workload->Release();
    time_setup(config.trace ? &setup_spans : nullptr);
  }

  const std::vector<uint64_t> warmup = workload->WarmupIterations();
  if (!warmup.empty()) {
    workload->BeginPhase(nullptr);
    PrintPhase("warm-up", RunPhase(workload.get(), 0.0, &warmup));
  }

  if (!config.trace) {
    workload->BeginPhase(nullptr);
    const std::vector<uint64_t> fixed =
        workload->FixedIterations(config.seconds);
    const PhaseResult phase = RunPhase(workload.get(), config.seconds,
                                       fixed.empty() ? nullptr : &fixed);
    PrintPhase("timed phase", phase);
    const double measured = CampaignsPerSecond(phase, workload->Period());
    const double slowdown =
        Slowdown(phase.reference_s, workload->HandsOffRequests());
    std::printf("campaigns per second as measured: %.6g; reference kernel "
                "%.3f ms (median of %zu), slowdown %.4f\n",
                measured, Median(phase.reference_s) * 1e3,
                phase.reference_s.size(), slowdown);
    report.Set("campaigns_per_s", measured * slowdown, "1/s");
    workload->ReportEndToEnd(phase, &report, &checker);
    for (int i = setups_before; i < setups; ++i) {
      workload->Release();
      time_setup(nullptr);
    }
    workload->Release();
    const double setup_slowdown =
        Slowdown(setup_reference_s, workload->HandsOffRequests());
    std::printf("set-up as measured: median %.6g s of %zu, slowdown %.4f\n",
                Median(setup_s), setup_s.size(), setup_slowdown);
    report.Set("setup_s", Median(setup_s) / setup_slowdown, "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    return PrintResult(report, kEndToEndMetrics, checker);
  }

  // Traced run: an untraced phase, then the same iterations traced.
  workload->BeginPhase(nullptr);
  const std::vector<uint64_t> fixed =
      workload->FixedIterations(config.seconds / 2);
  const PhaseResult untraced = RunPhase(workload.get(), config.seconds / 2,
                                        fixed.empty() ? nullptr : &fixed);
  PrintPhase("untraced phase", untraced);
  Report untraced_report;
  Checker percentile_checker;  // the untraced percentiles are not all used.
  workload->ReportEndToEnd(untraced, &untraced_report, &percentile_checker);
  for (const char* name : kUntracedLayerMetrics) {
    const auto it = untraced_report.metrics().find(name);
    if (it == untraced_report.metrics().end()) continue;
    checker.Expect(it->second.reportable,
                   std::string(name) + ": too few samples beyond");
    report.Set(name, it->second.value, it->second.unit);
  }

  // Each later phase starts from a fresh set-up (untimed), so state an
  // earlier phase left behind, such as a daemon's sessions, tenants and
  // label caches, does not carry over.
  auto set_up_again = [&] {
    workload->Release();
    workload->Setup(nullptr);
  };
  SpanRecorder spans;
  set_up_again();
  kgacc::obs::MetricsRegistry::Global().ResetValues();
  kgacc::obs::EnableMetrics(true);
  workload->BeginPhase(&spans);
  const PhaseResult traced =
      RunPhase(workload.get(), 0.0, &untraced.iterations);
  kgacc::obs::EnableMetrics(false);
  PrintPhase("traced phase", traced);
  const kgacc::obs::MetricsSnapshot metrics =
      kgacc::obs::MetricsRegistry::Global().Snapshot();
  const std::vector<Span> traced_spans = spans.Spans();
  workload->ReportLayers(Summarize(traced_spans), metrics, &report);

  // The same iterations untraced once more: the overhead compares the traced
  // phase with the mean of the phases around it, so a drift in machine speed
  // over the run cancels to first order.
  set_up_again();
  workload->BeginPhase(nullptr);
  const PhaseResult untraced_after =
      RunPhase(workload.get(), 0.0, &untraced.iterations);
  PrintPhase("untraced phase", untraced_after);
  workload->Release();

  const SpanTotals setup_totals = Summarize(setup_spans.Spans());
  const auto build = setup_totals.duration_s.find("datasets.build");
  report.Set("datasets.build_s",
             build == setup_totals.duration_s.end()
                 ? 0.0
                 : build->second / workload->SetupRepeats(),
             "s");
  report.Set("residue_share",
             ResidueShare(traced_spans, traced.start_ns, traced.end_ns,
                          workload->Actors(), traced.reference_ns),
             "ratio");
  report.Set("obs.trace_overhead_share",
             2 * MedianIterationSeconds(traced) /
                     (MedianIterationSeconds(untraced) +
                      MedianIterationSeconds(untraced_after)) -
                 1.0,
             "ratio");
  for (const MetricSpec& spec : kPerLayerMetrics) {
    if (!report.Has(spec.name)) report.Set(spec.name, 0.0, spec.unit);
  }
  if (!config.spans_out.empty()) {
    std::vector<Span> all = setup_spans.Spans();
    const int64_t offset = static_cast<int64_t>(all.size());
    for (Span span : traced_spans) {
      if (span.parent >= 0) span.parent += offset;
      all.push_back(std::move(span));
    }
    checker.Expect(WriteSpansJson(all, config.spans_out),
                   "cannot write " + config.spans_out);
  }
  return PrintResult(report, kPerLayerMetrics, checker);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
