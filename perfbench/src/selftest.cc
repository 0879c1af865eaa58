// Tests of the benchmark's own helpers: the percentile rule, span self time
// with nested children, the residue, and failure counting, including a
// repeated campaign that does not reproduce its first result. Exits non-zero
// when any expectation fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) samples.push_back(i);  // unsorted on purpose.
  return samples;
}

void TestPercentileRule() {
  // p99 of 1000 samples: rank 990, so exactly 10 samples lie beyond it.
  const Percentile p99 = NearestRank(Ramp(1000), 0.99);
  Expect(p99.value == 990.0, "p99 of 1..1000 is 990");
  Expect(p99.beyond == 10 && p99.reportable, "p99 of 1000 is reportable");
  const Percentile short_p99 = NearestRank(Ramp(999), 0.99);
  Expect(short_p99.beyond == 9 && !short_p99.reportable,
         "p99 of 999 samples is not reportable");
  // The median needs 20 samples.
  Expect(NearestRank(Ramp(20), 0.5).reportable, "p50 of 20 is reportable");
  Expect(!NearestRank(Ramp(19), 0.5).reportable,
         "p50 of 19 is not reportable");
  Expect(NearestRank(Ramp(20), 0.5).value == 10.0, "p50 of 1..20 is 10");
  Expect(!NearestRank({}, 0.5).reportable, "no samples, no percentile");

  Checker checker;
  Report report;
  report.SetPercentile("short_p99_ms", Ramp(500), 0.99, &checker);
  Expect(checker.failed() == 1, "an unreportable percentile is a failure");
  Expect(report.metrics().at("short_p99_ms").samples == 500,
         "the percentile keeps its sample count");
}

Span MakeSpan(const char* name, int track, int64_t start, int64_t end,
              int64_t parent) {
  return Span{name, track, start, end, parent};
}

void TestSelfTime() {
  // root [0, 100) with children [10, 30) and [20, 50) (overlapping, union
  // 40) and a grandchild [12, 18) under the first child.
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 0, 100, -1), MakeSpan("child", 0, 10, 30, 0),
      MakeSpan("child", 0, 20, 50, 0), MakeSpan("grandchild", 0, 12, 18, 1)};
  const SpanTotals totals = Summarize(spans);
  Expect(Near(totals.self_s.at("root"), 60e-9), "root self time is 60 ns");
  Expect(Near(totals.duration_s.at("child"), 50e-9), "child durations add");
  Expect(Near(totals.self_s.at("child"), 44e-9),
         "child self time excludes the grandchild");
  Expect(Near(totals.self_s.at("grandchild"), 6e-9), "leaf self = duration");
}

void TestRecorderNesting() {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer");
    ScopedSpan inner(&recorder, "inner");
  }
  ScopedSpan untraced(nullptr, "ignored");
  const std::vector<Span> spans = recorder.Spans();
  Expect(spans.size() == 2, "two spans recorded");
  Expect(spans[1].parent == 0, "inner nests under outer");
  Expect(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end,
         "inner lies within outer");
}

void TestResidue() {
  // Window [0, 100) on two tracks. Track 0 roots cover [0, 40) and [30, 60)
  // (union 60); track 1 covers [50, 150) (clipped to 50). Children do not
  // add coverage. Covered 110 of 200.
  const std::vector<Span> spans = {
      MakeSpan("a", 0, 0, 40, -1), MakeSpan("b", 0, 30, 60, -1),
      MakeSpan("a.child", 0, 5, 10, 0), MakeSpan("c", 1, 50, 150, -1)};
  Expect(Near(ResidueShare(spans, 0, 100, 2), 0.45), "residue is 90/200");
  Expect(Near(ResidueShare({}, 0, 100, 1), 1.0), "no spans: all residue");
  // 20 ns of the window were idle by design: covered 110 of 2 x 80.
  Expect(Near(ResidueShare(spans, 0, 100, 2, 20), 1.0 - 110.0 / 160.0),
         "idle time is not residue");
}

void TestFailureCounting() {
  Checker checker;
  Expect(checker.Expect(true, "ok"), "a passing check returns true");
  checker.Expect(true, "ok");
  Expect(!checker.Expect(false, "forced mismatch"), "a failing check");
  Expect(checker.attempted() == 3 && checker.failed() == 1, "counts");
  Expect(Near(checker.ErrorRate(), 1.0 / 3.0), "error rate is failed/attempted");
  Expect(checker.Failures().size() == 1 &&
             checker.Failures()[0] == "forced mismatch",
         "the failure message is kept");

  kgacc::EvaluationResult a;
  a.design = "TWCS";
  a.estimate.mean = 0.9;
  kgacc::EvaluationResult b = a;
  Expect(SameResult(a, b), "identical results compare equal");
  b.estimate.mean = std::nextafter(0.9, 1.0);
  Expect(!SameResult(a, b), "a one-ulp mismatch is caught");

  Report report;
  report.Set("setup_s", 1.0, "s");
  Expect(PrintResult(report, {{"setup_s", "s"}}, checker) != 0,
         "a failed check makes the exit code non-zero");
  Checker clean;
  clean.Expect(true, "ok");
  Expect(PrintResult(report, {{"setup_s", "s"}}, clean) == 0,
         "a clean run exits 0");
  Expect(PrintResult(report, {{"missing_s", "s"}}, clean) != 0,
         "a missing metric makes the exit code non-zero");
}

void TestPassLedgerMismatch() {
  // A campaign repeated in a later pass must reproduce its first result: a
  // one-ulp difference is a failed check and a non-zero exit code.
  Checker checker;
  PassLedger ledger(/*seed=*/7, /*distinct=*/2);
  Expect(ledger.CampaignSeed(0, 1) == ledger.CampaignSeed(2, 1),
         "pass 2 repeats the seeds of pass 0");
  kgacc::EvaluationResult first;
  first.design = "TWCS";
  first.estimate.mean = 0.9;
  first.annotation_seconds = 3600.0;
  ledger.Record(0, 1, first, "first", &checker);
  ledger.Record(2, 1, first, "repeat", &checker);
  Expect(checker.failed() == 0, "an identical repeat passes");
  Expect(Near(ledger.AnnotationHours(), 1.0), "only the first run is paid");
  kgacc::EvaluationResult drifted = first;
  drifted.estimate.mean = std::nextafter(0.9, 1.0);
  ledger.Record(4, 1, drifted, "drifted", &checker);
  Expect(checker.attempted() == 2 && checker.failed() == 1,
         "a one-ulp drift in a repeat is a failed check");
  Expect(Near(checker.ErrorRate(), 0.5), "error rate counts the mismatch");
  Report report;
  report.Set("setup_s", 1.0, "s");
  Expect(PrintResult(report, {{"setup_s", "s"}}, checker) != 0,
         "a mismatched repeat makes the exit code non-zero");
}

void TestCampaignInvariants() {
  const kgacc::CostModel cost{.c1_seconds = 45.0, .c2_seconds = 25.0};
  kgacc::EvaluationResult result;
  result.converged = true;
  result.moe = 0.009;
  result.ledger.entities_identified = 3;
  result.ledger.triples_annotated = 7;
  result.annotation_seconds = 3 * 45.0 + 7 * 25.0;
  Checker checker;
  CheckCampaign(result, 0.01, cost, "good", &checker);
  Expect(checker.failed() == 0, "a consistent campaign passes");
  result.moe = 0.011;
  result.annotation_seconds += 1.0;
  CheckCampaign(result, 0.01, cost, "bad", &checker);
  Expect(checker.failed() == 2, "moe above target and a cost mismatch fail");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestSelfTime();
  perfbench::TestRecorderNesting();
  perfbench::TestResidue();
  perfbench::TestFailureCounting();
  perfbench::TestPassLedgerMismatch();
  perfbench::TestCampaignInvariants();
  if (perfbench::failures == 0) std::printf("perfbench_selftest: OK\n");
  return perfbench::failures == 0 ? 0 : 1;
}
