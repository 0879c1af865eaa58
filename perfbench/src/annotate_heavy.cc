// annotate-heavy: MOVIE (2.65M triples). Each pass runs rcs at MoE 0.015
// (about 1.36M distinct triples, all cache misses: an insert-heavy load) and
// wcs at MoE 0.002 (about 1.05M lookups, half of them hits: a hit-heavy
// load), both with batch_units 100, each at annotation_threads 1 and 4. The
// annotator, its sharded cache and its thread pool take most of the timed
// phase here, and the two thread counts must give bit-identical results.

#include <memory>

#include "core/design_registry.h"
#include "datasets/registry.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Campaign {
  const char* design;
  double moe;
};
constexpr Campaign kCampaigns[] = {{"rcs", 0.015}, {"wcs", 0.002}};
constexpr int kThreads[] = {1, 4};
constexpr uint64_t kBatchUnits = 100;
/// Passes with their own seeds: the peak memory is the largest of 8 rcs
/// label caches, and annotation_hours averages 16 campaign pairs.
constexpr uint64_t kDistinctPasses = 8;

class AnnotateHeavy : public Workload {
 public:
  AnnotateHeavy(const RunConfig& config, Checker* checker)
      : checker_(checker),
        ledger_(config.seed, kDistinctPasses) {}

  uint64_t MinIterations() const override { return kDistinctPasses; }
  uint64_t Period() const override { return kDistinctPasses; }

  void Setup(SpanRecorder* spans) override {
    ScopedSpan span(spans, "datasets.build");
    kgacc::Result<kgacc::Dataset> made =
        kgacc::MakeDatasetByName("movie", kGraphSeed);
    if (!checker_->Expect(made.ok(), "movie synthesis failed")) return;
    dataset_ = std::make_unique<kgacc::Dataset>(std::move(made).value());
  }

  void Release() override { dataset_.reset(); }

  void BeginPhase(SpanRecorder* spans) override {
    spans_ = spans;
    tallies_ = LibraryTallies{};
  }

  uint64_t Iterate(int actor, uint64_t pass) override {
    (void)actor;
    if (dataset_ == nullptr) return 0;
    uint64_t campaigns = 0;
    for (size_t c = 0; c < std::size(kCampaigns); ++c) {
      kgacc::EvaluationResult by_threads[std::size(kThreads)];
      bool ok = true;
      for (size_t t = 0; t < std::size(kThreads); ++t) {
        ok = RunCampaign(pass, c, kThreads[t], &by_threads[t]) && ok;
      }
      if (!ok) continue;
      campaigns += std::size(kThreads);
      const std::string label =
          std::string("annotate-heavy/") + kCampaigns[c].design;
      checker_->Expect(SameResult(by_threads[0], by_threads[1]),
                       label + ": threads 1 and 4 differ");
      ledger_.Record(pass, c, by_threads[0], label, checker_);
    }
    return campaigns;
  }

  void ReportEndToEnd(const PhaseResult& phase, Report* report,
                      Checker* checker) override {
    (void)phase;
    (void)checker;
    // The ledger holds one run of each thread pair; both runs were paid.
    report->Set("annotation_hours", 2 * ledger_.AnnotationHours(), "h");
  }

  void ReportLayers(const SpanTotals& spans,
                    const kgacc::obs::MetricsSnapshot& metrics,
                    Report* report) override {
    ReportLibraryLayers(spans, metrics, tallies_, report);
  }

 private:
  bool RunCampaign(uint64_t pass, size_t c, int threads,
                   kgacc::EvaluationResult* out) {
    kgacc::EvaluationOptions options;
    options.moe_target = kCampaigns[c].moe;
    options.batch_units = kBatchUnits;
    options.seed = ledger_.CampaignSeed(pass, c);
    LoopTracker tracker(spans_, /*loop_span=*/true);
    tracker.Attach(&options);
    auto annotator = std::make_unique<BenchAnnotator>(dataset_->oracle.get(),
                                                      threads, spans_);
    kgacc::Result<kgacc::EvaluationResult> run = [&] {
      ScopedSpan span(spans_, "design.run");
      return kgacc::DesignRegistry::Global().Run(
          kCampaigns[c].design, dataset_->View(), annotator->get(), options);
    }();
    {
      ScopedSpan span(spans_, "labels.teardown");
      annotator.reset();
    }
    const std::string label = std::string("annotate-heavy/") +
                              kCampaigns[c].design + "/threads-" +
                              std::to_string(threads);
    if (!checker_->Expect(run.ok(), label + ": " + run.status().ToString())) {
      return false;
    }
    *out = std::move(run).value();
    CheckCampaign(*out, kCampaigns[c].moe, kCost, label, checker_);
    tallies_.rounds += out->rounds;
    tallies_.units += tracker.last_units();
    return true;
  }

  Checker* checker_;
  PassLedger ledger_;
  std::unique_ptr<kgacc::Dataset> dataset_;
  SpanRecorder* spans_ = nullptr;
  LibraryTallies tallies_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnnotateHeavy(const RunConfig& config,
                                            Checker* checker) {
  return std::make_unique<AnnotateHeavy>(config, checker);
}

}  // namespace perfbench
