// static-full: MOVIE-FULL (130.6M triples, 14.5M clusters, REM 0.9) is
// synthesized during setup; each pass then runs the five static designs at
// MoE 0.01, each with a fresh annotator. Setup and per-campaign sampler and
// alias construction take almost all of the wall time, so this is where the
// datasets layer, `sampling` build and memory show.

#include <memory>

#include "core/design_registry.h"
#include "datasets/registry.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr const char* kDesigns[] = {"twcs", "wcs", "twcs+strat", "twcs+pilot",
                                    "srs"};
constexpr double kMoe = 0.01;
/// Passes with their own seeds: three keep the median per-pass rate robust
/// and average annotation_hours over 15 campaigns.
constexpr uint64_t kDistinctPasses = 3;

class StaticFull : public Workload {
 public:
  StaticFull(const RunConfig& config, Checker* checker)
      : checker_(checker),
        ledger_(config.seed, kDistinctPasses) {}

  int SetupRepeats() const override { return 3; }
  uint64_t MinIterations() const override { return kDistinctPasses; }
  uint64_t Period() const override { return kDistinctPasses; }

  void Setup(SpanRecorder* spans) override {
    ScopedSpan span(spans, "datasets.build");
    kgacc::Result<kgacc::Dataset> made =
        kgacc::MakeDatasetByName("movie-full", kGraphSeed);
    if (!checker_->Expect(made.ok(), "movie-full synthesis failed")) return;
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
    for (size_t d = 0; d < std::size(kDesigns); ++d) {
      campaigns += RunCampaign(pass, d) ? 1 : 0;
    }
    return campaigns;
  }

  void ReportEndToEnd(const PhaseResult& phase, Report* report,
                      Checker* checker) override {
    (void)phase;
    (void)checker;
    report->Set("annotation_hours", ledger_.AnnotationHours(), "h");
  }

  void ReportLayers(const SpanTotals& spans,
                    const kgacc::obs::MetricsSnapshot& metrics,
                    Report* report) override {
    ReportLibraryLayers(spans, metrics, tallies_, report);
  }

 private:
  bool RunCampaign(uint64_t pass, size_t d) {
    kgacc::EvaluationOptions options;
    options.moe_target = kMoe;
    options.seed = ledger_.CampaignSeed(pass, d);
    LoopTracker tracker(spans_, /*loop_span=*/true);
    tracker.Attach(&options);
    auto annotator = std::make_unique<BenchAnnotator>(dataset_->oracle.get(),
                                                      0, spans_);
    kgacc::Result<kgacc::EvaluationResult> run = [&] {
      ScopedSpan span(spans_, "design.run");
      return kgacc::DesignRegistry::Global().Run(
          kDesigns[d], dataset_->View(), annotator->get(), options);
    }();
    {
      ScopedSpan span(spans_, "labels.teardown");
      annotator.reset();
    }
    const std::string label = std::string("static-full/") + kDesigns[d];
    if (!checker_->Expect(run.ok(), label + ": " + run.status().ToString())) {
      return false;
    }
    CheckCampaign(*run, kMoe, kCost, label, checker_);
    tallies_.rounds += run->rounds;
    tallies_.units += tracker.last_units();
    ledger_.Record(pass, d, std::move(run).value(), label, checker_);
    return true;
  }

  Checker* checker_;
  PassLedger ledger_;
  std::unique_ptr<kgacc::Dataset> dataset_;
  SpanRecorder* spans_ = nullptr;
  LibraryTallies tallies_;
};

}  // namespace

std::unique_ptr<Workload> MakeStaticFull(const RunConfig& config,
                                         Checker* checker) {
  return std::make_unique<StaticFull>(config, checker);
}

}  // namespace perfbench
