// evolving: a MOVIE-profile base graph followed by update batches of about
// 10% each (the shape of the paper's Fig 9). Each pass appends every batch to
// the graph and then runs ApplyUpdate on a reservoir (rs) and a stratified
// (ss) driver. The time goes to reservoir and stratum bookkeeping over the
// appended clusters, with appending as the write beside those reads.

#include <algorithm>
#include <memory>
#include <vector>

#include "core/incremental_driver.h"
#include "kg/cluster_population.h"
#include "kg/generator.h"
#include "labels/synthetic_oracle.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr uint64_t kBaseTriples = 1300000;   // ~50% of MOVIE.
constexpr uint64_t kUpdateTriples = 130000;  // ~10% of the base per batch.
constexpr int kBatches = 30;
constexpr double kAccuracy = 0.9;
constexpr double kMoe = 0.05;
/// Passes with their own evaluation seeds (the graph and its updates stay
/// fixed), for a robust median rate and an averaged annotation_hours.
constexpr uint64_t kDistinctPasses = 20;

std::vector<uint32_t> MovieLikeSizes(uint64_t total_triples, kgacc::Rng& rng) {
  const uint64_t clusters = std::max<uint64_t>(1, total_triples / 9);
  std::vector<uint32_t> sizes =
      kgacc::GenerateLogNormalSizes(clusters, 0.94, 1.6, 5000, rng);
  kgacc::ScaleSizesToTotal(&sizes, total_triples);
  return sizes;
}

/// One incremental method: its annotator, loop tracker and driver.
struct Method {
  Method(kgacc::IncrementalMethod method, const kgacc::ClusterPopulation* kg,
         const kgacc::TruthOracle* oracle, kgacc::EvaluationOptions options,
         SpanRecorder* spans)
      : annotator(std::make_unique<BenchAnnotator>(oracle, 0, spans)),
        tracker(spans, /*loop_span=*/false) {
    tracker.Attach(&options);
    driver = std::make_unique<kgacc::IncrementalCampaignDriver>(
        method, kg, annotator->get(), options);
  }

  std::unique_ptr<BenchAnnotator> annotator;
  LoopTracker tracker;
  std::unique_ptr<kgacc::IncrementalCampaignDriver> driver;
  double step_seconds = 0.0;  ///< sum of the steps' annotation_seconds.
};

class Evolving : public Workload {
 public:
  Evolving(const RunConfig& config, Checker* checker)
      : checker_(checker),
        ledger_(config.seed, kDistinctPasses) {}

  uint64_t MinIterations() const override { return kDistinctPasses; }
  uint64_t Period() const override { return kDistinctPasses; }
  /// The first second of passes in a process runs up to a third slower;
  /// time the steady state.
  std::vector<uint64_t> WarmupIterations() const override {
    return {kDistinctPasses};
  }

  void Setup(SpanRecorder* spans) override {
    ScopedSpan span(spans, "datasets.build");
    kgacc::Rng rng(kGraphSeed);
    base_sizes_ = MovieLikeSizes(kBaseTriples, rng);
    for (int b = 0; b < kBatches; ++b) {
      update_sizes_.push_back(MovieLikeSizes(kUpdateTriples, rng));
    }
  }

  void Release() override {
    base_sizes_.clear();
    update_sizes_.clear();
  }

  void BeginPhase(SpanRecorder* spans) override {
    spans_ = spans;
    tallies_ = LibraryTallies{};
    clusters_appended_ = 0;
  }

  uint64_t Iterate(int actor, uint64_t pass) override {
    (void)actor;
    kgacc::ClusterPopulation population(base_sizes_);
    kgacc::PerClusterBernoulliOracle oracle(
        std::vector<double>(base_sizes_.size(), kAccuracy),
        kgacc::HashCombine(kGraphSeed, 2));
    kgacc::EvaluationOptions options;
    options.moe_target = kMoe;
    options.m = 5;
    options.seed = ledger_.CampaignSeed(pass, 0);
    Method methods[] = {
        {kgacc::IncrementalMethod::kReservoir, &population, &oracle, options,
         spans_},
        {kgacc::IncrementalMethod::kStratified, &population, &oracle, options,
         spans_}};

    std::vector<kgacc::EvaluationResult> steps;
    for (Method& method : methods) {
      ScopedSpan span(spans_, "core.incremental.init");
      steps.push_back(method.driver->Initialize());
      Record(method, steps.back());
    }
    for (const std::vector<uint32_t>& batch : update_sizes_) {
      const uint64_t first = population.NumClusters();
      {
        ScopedSpan span(spans_, "kg.append");
        for (const uint32_t size : batch) {
          population.Append(size);
          oracle.Append(kAccuracy);
        }
      }
      clusters_appended_ += batch.size();
      for (Method& method : methods) {
        ScopedSpan span(spans_, "core.incremental.update");
        steps.push_back(method.driver->ApplyUpdate(first, batch.size()));
        Record(method, steps.back());
      }
    }
    for (Method& method : methods) {
      checker_->Expect(
          NearlyEqual(method.step_seconds,
                      method.annotator->inner().ElapsedSeconds()),
          "evolving: per-step costs do not sum to the annotator's total");
      ScopedSpan span(spans_, "labels.teardown");
      method.annotator.reset();
    }

    for (size_t i = 0; i < steps.size(); ++i) {
      ledger_.Record(pass, i, std::move(steps[i]), "evolving/step", checker_);
    }
    return steps.size();
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
    report->Set("kg.clusters_appended",
                static_cast<double>(clusters_appended_), "count");
  }

 private:
  void Record(Method& method, const kgacc::EvaluationResult& result) {
    CheckCampaign(result, kMoe, kCost, "evolving/" + result.design, checker_);
    method.step_seconds += result.annotation_seconds;
    tallies_.rounds += result.rounds;
    tallies_.units += method.tracker.last_units();
  }

  Checker* checker_;
  PassLedger ledger_;
  std::vector<uint32_t> base_sizes_;
  std::vector<std::vector<uint32_t>> update_sizes_;
  SpanRecorder* spans_ = nullptr;
  LibraryTallies tallies_;
  uint64_t clusters_appended_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeEvolving(const RunConfig& config,
                                       Checker* checker) {
  return std::make_unique<Evolving>(config, checker);
}

}  // namespace perfbench
