#pragma once

// The benchmark's workload interface, the timed-phase driver, and the hooks
// the traced run records through: a TelemetrySink that spans the engine's
// round loop, and an Annotator decorator that spans label calls.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "checks.h"
#include "core/telemetry.h"
#include "labels/annotator.h"
#include "obs/metrics.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced run: where to write the spans.
};

/// One iteration of one actor: its wall time and the campaigns it finished.
struct IterationSample {
  double seconds = 0.0;
  uint64_t campaigns = 0;
};

/// Wall time of one timed phase and every actor's iterations.
struct PhaseResult {
  double elapsed_s = 0.0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<uint64_t> iterations;  ///< per actor.
  std::vector<std::vector<IterationSample>> samples;  ///< per actor.
  /// Reference kernel times, one after each segment of the phase.
  std::vector<double> reference_s;
  /// Time the actors spent idle while the reference kernel ran.
  int64_t reference_ns = 0;
};

/// Campaigns per second as measured, robust to a burst of load from outside
/// the benchmark. Iterations i and i + `period` of an actor do the same work.
/// For each actor and each of the `period` iteration classes, the median
/// time and median campaigns over the class's iterations; the actor's rate
/// is the sum of the median campaigns over the sum of the median times, so
/// every class counts once however many times it ran. Summed over actors.
double CampaignsPerSecond(const PhaseResult& phase, uint64_t period);

/// Sum over the actors of the median iteration time. Two phases that run
/// the same iterations compare by this, not by wall time, so a warm-up or a
/// burst of outside load in one of them does not decide the comparison.
double MedianIterationSeconds(const PhaseResult& phase);

/// One benchmark workload. Setup() builds everything the timed phase needs
/// and is timed (several times; setup_s is the median). Iterate() runs one
/// unit of an actor's script; actors run on their own threads.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual int Actors() const { return 1; }
  /// How many times Setup() runs; setup_s is the median.
  virtual int SetupRepeats() const { return 21; }
  /// Iterations each actor completes even past the deadline.
  virtual uint64_t MinIterations() const { return 1; }
  /// Iterations i and i + Period() of an actor do the same work.
  virtual uint64_t Period() const { return 1; }
  /// True when the workload's time goes to handing requests between
  /// threads; its reference kernel then includes thread handoffs.
  virtual bool HandsOffRequests() const { return false; }

  /// Iterations each actor runs untimed before the first timed phase.
  virtual std::vector<uint64_t> WarmupIterations() const { return {}; }

  /// Non-empty: the timed phase is fixed work sized from `seconds`, actor a
  /// running exactly [a] iterations. Empty: each actor iterates until
  /// `seconds` have passed.
  virtual std::vector<uint64_t> FixedIterations(double seconds) const {
    (void)seconds;
    return {};
  }

  /// Builds the workload's inputs; records spans into `spans` when
  /// non-null. Called several times, with Release() between calls.
  virtual void Setup(SpanRecorder* spans) = 0;

  /// Releases what Setup() built (graphs, servers, threads). Called untimed
  /// before each repeated set-up and once at the end.
  virtual void Release() = 0;

  /// Clears per-phase tallies. `spans` is non-null in the traced phase.
  virtual void BeginPhase(SpanRecorder* spans) = 0;
  /// Runs one iteration; returns the campaigns it finished.
  virtual uint64_t Iterate(int actor, uint64_t iteration) = 0;

  /// annotation_hours and any workload-specific client metrics of an
  /// untraced phase. Percentiles without enough samples are recorded as
  /// failures in `checker`.
  virtual void ReportEndToEnd(const PhaseResult& phase, Report* report,
                              Checker* checker) = 0;

  /// Per-layer metrics of the traced phase.
  virtual void ReportLayers(const SpanTotals& spans,
                            const kgacc::obs::MetricsSnapshot& metrics,
                            Report* report) = 0;
};

std::unique_ptr<Workload> MakeStaticFull(const RunConfig& config,
                                         Checker* checker);
std::unique_ptr<Workload> MakeAnnotateHeavy(const RunConfig& config,
                                            Checker* checker);
std::unique_ptr<Workload> MakeEvolving(const RunConfig& config,
                                       Checker* checker);
std::unique_ptr<Workload> MakeServeMix(const RunConfig& config,
                                       Checker* checker);

/// Runs Actors() threads over Iterate(). With `fixed` null each actor runs
/// until `seconds` have passed and it has done MinIterations(); otherwise
/// actor a runs exactly (*fixed)[a] iterations. The phase runs in segments
/// of about kReferenceEverySeconds: at the end of one, each actor finishes
/// its iteration and waits, and the reference kernel samples the machine
/// (SampleReference) while all are idle. Iteration times exclude the waits.
PhaseResult RunPhase(Workload* workload, double seconds,
                     const std::vector<uint64_t>* fixed);

/// Seed of every workload's graph. The graph is fixed like a daemon's
/// preloaded catalog; --seed varies the campaigns run on it, so runs on
/// different seeds do comparable work.
inline constexpr uint64_t kGraphSeed = 42;

/// Derives an independent 64-bit seed from a base seed and a salt.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Sum of a histogram's durations in the snapshot; 0 when absent.
double HistogramSum(const kgacc::obs::MetricsSnapshot& metrics,
                    const char* name);
/// Median of a histogram in ms (bucket midpoint); 0 when absent or empty.
double HistogramMedianMs(const kgacc::obs::MetricsSnapshot& metrics,
                         const char* name);
uint64_t CounterValue(const kgacc::obs::MetricsSnapshot& metrics,
                      const char* name);

/// The library workloads (static-full, annotate-heavy, evolving) run passes
/// over a fixed campaign list. Pass p draws the campaign seeds of distinct
/// pass p % `distinct`; a campaign that ran before (in any phase) must
/// reproduce its first result bit for bit. annotation_hours sums the first
/// run of each distinct campaign, so it is a function of the seed alone.
class PassLedger {
 public:
  PassLedger(uint64_t seed, uint64_t distinct)
      : seed_(seed), distinct_(distinct) {}

  /// The campaign seed of slot `slot` in pass `pass`.
  uint64_t CampaignSeed(uint64_t pass, uint64_t slot) const;

  /// Records a finished campaign: checks it against the same campaign of an
  /// earlier pass, or adds its cost to the distinct passes' total.
  void Record(uint64_t pass, uint64_t slot, kgacc::EvaluationResult result,
              const std::string& label, Checker* checker);

  double AnnotationHours() const { return annotation_seconds_ / 3600.0; }

 private:
  uint64_t seed_;
  uint64_t distinct_;
  /// [pass % distinct][slot], set once the campaign first ran.
  std::vector<std::vector<std::optional<kgacc::EvaluationResult>>> first_;
  double annotation_seconds_ = 0.0;
};

/// Tallies the traced run reads from a library workload's phase.
struct LibraryTallies {
  uint64_t rounds = 0;
  uint64_t units = 0;
};

/// The per-layer split shared by the library workloads. Span names:
/// `design.run` (DesignRegistry::Run), `core.loop` (the engine's round loop),
/// `labels.annotate`, `labels.teardown`, `core.incremental.init`,
/// `core.incremental.update`, `kg.append`. Engine phase sums come from the
/// program's own `engine.round.*` histograms, cache counts from its
/// `annotation.*` counters.
void ReportLibraryLayers(const SpanTotals& spans,
                         const kgacc::obs::MetricsSnapshot& metrics,
                         const LibraryTallies& tallies, Report* report);

/// Traced run only: spans the engine's round loop (`core.loop`, from
/// BeginCampaign to EndCampaign) and keeps the units behind the last
/// round's estimate.
class LoopTracker : public kgacc::TelemetrySink {
 public:
  LoopTracker(SpanRecorder* spans, bool loop_span)
      : spans_(spans), loop_span_(loop_span) {}

  /// Wires this tracker into `options` when tracing.
  void Attach(kgacc::EvaluationOptions* options);

  void BeginCampaign(const std::string& design,
                     const std::string& label) override;
  void OnRound(const kgacc::CampaignRound& round) override;
  void EndCampaign(bool converged) override;

  uint64_t last_units() const { return last_units_; }

 private:
  SpanRecorder* spans_;
  bool loop_span_;
  int64_t loop_id_ = -1;
  uint64_t last_units_ = 0;
};

/// Forwards every call to the wrapped annotator and records a
/// `labels.annotate` span around each synchronous Annotate/AnnotateBatch.
/// Labels and ledger are the wrapped annotator's.
class TimedAnnotator : public kgacc::Annotator {
 public:
  TimedAnnotator(kgacc::Annotator* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  bool Annotate(const kgacc::TripleRef& ref) override;
  void AnnotateBatch(std::span<const kgacc::TripleRef> refs,
                     uint8_t* out) override;
  const kgacc::AnnotationLedger& ledger() const override {
    return inner_->ledger();
  }
  const kgacc::CostModel& cost_model() const override {
    return inner_->cost_model();
  }
  double ElapsedSeconds() const override { return inner_->ElapsedSeconds(); }

 private:
  kgacc::Annotator* inner_;
  SpanRecorder* spans_;
};

/// A SimulatedAnnotator, wrapped in a TimedAnnotator when tracing. The
/// untraced run calls the SimulatedAnnotator directly.
class BenchAnnotator {
 public:
  BenchAnnotator(const kgacc::TruthOracle* oracle, int threads,
                 SpanRecorder* spans);

  kgacc::Annotator* get() {
    return timed_ ? static_cast<kgacc::Annotator*>(timed_.get()) : &inner_;
  }
  const kgacc::SimulatedAnnotator& inner() const { return inner_; }

 private:
  kgacc::SimulatedAnnotator inner_;
  std::unique_ptr<TimedAnnotator> timed_;
};

/// The paper's cost model (Eq 4): c1 = 45 s, c2 = 25 s.
inline constexpr kgacc::CostModel kCost{.c1_seconds = 45.0,
                                        .c2_seconds = 25.0};

}  // namespace perfbench
