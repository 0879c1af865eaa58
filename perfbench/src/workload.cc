#include "workload.h"

#include <barrier>
#include <thread>

#include "reference.h"
#include "util/rng.h"

namespace perfbench {

namespace {

double Get(const std::map<std::string, double>& totals, const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

}  // namespace

double CampaignsPerSecond(const PhaseResult& phase, uint64_t period) {
  double total = 0.0;
  for (const std::vector<IterationSample>& samples : phase.samples) {
    std::vector<std::vector<double>> seconds(period);
    std::vector<std::vector<double>> campaigns(period);
    for (size_t i = 0; i < samples.size(); ++i) {
      seconds[i % period].push_back(samples[i].seconds);
      campaigns[i % period].push_back(static_cast<double>(samples[i].campaigns));
    }
    double class_seconds = 0.0;
    double class_campaigns = 0.0;
    for (uint64_t c = 0; c < period; ++c) {
      class_seconds += Median(seconds[c]);
      class_campaigns += Median(campaigns[c]);
    }
    if (class_seconds > 0.0) total += class_campaigns / class_seconds;
  }
  return total;
}

double MedianIterationSeconds(const PhaseResult& phase) {
  double total = 0.0;
  for (const std::vector<IterationSample>& samples : phase.samples) {
    std::vector<double> seconds;
    for (const IterationSample& sample : samples) {
      seconds.push_back(sample.seconds);
    }
    total += Median(seconds);
  }
  return total;
}

PhaseResult RunPhase(Workload* workload, double seconds,
                     const std::vector<uint64_t>* fixed) {
  const int actors = workload->Actors();
  PhaseResult phase;
  phase.iterations.assign(static_cast<size_t>(actors), 0);
  phase.samples.resize(static_cast<size_t>(actors));
  auto after = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  const Clock::time_point deadline = after(seconds);
  // Written only by the barrier's completion, while every actor waits.
  int64_t segment_start = NowNanos();
  Clock::time_point segment_end = after(kReferenceEverySeconds);
  std::barrier segment_done(actors, [&]() noexcept {
    const int64_t start = NowNanos();
    SampleReference(static_cast<double>(start - segment_start) * 1e-9,
                    workload->HandsOffRequests(), &phase.reference_s);
    segment_start = NowNanos();
    phase.reference_ns += segment_start - start;
    segment_end = after(kReferenceEverySeconds);
  });
  auto run_actor = [&](int actor) {
    uint64_t& done = phase.iterations[static_cast<size_t>(actor)];
    std::vector<IterationSample>& samples =
        phase.samples[static_cast<size_t>(actor)];
    auto finished = [&] {
      return fixed != nullptr
                 ? done >= (*fixed)[static_cast<size_t>(actor)]
                 : done >= workload->MinIterations() &&
                       Clock::now() >= deadline;
    };
    while (!finished()) {
      const Clock::time_point begin = Clock::now();
      const uint64_t campaigns = workload->Iterate(actor, done);
      samples.push_back(IterationSample{
          std::chrono::duration<double>(Clock::now() - begin).count(),
          campaigns});
      ++done;
      if (!finished() && Clock::now() >= segment_end) {
        segment_done.arrive_and_wait();
      }
    }
    segment_done.arrive_and_drop();
  };
  phase.start_ns = NowNanos();
  if (actors == 1) {
    run_actor(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(actors));
    for (int a = 0; a < actors; ++a) threads.emplace_back(run_actor, a);
    for (std::thread& thread : threads) thread.join();
  }
  phase.end_ns = NowNanos();
  phase.elapsed_s = static_cast<double>(phase.end_ns - phase.start_ns) * 1e-9;
  return phase;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return kgacc::HashCombine(seed, salt);
}

double HistogramSum(const kgacc::obs::MetricsSnapshot& metrics,
                    const char* name) {
  const kgacc::obs::HistogramSnapshot* h = metrics.FindHistogram(name);
  return h == nullptr ? 0.0 : h->sum_seconds;
}

double HistogramMedianMs(const kgacc::obs::MetricsSnapshot& metrics,
                         const char* name) {
  const kgacc::obs::HistogramSnapshot* h = metrics.FindHistogram(name);
  return h == nullptr || h->count == 0 ? 0.0 : h->p50_seconds * 1e3;
}

uint64_t CounterValue(const kgacc::obs::MetricsSnapshot& metrics,
                      const char* name) {
  const kgacc::obs::MetricsSnapshot::CounterValue* c =
      metrics.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

uint64_t PassLedger::CampaignSeed(uint64_t pass, uint64_t slot) const {
  return kgacc::HashCombine(seed_, pass % distinct_, slot);
}

void PassLedger::Record(uint64_t pass, uint64_t slot,
                        kgacc::EvaluationResult result,
                        const std::string& label, Checker* checker) {
  const uint64_t distinct_pass = pass % distinct_;
  if (first_.size() <= distinct_pass) first_.resize(distinct_pass + 1);
  std::vector<std::optional<kgacc::EvaluationResult>>& earlier =
      first_[distinct_pass];
  if (earlier.size() <= slot) earlier.resize(slot + 1);
  if (!earlier[slot].has_value()) {
    annotation_seconds_ += result.annotation_seconds;
    earlier[slot] = std::move(result);
    return;
  }
  checker->Expect(SameResult(*earlier[slot], result),
                  label + ": differs from the same campaign in an earlier pass");
}

void ReportLibraryLayers(const SpanTotals& spans,
                         const kgacc::obs::MetricsSnapshot& metrics,
                         const LibraryTallies& tallies, Report* report) {
  const double draw = HistogramSum(metrics, "engine.round.sample_seconds");
  const double estimate =
      HistogramSum(metrics, "engine.round.estimate_seconds");
  const double stopping =
      HistogramSum(metrics, "engine.round.stopping_check_seconds");
  const double annotate = Get(spans.duration_s, "labels.annotate");
  report->Set("sampling.build_s", Get(spans.self_s, "design.run"), "s");
  report->Set("sampling.draw_s", draw, "s");
  report->Set("sampling.units", static_cast<double>(tallies.units), "count");
  report->Set("estimators.estimate_s", estimate, "s");
  report->Set("core.stopping_s", stopping, "s");
  report->Set("core.rounds", static_cast<double>(tallies.rounds), "count");
  report->Set("core.loop_s",
              Get(spans.self_s, "core.loop") - draw - estimate - stopping, "s");
  report->Set("core.incremental.init_s",
              Get(spans.self_s, "core.incremental.init"), "s");
  report->Set("core.incremental.update_s",
              Get(spans.self_s, "core.incremental.update"), "s");
  report->Set("kg.append_s", Get(spans.duration_s, "kg.append"), "s");
  report->Set("labels.annotate_s", annotate, "s");
  report->Set("labels.teardown_s", Get(spans.duration_s, "labels.teardown"),
              "s");
  const uint64_t lookups = CounterValue(metrics, "annotation.cache.lookups");
  const uint64_t hits = CounterValue(metrics, "annotation.cache.hits");
  const uint64_t parallel =
      CounterValue(metrics, "annotation.batch.parallel_count");
  const uint64_t sequential =
      CounterValue(metrics, "annotation.batch.sequential_count");
  report->Set("labels.lookups", static_cast<double>(lookups), "count");
  report->Set("labels.hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(lookups),
              "ratio");
  report->Set("labels.ns_per_lookup",
              lookups == 0 ? 0.0
                           : annotate * 1e9 / static_cast<double>(lookups),
              "ns");
  report->Set("labels.parallel_batch_share",
              parallel + sequential == 0
                  ? 0.0
                  : static_cast<double>(parallel) /
                        static_cast<double>(parallel + sequential),
              "ratio");
}

void LoopTracker::Attach(kgacc::EvaluationOptions* options) {
  if (spans_ != nullptr) options->telemetry = this;
}

void LoopTracker::BeginCampaign(const std::string& design,
                                const std::string& label) {
  (void)design;
  (void)label;
  if (loop_span_) loop_id_ = spans_->Begin("core.loop");
}

void LoopTracker::OnRound(const kgacc::CampaignRound& round) {
  last_units_ = round.units;
}

void LoopTracker::EndCampaign(bool converged) {
  (void)converged;
  if (loop_id_ >= 0) spans_->End(loop_id_);
  loop_id_ = -1;
}

bool TimedAnnotator::Annotate(const kgacc::TripleRef& ref) {
  ScopedSpan span(spans_, "labels.annotate");
  return inner_->Annotate(ref);
}

void TimedAnnotator::AnnotateBatch(std::span<const kgacc::TripleRef> refs,
                                   uint8_t* out) {
  ScopedSpan span(spans_, "labels.annotate");
  inner_->AnnotateBatch(refs, out);
}

BenchAnnotator::BenchAnnotator(const kgacc::TruthOracle* oracle, int threads,
                               SpanRecorder* spans)
    : inner_(oracle, kCost,
             kgacc::SimulatedAnnotator::Options{.annotation_threads = threads}) {
  if (spans != nullptr) {
    timed_ = std::make_unique<TimedAnnotator>(&inner_, spans);
  }
}

}  // namespace perfbench
