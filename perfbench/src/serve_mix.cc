// serve-mix: a closed loop of three client connections against an
// in-process GraphStore / SessionManager / CampaignScheduler / ServeServer,
// reached over loopback with ServeClient and the serve/protocol.h builders.
//
//  - Two interactive clients each open a fresh connection per campaign on
//    nell (twcs, MoE 0.01, batch_units 5), alternate `step` and
//    `query-estimate` with a `stream-trace` on every 8th request, suspend
//    once mid-campaign and resume from the returned campaign_state blob.
//  - One fleet client drives the scheduler (greedy-ci, at most 4 resident
//    sessions): it sets a budget, starts 8 tenant campaigns on nell and yago
//    (two of them reuse pairs), polls tenant-status until they are done,
//    stops them and repeats.
//
// On nell a round computes in microseconds, so the time goes to the serve
// layer (protocol, SessionManager, the step handoff, the socket), to
// state_io replay and to the scheduler. Every campaign's final estimate,
// round count and ledger must equal a library DesignRegistry::Run with the
// same design, options and seed.

#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/design_registry.h"
#include "datasets/registry.h"
#include "serve/graph_store.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/serve_client.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "util/json.h"
#include "util/string_util.h"
#include "workload.h"

namespace perfbench {
namespace {

using kgacc::serve::ServeClient;
namespace protocol = kgacc::serve;

constexpr int kInteractiveClients = 2;
constexpr int kFleetActor = kInteractiveClients;
/// The script is fixed work sized from --seconds, not a deadline: the daemon
/// keeps every session it served, so its memory grows with the campaigns
/// run, and a deadline would make a faster daemon look like a memory
/// regression. At these rates a script takes about --seconds on a 4-core
/// machine whose reference kernel runs 1.5 times slower than the reference
/// speed, a typical load on the shared machine the benchmark was tuned on.
/// Every campaign has its own seed.
constexpr double kInteractiveCampaignsPerSecond = 6.0;  // per client.
constexpr double kFleetCyclesPerSecond = 7.0;
constexpr uint64_t kSuspendAfterSteps = 40;
constexpr uint64_t kMaxResidentSessions = 4;
/// Seeds cross the JSON protocol as numbers, exact only below 2^53.
constexpr uint64_t kJsonSeedMask = 0xffffffffULL;

/// One campaign and its library reference result.
struct Campaign {
  std::string graph;
  std::string design;
  double moe = 0.0;
  uint64_t batch_units = 10;
  uint64_t seed = 0;
  kgacc::EvaluationResult reference;

  std::string OptionsJson() const {
    return kgacc::StrFormat(
        "{\"moe_target\": %.17g, \"batch_units\": %llu, \"seed\": %llu}", moe,
        static_cast<unsigned long long>(batch_units),
        static_cast<unsigned long long>(seed));
  }
};

/// The 8 tenants of one fleet cycle: (graph, design, moe), with tenants 0/1
/// and 4/5 sharing graph, design and seed, so one of each pair reuses the
/// labels the other bought.
struct TenantSpec {
  const char* graph;
  const char* design;
  double moe;
  int seed_slot;
};
constexpr TenantSpec kTenants[] = {
    {"nell", "twcs", 0.02, 0}, {"nell", "twcs", 0.02, 0},
    {"nell", "srs", 0.03, 1},  {"nell", "wcs", 0.02, 2},
    {"yago", "twcs", 0.01, 3}, {"yago", "twcs", 0.01, 3},
    {"yago", "srs", 0.01, 4},  {"nell", "rcs", 0.03, 5},
};

/// Per-client tallies for one phase; each client writes only its own.
struct ClientLog {
  std::vector<double> step_ms;
  std::vector<double> query_ms;
  std::vector<double> trace_ms;
  std::vector<double> resume_ms;
  uint64_t requests = 0;
  uint64_t campaigns = 0;
  double annotation_seconds = 0.0;  ///< interactive campaigns' served cost.
  uint64_t connections = 0;
};

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The daemon's objects, declared in kgacc_serve's order so they are
/// destroyed server first.
struct ServeStack {
  kgacc::serve::GraphStore graphs;
  std::unique_ptr<kgacc::serve::SessionManager> manager;
  std::unique_ptr<kgacc::serve::CampaignScheduler> scheduler;
  std::unique_ptr<kgacc::serve::ServeServer> server;

  ~ServeStack() {
    if (server != nullptr) server->Shutdown();
  }
};

class ServeMix : public Workload {
 public:
  ServeMix(const RunConfig& config, Checker* checker)
      : config_(config),
        checker_(checker),
        graph_seed_(kGraphSeed) {
    BuildReferences();
  }

  int Actors() const override { return kInteractiveClients + 1; }
  /// A set-up takes about a millisecond, so its median needs many.
  int SetupRepeats() const override { return 61; }
  /// Each request passes from a client thread to a server thread and on to
  /// the session's stepping thread and back, so a host that is slow to run
  /// woken threads slows this workload far more than the others.
  bool HandsOffRequests() const override { return true; }
  std::vector<uint64_t> FixedIterations(double seconds) const override {
    const uint64_t campaigns = static_cast<uint64_t>(
        std::ceil(seconds * kInteractiveCampaignsPerSecond));
    const uint64_t cycles =
        static_cast<uint64_t>(std::ceil(seconds * kFleetCyclesPerSecond));
    return {campaigns, campaigns, cycles};
  }

  void Setup(SpanRecorder* spans) override {
    (void)spans;
    stack_ = std::make_unique<ServeStack>();
    stack_->manager =
        std::make_unique<kgacc::serve::SessionManager>(&stack_->graphs);
    kgacc::serve::CampaignScheduler::Options options;
    options.policy = kgacc::serve::CampaignScheduler::Policy::kGreedyCi;
    options.max_resident_sessions = kMaxResidentSessions;
    stack_->scheduler = std::make_unique<kgacc::serve::CampaignScheduler>(
        &stack_->graphs, options);
    stack_->manager->AttachScheduler(stack_->scheduler.get());
    stack_->scheduler->StartLoop();
    stack_->server = std::make_unique<kgacc::serve::ServeServer>(
        stack_->manager.get(), 0);
    if (!checker_->Expect(stack_->server->Start().ok(), "server start")) {
      stack_.reset();
      return;
    }
    port_ = stack_->server->port();
    budget_seconds_ = 0.0;
    ServeClient client;
    if (!checker_->Expect(client.Connect(port_).ok(), "setup connect")) return;
    ClientLog log;
    for (const char* graph : {"nell", "yago"}) {
      Request(client, protocol::BuildLoadGraph(graph, graph_seed_),
              "serve.load_graph", nullptr, &log);
    }
  }

  void BeginPhase(SpanRecorder* spans) override {
    spans_ = spans;
    logs_.assign(static_cast<size_t>(Actors()), ClientLog{});
    grants_before_ =
        stack_ == nullptr ? 0 : stack_->scheduler->GrantLog().size();
    spent_before_ = stack_ == nullptr ? 0.0 : stack_->scheduler->SpentSeconds();
  }

  uint64_t Iterate(int actor, uint64_t iteration) override {
    if (stack_ == nullptr) return 0;
    return actor == kFleetActor ? FleetCycle(iteration)
                                : InteractiveCampaign(actor, iteration);
  }

  void ReportEndToEnd(const PhaseResult& phase, Report* report,
                      Checker* checker) override {
    const ClientLog all = Merged();
    report->Set("requests_per_s",
                static_cast<double>(all.requests) / phase.elapsed_s, "1/s");
    // Interactive sessions pay standalone; the fleet pays the Eq 4 cost of
    // the union of its tenants' labels. Both are functions of the seed.
    const double fleet_seconds =
        stack_ == nullptr ? 0.0
                          : stack_->scheduler->SpentSeconds() - spent_before_;
    report->Set("annotation_hours",
                (all.annotation_seconds + fleet_seconds) / 3600.0, "h");
    report->SetPercentile("step_p50_ms", all.step_ms, 0.50, checker);
    report->SetPercentile("step_p99_ms", all.step_ms, 0.99, checker);
    report->SetPercentile("query_p99_ms", all.query_ms, 0.99, checker);
    report->SetPercentile("trace_p99_ms", all.trace_ms, 0.99, checker);
    report->SetPercentile("resume_p50_ms", all.resume_ms, 0.50, checker);
  }

  void ReportLayers(const SpanTotals& spans,
                    const kgacc::obs::MetricsSnapshot& metrics,
                    Report* report) override {
    (void)spans;
    const ClientLog all = Merged();
    const double step_server =
        HistogramMedianMs(metrics, "serve.request.step_seconds");
    report->Set("serve.step.server_ms", step_server, "ms");
    report->Set("serve.query.server_ms",
                HistogramMedianMs(metrics, "serve.request.query_estimate_seconds"),
                "ms");
    report->Set("serve.trace.server_ms",
                HistogramMedianMs(metrics, "serve.request.stream_trace_seconds"),
                "ms");
    report->Set("serve.resume.server_ms",
                HistogramMedianMs(metrics, "serve.request.resume_seconds"),
                "ms");
    report->Set("serve.tenant_status.server_ms",
                HistogramMedianMs(metrics, "serve.request.tenant_status_seconds"),
                "ms");
    report->Set("serve.step.transport_ms", Median(all.step_ms) - step_server,
                "ms");
    report->Set("serve.connections", static_cast<double>(all.connections),
                "count");
    report->Set("sampling.draw_s",
                HistogramSum(metrics, "engine.round.sample_seconds"), "s");
    report->Set("estimators.estimate_s",
                HistogramSum(metrics, "engine.round.estimate_seconds"), "s");
    report->Set("core.stopping_s",
                HistogramSum(metrics, "engine.round.stopping_check_seconds"),
                "s");
    report->Set("core.rounds",
                static_cast<double>(CounterValue(metrics, "engine.rounds")),
                "count");
    report->Set("sched.select_s", HistogramSum(metrics, "sched.select_seconds"),
                "s");
    report->Set("sched.grants",
                static_cast<double>(CounterValue(metrics, "sched.grants")),
                "count");
    report->Set("sched.evictions",
                static_cast<double>(CounterValue(metrics, "sched.evictions")),
                "count");
    const std::vector<kgacc::serve::GrantRecord> grants =
        stack_->scheduler->GrantLog();
    uint64_t free = 0;
    for (size_t i = grants_before_; i < grants.size(); ++i) {
      if (grants[i].charged_seconds == 0.0) ++free;
    }
    const size_t phase_grants = grants.size() - grants_before_;
    report->Set("sched.free_grant_share",
                phase_grants == 0 ? 0.0
                                  : static_cast<double>(free) /
                                        static_cast<double>(phase_grants),
                "ratio");
  }

  void Release() override { stack_.reset(); }

 private:
  void BuildReferences() {
    std::map<std::string, std::unique_ptr<kgacc::Dataset>> datasets;
    for (const char* graph : {"nell", "yago"}) {
      kgacc::Result<kgacc::Dataset> made =
          kgacc::MakeDatasetByName(graph, graph_seed_);
      if (!checker_->Expect(made.ok(), "reference dataset")) return;
      datasets[graph] = std::make_unique<kgacc::Dataset>(std::move(made).value());
    }
    auto reference = [&](Campaign* campaign) {
      kgacc::EvaluationOptions options;
      options.moe_target = campaign->moe;
      options.batch_units = campaign->batch_units;
      options.seed = campaign->seed;
      const kgacc::Dataset& dataset = *datasets[campaign->graph];
      BenchAnnotator annotator(dataset.oracle.get(), 0, nullptr);
      kgacc::Result<kgacc::EvaluationResult> run =
          kgacc::DesignRegistry::Global().Run(campaign->design, dataset.View(),
                                              annotator.get(), options);
      if (checker_->Expect(run.ok(), "reference run")) {
        campaign->reference = std::move(run).value();
      }
    };
    auto seed = [&](uint64_t salt) {
      return DeriveSeed(config_.seed, salt) & kJsonSeedMask;
    };
    const std::vector<uint64_t> counts = FixedIterations(config_.seconds);
    for (uint64_t i = 0; i < kInteractiveClients * counts[0]; ++i) {
      Campaign campaign{"nell", "twcs", 0.01, 5, seed(1000 + i), {}};
      reference(&campaign);
      interactive_.push_back(std::move(campaign));
    }
    interactive_per_client_ = counts[0];
    for (uint64_t set = 0; set < counts[kFleetActor]; ++set) {
      std::vector<Campaign> tenants;
      double standalone_seconds = 0.0;
      for (const TenantSpec& spec : kTenants) {
        Campaign campaign{spec.graph, spec.design, spec.moe, 10,
                          seed(1u << 30 | set << 3 | spec.seed_slot), {}};
        reference(&campaign);
        standalone_seconds += campaign.reference.annotation_seconds;
        tenants.push_back(std::move(campaign));
      }
      fleet_sets_.push_back(std::move(tenants));
      // A budget no cycle can exhaust: the fleet never pays more than the
      // tenants would standalone.
      fleet_budget_seconds_.push_back(standalone_seconds + 1.0);
    }
  }

  /// Sends one request and records its latency in `latency_ms` (may be
  /// null). A transport error or an `"ok": false` response counts as a
  /// failed operation and returns nullopt.
  std::optional<std::string> Request(ServeClient& client,
                                     const std::string& request,
                                     const char* span_name,
                                     std::vector<double>* latency_ms,
                                     ClientLog* log) {
    ScopedSpan span(spans_, span_name);
    const Clock::time_point start = Clock::now();
    kgacc::Result<std::string> response = client.Call(request);
    const double ms = ElapsedMs(start);
    if (!checker_->Expect(response.ok(),
                          std::string(span_name) + ": transport error")) {
      return std::nullopt;
    }
    if (!checker_->Expect(response->rfind("{\"ok\": true", 0) == 0,
                          std::string(span_name) + ": " + *response)) {
      return std::nullopt;
    }
    if (latency_ms != nullptr) latency_ms->push_back(ms);
    ++log->requests;
    return std::move(response).value();
  }

  /// A top-level string field of a response line; empty when absent.
  std::string StringField(const std::string& line, const char* key) {
    kgacc::Result<kgacc::JsonValue> parsed = kgacc::JsonValue::Parse(line);
    if (!parsed.ok() || !parsed->is_object()) return "";
    const kgacc::JsonValue* value = parsed->Find(key);
    return value != nullptr && value->is_string() ? value->AsString() : "";
  }

  /// Compares a finished campaign's verbose query-estimate response with its
  /// library reference; returns the served annotation cost in seconds.
  double CheckFinal(const std::string& line, const Campaign& campaign,
                  const std::string& label) {
    kgacc::Result<kgacc::JsonValue> parsed = kgacc::JsonValue::Parse(line);
    if (!checker_->Expect(parsed.ok() && parsed->is_object(),
                          label + ": unparsable final estimate")) {
      return 0.0;
    }
    const kgacc::JsonValue& json = *parsed;
    const kgacc::EvaluationResult& ref = campaign.reference;
    auto number = [&](const char* key) {
      kgacc::Result<double> value = json.GetNumber(key);
      return value.ok() ? *value : std::nan("");
    };
    const kgacc::Result<bool> converged = json.GetBool("converged");
    const bool same =
        SameBits(number("estimate"), ref.estimate.mean) &&
        SameBits(number("moe"), ref.moe) &&
        number("rounds") == static_cast<double>(ref.rounds) &&
        number("triples_annotated") ==
            static_cast<double>(ref.ledger.triples_annotated) &&
        number("entities_identified") ==
            static_cast<double>(ref.ledger.entities_identified) &&
        SameBits(number("cost_seconds"), ref.annotation_seconds) &&
        converged.ok() && *converged == ref.converged;
    checker_->Expect(same, label + ": differs from the library run: " + line);
    kgacc::EvaluationResult served = ref;
    served.moe = number("moe");
    served.annotation_seconds = number("cost_seconds");
    CheckCampaign(served, campaign.moe, kCost, label, checker_);
    return served.annotation_seconds;
  }

  /// Returns 1 when the campaign finished and matched its reference run.
  uint64_t InteractiveCampaign(int actor, uint64_t iteration) {
    ClientLog& log = logs_[static_cast<size_t>(actor)];
    const Campaign& campaign =
        interactive_[static_cast<size_t>(actor) * interactive_per_client_ +
                     iteration];
    const std::string label = "serve-mix/interactive";
    ServeClient client;
    {
      ScopedSpan span(spans_, "serve.connect");
      if (!checker_->Expect(client.Connect(port_).ok(), label + ": connect")) {
        return 0;
      }
    }
    ++log.connections;
    std::optional<std::string> response =
        Request(client,
                protocol::BuildStartCampaign(campaign.graph, campaign.design,
                                             campaign.OptionsJson()),
                "serve.start", nullptr, &log);
    if (!response) return 0;
    std::string session = StringField(*response, "session");
    bool suspended = false;
    uint64_t steps = 0;
    for (uint64_t i = 0;; ++i) {
      if (!suspended && steps == kSuspendAfterSteps) {
        response = Request(client, protocol::BuildSuspend(session),
                           "serve.suspend", nullptr, &log);
        if (!response) return 0;
        const std::string blob = StringField(*response, "campaign_state");
        response = Request(client, protocol::BuildResumeState(blob),
                           "serve.resume", &log.resume_ms, &log);
        if (!response) return 0;
        session = StringField(*response, "session");
        suspended = true;
      }
      if (i % 8 == 7) {
        ScopedSpan span(spans_, "serve.trace");
        const Clock::time_point start = Clock::now();
        kgacc::Result<std::vector<std::string>> lines = client.CallMulti(
            protocol::BuildStreamTrace(session),
            protocol::StreamTraceExtraLines);
        const double ms = ElapsedMs(start);
        if (!checker_->Expect(lines.ok(), label + ": stream-trace")) return 0;
        log.trace_ms.push_back(ms);
        ++log.requests;
      } else if (i % 2 == 0) {
        response = Request(client, protocol::BuildStep(session, 1),
                           "serve.step", &log.step_ms, &log);
        if (!response) return 0;
        ++steps;
        if (response->find("\"state\": \"completed\"") != std::string::npos) {
          break;
        }
      } else {
        response = Request(client, protocol::BuildQueryEstimate(session),
                           "serve.query", &log.query_ms, &log);
        if (!response) return 0;
      }
    }
    response = Request(client, protocol::BuildQueryEstimate(session),
                       "serve.query", &log.query_ms, &log);
    if (!response) return 0;
    log.annotation_seconds += CheckFinal(*response, campaign, label);
    ++log.campaigns;
    return 1;
  }

  /// Returns the tenant campaigns finished.
  uint64_t FleetCycle(uint64_t cycle) {
    ClientLog& log = logs_[kFleetActor];
    const std::vector<Campaign>& tenants = fleet_sets_[cycle];
    const std::string label = "serve-mix/fleet";
    ServeClient client;
    {
      ScopedSpan span(spans_, "serve.connect");
      if (!checker_->Expect(client.Connect(port_).ok(), label + ": connect")) {
        return 0;
      }
    }
    ++log.connections;
    budget_seconds_ += fleet_budget_seconds_[cycle];
    if (!Request(client, protocol::BuildSetBudget(budget_seconds_),
                 "serve.set_budget", nullptr, &log)) {
      return 0;
    }
    std::vector<std::string> ids;
    for (const Campaign& tenant : tenants) {
      std::optional<std::string> response = Request(
          client,
          protocol::BuildStartTenantCampaign(tenant.graph, tenant.design,
                                             tenant.OptionsJson()),
          "serve.tenant_start", nullptr, &log);
      if (!response) return 0;
      ids.push_back(StringField(*response, "tenant"));
    }
    std::vector<bool> done(ids.size(), false);
    for (size_t pending = ids.size(); pending > 0;) {
      for (size_t t = 0; t < ids.size(); ++t) {
        if (done[t]) continue;
        std::optional<std::string> response =
            Request(client, protocol::BuildTenantStatus(ids[t]),
                    "serve.tenant_status", nullptr, &log);
        if (!response) return 0;
        const bool completed =
            response->find("\"state\": \"completed\"") != std::string::npos;
        const bool failed =
            response->find("\"state\": \"stopped\"") != std::string::npos ||
            response->find("\"state\": \"failed\"") != std::string::npos;
        if (!checker_->Expect(!failed, label + ": tenant ended " + *response)) {
          return 0;
        }
        if (completed) {
          done[t] = true;
          --pending;
        }
      }
    }
    for (size_t t = 0; t < ids.size(); ++t) {
      std::optional<std::string> response =
          Request(client, protocol::BuildQueryEstimate(ids[t]),
                  "serve.tenant_query", nullptr, &log);
      if (!response) return 0;
      CheckFinal(*response, tenants[t], label);
      ++log.campaigns;
    }
    for (const std::string& id : ids) {
      if (!Request(client, protocol::BuildStop(id), "serve.tenant_stop",
                   nullptr, &log)) {
        return 0;
      }
    }
    return ids.size();
  }

  ClientLog Merged() const {
    ClientLog all;
    for (const ClientLog& log : logs_) {
      for (auto [from, to] :
           {std::pair{&log.step_ms, &all.step_ms},
            std::pair{&log.query_ms, &all.query_ms},
            std::pair{&log.trace_ms, &all.trace_ms},
            std::pair{&log.resume_ms, &all.resume_ms}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
      all.requests += log.requests;
      all.annotation_seconds += log.annotation_seconds;
      all.campaigns += log.campaigns;
      all.connections += log.connections;
    }
    return all;
  }

  const RunConfig config_;
  Checker* checker_;
  const uint64_t graph_seed_;
  std::vector<Campaign> interactive_;
  uint64_t interactive_per_client_ = 0;
  std::vector<std::vector<Campaign>> fleet_sets_;
  std::vector<double> fleet_budget_seconds_;
  std::unique_ptr<ServeStack> stack_;
  int port_ = 0;
  SpanRecorder* spans_ = nullptr;
  std::vector<ClientLog> logs_;
  size_t grants_before_ = 0;
  double spent_before_ = 0.0;
  double budget_seconds_ = 0.0;   ///< fleet actor only.
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix(const RunConfig& config,
                                       Checker* checker) {
  return std::make_unique<ServeMix>(config, checker);
}

}  // namespace perfbench
