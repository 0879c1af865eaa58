#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

constexpr size_t kMaxFailureMessages = 8;

}  // namespace

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool Checker::Expect(bool ok, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return true;
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (failures_.size() < kMaxFailureMessages) failures_.push_back(what);
  return false;
}

double Checker::ErrorRate() const {
  const uint64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(n);
}

std::vector<std::string> Checker::Failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

bool SameResult(const kgacc::EvaluationResult& a,
                const kgacc::EvaluationResult& b) {
  return a.design == b.design && SameBits(a.estimate.mean, b.estimate.mean) &&
         SameBits(a.estimate.variance_of_mean, b.estimate.variance_of_mean) &&
         a.estimate.num_units == b.estimate.num_units &&
         SameBits(a.moe, b.moe) && a.converged == b.converged &&
         a.rounds == b.rounds && a.suspended == b.suspended &&
         a.ledger.entities_identified == b.ledger.entities_identified &&
         a.ledger.triples_annotated == b.ledger.triples_annotated &&
         SameBits(a.annotation_seconds, b.annotation_seconds);
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a) + std::fabs(b));
}

void CheckCampaign(const kgacc::EvaluationResult& result, double moe_target,
                   const kgacc::CostModel& cost, const std::string& label,
                   Checker* checker) {
  checker->Expect(!result.converged || result.moe <= moe_target,
                  label + ": converged with moe above the target");
  checker->Expect(
      NearlyEqual(result.annotation_seconds,
                  cost.SampleCostSeconds(result.ledger.entities_identified,
                                         result.ledger.triples_annotated)),
      label + ": annotation_seconds != c1*entities + c2*triples");
}

}  // namespace perfbench
