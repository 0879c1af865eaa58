#pragma once

// Output checks that hold for every seed. Each checked operation counts as
// attempted; a transport error, an `"ok": false` response or a failed check
// counts as failed.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "cost/cost_model.h"

namespace perfbench {

class Checker {
 public:
  /// Counts one attempted operation; records a failure when `ok` is false.
  /// Returns `ok`.
  bool Expect(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  double ErrorRate() const;

  /// The first few failure messages.
  std::vector<std::string> Failures() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
};

/// True when the two doubles have the same bits.
bool SameBits(double a, double b);

/// True when every field of the two results is bit-identical.
bool SameResult(const kgacc::EvaluationResult& a,
                const kgacc::EvaluationResult& b);

/// The seed-independent invariants of one finished campaign:
///  - a converged campaign has moe <= target;
///  - annotation_seconds == c1 * entities + c2 * triples (Eq 4).
/// Records one attempted operation per invariant.
void CheckCampaign(const kgacc::EvaluationResult& result, double moe_target,
                   const kgacc::CostModel& cost, const std::string& label,
                   Checker* checker);

/// Relative equality for sums of costs computed in a different order.
bool NearlyEqual(double a, double b);

}  // namespace perfbench
