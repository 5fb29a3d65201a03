// FedAda baseline, reimplemented from the FedCA paper's description.
//
// FedAda (Zhang et al., WWW 2022) is the paper's strongest baseline: "the
// FL server adaptively adjusts the intra-round workloads of the straggling
// clients", "assuming homogeneous statistical contribution for each
// iteration", with "the trade-off factor between computation cost and
// statistical benefit set to the recommended value 0.5" (Secs. 2.2, 3.1,
// 5.1). The defining contrasts with FedCA:
//   * decisions are made on the *server* from cross-round speed estimates —
//     a client slowed mid-round still runs its pre-assigned budget;
//   * every iteration is assumed equally valuable, so workload scaling is
//     linear in time with no curve knowledge.
//
// Our reconstruction: the server estimates each client's per-iteration
// seconds from its recent rounds and sets
//     K_i = clamp(round(w * K + (1 - w) * T_R / est_i), K_min, K)
// with w the 0.5 trade-off factor — a blend between the full statistical
// budget (benefit term) and the largest workload that fits the
// FedBalancer-style deadline (cost term). Fast clients keep K; stragglers
// are trimmed toward deadline-fitting workloads.
#pragma once

#include <map>

#include "fl/deadline.hpp"
#include "fl/scheme.hpp"

namespace fedca::fl {

struct FedAdaOptions {
  // Trade-off factor between statistical benefit and computation cost.
  double tradeoff = 0.5;
  // Never trim a client below this fraction of K.
  double min_fraction = 0.2;
  // Rounds of speed history blended into the estimate (EWMA factor).
  double speed_ewma = 0.5;
};

class FedAdaScheme : public Scheme {
 public:
  explicit FedAdaScheme(FedAdaOptions options = {});

  std::string name() const override { return "FedAda"; }
  RoundPlan plan_round(std::size_t round_index) override;
  std::size_t planned_iterations(std::size_t client_id,
                                 std::size_t nominal_iterations) override;
  void observe_round(const RoundRecord& record) override;

  // Exposed for tests; <= 0 means unknown (the client never delivered).
  double estimated_iteration_seconds(std::size_t client_id) const;

 private:
  FedAdaOptions options_;
  DeadlineEstimator deadline_;
  // The current round's deadline T_R (kNoDeadline during warm-up).
  double round_deadline_ = kNoDeadline;
  // EWMA of observed seconds-per-iteration, for clients that delivered;
  // a missing entry or a value <= 0 means unknown.
  std::map<std::size_t, double> est_iter_seconds_;
};

}  // namespace fedca::fl
