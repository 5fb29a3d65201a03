#include "fl/fedada.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace fedca::fl {

FedAdaScheme::FedAdaScheme(FedAdaOptions options) : options_(options) {
  if (options_.tradeoff < 0.0 || options_.tradeoff > 1.0) {
    throw std::invalid_argument("FedAdaScheme: tradeoff must be in [0, 1]");
  }
  if (options_.min_fraction <= 0.0 || options_.min_fraction > 1.0) {
    throw std::invalid_argument("FedAdaScheme: min_fraction must be in (0, 1]");
  }
}

RoundPlan FedAdaScheme::plan_round(std::size_t /*round_index*/) {
  RoundPlan plan;
  plan.deadline = deadline_.estimate();
  round_deadline_ = plan.deadline;
  return plan;
}

std::size_t FedAdaScheme::planned_iterations(std::size_t client_id,
                                             std::size_t nominal_iterations) {
  if (round_deadline_ == kNoDeadline) return nominal_iterations;  // warm-up
  const double est = estimated_iteration_seconds(client_id);
  if (est <= 0.0) return nominal_iterations;  // no knowledge yet; full workload
  const auto K = static_cast<double>(nominal_iterations);
  const auto k_min = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(options_.min_fraction * K)));
  const double fits_deadline = round_deadline_ / est;
  const double blended =
      options_.tradeoff * K + (1.0 - options_.tradeoff) * fits_deadline;
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::llround(blended)), k_min,
                                 nominal_iterations);
}

void FedAdaScheme::observe_round(const RoundRecord& record) {
  std::vector<double> durations;
  durations.reserve(record.clients.size());
  for (const ClientRoundResult& r : record.clients) {
    // Failed clients (fault injection) never delivered: their infinite
    // arrival would poison the deadline estimate and the speed EWMA.
    if (r.failed || !std::isfinite(r.arrival_time)) continue;
    durations.push_back(r.arrival_time - record.start_time);
    if (r.iterations_run > 0) {
      const double per_iter = r.compute_seconds / static_cast<double>(r.iterations_run);
      double& est = est_iter_seconds_.try_emplace(r.client_id, -1.0).first->second;
      est = (est <= 0.0) ? per_iter
                         : options_.speed_ewma * per_iter + (1.0 - options_.speed_ewma) * est;
    }
  }
  deadline_.observe_round(durations);
}

double FedAdaScheme::estimated_iteration_seconds(std::size_t client_id) const {
  const auto it = est_iter_seconds_.find(client_id);
  return it == est_iter_seconds_.end() ? -1.0 : it->second;
}

}  // namespace fedca::fl
