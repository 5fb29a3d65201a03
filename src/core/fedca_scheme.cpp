#include "core/fedca_scheme.hpp"

#include <cmath>
#include <stdexcept>

namespace fedca::core {

// Variants restrict which mechanisms are PRESENT (Fig. 9's arms); they do
// not override an explicit early-stop opt-out (EarlyStopOptions defaults
// to enabled, which is what all three paper variants use).
FedCaOptions apply_variant(FedCaOptions base, FedCaVariant variant) {
  switch (variant) {
    case FedCaVariant::kV1:
      base.eager.enabled = false;
      break;
    case FedCaVariant::kV2:
      base.eager.enabled = true;
      base.eager.retransmit = false;
      break;
    case FedCaVariant::kV3:
      base.eager.enabled = true;
      base.eager.retransmit = true;
      break;
  }
  return base;
}

FedCaScheme::FedCaScheme(FedCaOptions options, FedCaVariant variant, std::uint64_t seed)
    : options_(apply_variant(options, variant)), variant_(variant), seed_(seed) {}

std::string FedCaScheme::name() const {
  std::string base = "FedCA";
  switch (variant_) {
    case FedCaVariant::kV1: base = "FedCA-v1"; break;
    case FedCaVariant::kV2: base = "FedCA-v2"; break;
    case FedCaVariant::kV3: base = "FedCA"; break;
  }
  if (options_.adaptive_lr.enabled) base += "+lr";
  return base;
}

fl::RoundPlan FedCaScheme::plan_round(std::size_t /*round_index*/) {
  fl::RoundPlan plan;
  plan.deadline = deadline_.estimate();
  return plan;
}

std::unique_ptr<fl::ClientPolicy> FedCaScheme::make_policy(std::size_t client_id) {
  return std::make_unique<FedCaClientPolicy>(options_,
                                             util::Rng(seed_).fork(0xCA << 8 | client_id));
}

void FedCaScheme::observe_round(const fl::RoundRecord& record) {
  std::vector<double> durations;
  durations.reserve(record.clients.size());
  for (const fl::ClientRoundResult& r : record.clients) {
    // Crashed/dropped clients (fault injection) never delivered; an
    // infinite duration sample would pin T_R at infinity forever.
    if (r.failed || !std::isfinite(r.arrival_time)) continue;
    durations.push_back(r.arrival_time - record.start_time);
  }
  deadline_.observe_round(durations);
}

const FedCaClientPolicy& FedCaScheme::policy(std::size_t client_id) const {
  return static_cast<const FedCaClientPolicy&>(created_policy(client_id));
}

}  // namespace fedca::core
