// FedCA scheme: server half + per-client autonomous policies.
//
// The server's only FedCA-specific duties (Sec. 5.1) are to announce the
// FedBalancer-style deadline T_R together with the model at round start
// and to aggregate as usual — every optimization decision is made on the
// clients. The three ablation variants of Fig. 9 are configuration
// presets:
//   v1 — early-stop only;
//   v2 — early-stop + eager transmission, retransmission disabled;
//   v3 — the full mechanism (the default "FedCA").
#pragma once

#include <memory>
#include <string>

#include "core/fedca_policy.hpp"
#include "fl/deadline.hpp"
#include "fl/scheme.hpp"

namespace fedca::core {

enum class FedCaVariant { kV1, kV2, kV3 };

// Preset options per Fig. 9's ablation arms (on top of `base`).
FedCaOptions apply_variant(FedCaOptions base, FedCaVariant variant);

class FedCaScheme : public fl::Scheme {
 public:
  // `seed` decorrelates per-client profiler sampling.
  FedCaScheme(FedCaOptions options, FedCaVariant variant = FedCaVariant::kV3,
              std::uint64_t seed = 1);

  std::string name() const override;
  fl::RoundPlan plan_round(std::size_t round_index) override;
  std::unique_ptr<fl::ClientPolicy> make_policy(std::size_t client_id) override;
  void observe_round(const fl::RoundRecord& record) override;

  FedCaVariant variant() const { return variant_; }
  const FedCaOptions& options() const { return options_; }
  // Per-client policy access for tests/benches (profiler introspection);
  // throws std::out_of_range for a client that never participated.
  const FedCaClientPolicy& policy(std::size_t client_id) const;

 private:
  FedCaOptions options_;
  FedCaVariant variant_;
  std::uint64_t seed_;
  fl::DeadlineEstimator deadline_;
};

}  // namespace fedca::core
