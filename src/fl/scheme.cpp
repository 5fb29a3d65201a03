#include "fl/scheme.hpp"

#include <stdexcept>

namespace fedca::fl {

ClientPolicy& Scheme::client_policy(std::size_t client_id) {
  const auto it = policies_.find(client_id);
  if (it != policies_.end()) return *it->second;
  std::unique_ptr<ClientPolicy> policy = make_policy(client_id);
  if (!policy) return default_policy_;
  return *policies_.emplace(client_id, std::move(policy)).first->second;
}

CompressedScheme::CompressedScheme(std::unique_ptr<Scheme> inner, CompressionSpec spec,
                                   std::uint64_t seed)
    : inner_(std::move(inner)), spec_(std::move(spec)), seed_(seed) {
  if (!inner_) throw std::invalid_argument("CompressedScheme: null inner scheme");
  // Validate the spec eagerly by constructing one throwaway codec.
  (void)fl::make_compressor(spec_.kind, spec_.qsgd_levels, spec_.topk_fraction,
                            util::Rng(seed_));
}

std::string CompressedScheme::name() const {
  return inner_->name() + "+" + spec_.kind;
}

RoundPlan CompressedScheme::plan_round(std::size_t round_index) {
  return inner_->plan_round(round_index);
}

std::size_t CompressedScheme::planned_iterations(std::size_t client_id,
                                                 std::size_t nominal_iterations) {
  return inner_->planned_iterations(client_id, nominal_iterations);
}

std::unique_ptr<ClientPolicy> CompressedScheme::make_policy(std::size_t client_id) {
  return inner_->make_policy(client_id);
}

nn::SgdOptions CompressedScheme::local_optimizer(const nn::SgdOptions& base) {
  return inner_->local_optimizer(base);
}

void CompressedScheme::observe_round(const RoundRecord& record) {
  inner_->observe_round(record);
}

std::unique_ptr<UpdateCompressor> CompressedScheme::make_compressor(
    std::size_t client_id, std::size_t round_index) {
  // Per-(client, round) stream keeps stochastic quantization deterministic.
  util::Rng root(seed_);
  return fl::make_compressor(spec_.kind, spec_.qsgd_levels, spec_.topk_fraction,
                             root.fork(client_id * 100003 + round_index));
}

}  // namespace fedca::fl
