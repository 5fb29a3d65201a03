// Scheme and client-policy interfaces — where FL algorithms plug in.
//
// A Scheme is the algorithm under test (FedAvg, FedProx, FedAda, FedCA,
// ...). It has a server half — per-round planning: the deadline and each
// participant's iteration cap — and a client half: one stateful
// ClientPolicy per client that observes every local iteration and may
// exercise the two client-autonomy levers the round engine exposes:
//   * stopping local training (computation optimization, Sec. 4.2), and
//   * eagerly transmitting chosen layers (communication optimization,
//     Sec. 4.3), plus end-of-round retransmission selection.
// Server-autocratic baselines simply leave the hooks at their defaults.
//
// Both halves are cohort-shaped: the engine asks only about the clients it
// selected, and a scheme's per-client policy is created by make_policy the
// first time that client participates, so per-client state is
// O(clients ever selected), never O(population).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fl/compression.hpp"
#include "fl/types.hpp"
#include "nn/module.hpp"
#include "nn/sgd.hpp"
#include "nn/state.hpp"

namespace fedca::fl {

// Immutable per-round facts a policy can rely on.
struct RoundInfo {
  std::size_t round_index = 0;
  double start_time = 0.0;          // virtual time of round start
  double deadline = kNoDeadline;    // absolute virtual deadline (start + T_R)
  std::size_t planned_iterations = 0;  // this client's iteration budget K_i
  std::size_t nominal_iterations = 0;  // the global default K
};

// Snapshot handed to ClientPolicy::after_iteration.
struct IterationView {
  std::size_t iteration = 0;        // 1-based tau, <= planned_iterations
  double now = 0.0;                 // virtual time at end of this iteration
  double train_start = 0.0;         // virtual time local training began
  const RoundInfo* round = nullptr;
  const nn::ModelState* round_start = nullptr;  // w_0 (global at download)
  nn::Module* model = nullptr;      // live local parameters (w_tau)

  // Local wall-clock spent training so far (t_{R,tau} of Eq. 3).
  double elapsed() const { return now - train_start; }
};

// What a policy wants after an iteration.
struct IterationDecision {
  bool stop = false;
  // Layer indices (into the model's parameter list) to transmit eagerly
  // right now. The engine snapshots the current per-layer update and
  // schedules the transfer; a layer may be eagerly sent at most once per
  // round (the engine enforces this).
  std::vector<std::size_t> eager_layers;
  // Multiplier on the round's base learning rate for the REMAINING local
  // iterations (1.0 = unchanged). This is the intra-round hyperparameter
  // autonomy sketched as future work in the paper's Sec. 6; the engine
  // applies it to the local optimizer immediately.
  double lr_scale = 1.0;
  // Observability annotations explaining this decision (e.g. FedCA's
  // b/c/n utility terms behind a stop). Policies fill this only when the
  // obs trace collector is armed; the engine attaches them to the emitted
  // trace events. Never read by the algorithm itself.
  std::vector<std::pair<std::string, double>> trace_annotations;
};

// Per-client, stateful across rounds (this is where FedCA's profiling
// memory lives).
class ClientPolicy {
 public:
  virtual ~ClientPolicy() = default;

  virtual void on_round_start(const RoundInfo& /*round*/,
                              const nn::ModelState& /*global*/) {}

  virtual IterationDecision after_iteration(const IterationView& /*view*/) {
    return {};
  }

  // Called once local training halted (at iteration F). `final_update` is
  // the complete per-layer accumulated update; `eager` lists the layers
  // sent early with the exact values that went out. Returns the layer
  // indices to retransmit (Eq. 6). Default: none.
  virtual std::vector<std::size_t> select_retransmissions(
      const nn::ModelState& /*final_update*/, const std::vector<EagerRecord>& /*eager*/) {
    return {};
  }

  virtual void on_round_end(const RoundInfo& /*round*/) {}
};

// Server-side per-round plan. Per-participant budgets come from
// Scheme::planned_iterations, so the plan carries nothing per client.
struct RoundPlan {
  // Round-relative deadline T_R handed to clients (kNoDeadline if none).
  double deadline = kNoDeadline;
};

// Thread-safety contract (parallel client training): the round engines
// resolve each participant's policy through client_policy(c) on the engine
// thread, before training starts; worker threads then drive the returned
// policy, with at most one thread per client id, and may call
// local_optimizer(...) and make_compressor(c, r) concurrently.
// Implementations must therefore (a) keep per-client state inside the
// per-client policy object, (b) make local_optimizer a pure function of its
// argument + immutable scheme config, and (c) derive any compressor
// randomness from (client_id, round_index) instead of drawing from a shared
// stream. client_policy, make_policy, plan_round, planned_iterations and
// observe_round are only ever called from the engine thread — server-side
// mutable state belongs there.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string name() const = 0;

  // Server-side planning at round start.
  virtual RoundPlan plan_round(std::size_t /*round_index*/) { return {}; }

  // Iteration budget K_i for participant `client_id` this round, called
  // after plan_round. Baselines run the global K everywhere; FedAda caps
  // stragglers.
  virtual std::size_t planned_iterations(std::size_t /*client_id*/,
                                         std::size_t nominal_iterations) {
    return nominal_iterations;
  }

  // Creates the policy for `client_id` the first time the client
  // participates. Policies must not depend on creation order (derive any
  // randomness from the client id). nullptr means the shared no-op policy;
  // it is stored nowhere, so the scheme asks again next time.
  virtual std::unique_ptr<ClientPolicy> make_policy(std::size_t /*client_id*/) {
    return nullptr;
  }

  // The policy instance driving client `client_id` (owned by the scheme),
  // created through make_policy on first use.
  ClientPolicy& client_policy(std::size_t client_id);

  // Local optimizer settings (FedProx raises prox_mu).
  virtual nn::SgdOptions local_optimizer(const nn::SgdOptions& base) { return base; }

  // Feedback after each round — schemes update their server knowledge
  // (deadline estimators, client speed estimates) here.
  virtual void observe_round(const RoundRecord& /*record*/) {}

  // Optional per-(client, round) update codec for quantization or
  // sparsification; nullptr means uncompressed float32 uploads. The engine
  // applies the codec to every transmitted layer (eager and final).
  virtual std::unique_ptr<UpdateCompressor> make_compressor(
      std::size_t /*client_id*/, std::size_t /*round_index*/) {
    return nullptr;
  }

 protected:
  // The policy make_policy created for `client_id`; throws
  // std::out_of_range if the client never participated.
  const ClientPolicy& created_policy(std::size_t client_id) const {
    return *policies_.at(client_id);
  }

 private:
  // A single default no-op policy shared by baseline schemes.
  ClientPolicy default_policy_;
  // Policies created so far, keyed by client id (non-null entries only).
  std::map<std::size_t, std::unique_ptr<ClientPolicy>> policies_;
};

// --- Baselines ---

// FedAvg (McMahan et al.): full K iterations, no deadline, plain SGD.
class FedAvgScheme : public Scheme {
 public:
  std::string name() const override { return "FedAvg"; }
};

// FedProx (Li et al.): FedAvg plus a proximal term mu/2 ||w - w_global||^2
// in the local objective.
class FedProxScheme : public Scheme {
 public:
  explicit FedProxScheme(double mu = 0.01) : mu_(mu) {}
  std::string name() const override { return "FedProx"; }
  nn::SgdOptions local_optimizer(const nn::SgdOptions& base) override {
    nn::SgdOptions opts = base;
    opts.prox_mu = mu_;
    return opts;
  }

 private:
  double mu_;
};

// Decorator adding update compression (quantization / sparsification) to
// any scheme — the "orthogonal methods" of the paper's Secs. 2.2 & 6.
// Delegates all algorithmic behaviour to the wrapped scheme.
class CompressedScheme : public Scheme {
 public:
  struct CompressionSpec {
    std::string kind = "qsgd";  // "qsgd" | "topk"
    std::size_t qsgd_levels = 128;
    double topk_fraction = 0.05;
  };

  CompressedScheme(std::unique_ptr<Scheme> inner, CompressionSpec spec,
                   std::uint64_t seed);

  std::string name() const override;
  RoundPlan plan_round(std::size_t round_index) override;
  std::size_t planned_iterations(std::size_t client_id,
                                 std::size_t nominal_iterations) override;
  std::unique_ptr<ClientPolicy> make_policy(std::size_t client_id) override;
  nn::SgdOptions local_optimizer(const nn::SgdOptions& base) override;
  void observe_round(const RoundRecord& record) override;
  std::unique_ptr<UpdateCompressor> make_compressor(std::size_t client_id,
                                                    std::size_t round_index) override;

 private:
  std::unique_ptr<Scheme> inner_;
  CompressionSpec spec_;
  std::uint64_t seed_;
};

}  // namespace fedca::fl
