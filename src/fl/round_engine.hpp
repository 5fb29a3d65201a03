// The FL round engine: real local SGD interleaved with simulated time.
//
// One round, exactly as in FedAvg/Sec. 2.1 of the paper, with FedCA's
// client-autonomy hooks threaded through:
//
//   1. The server announces the round plan (deadline T_R) —
//      Scheme::plan_round — and each participant's iteration budget —
//      Scheme::planned_iterations.
//   2. Every participant downloads the global model over its rate-limited
//      downlink (virtual transfer time).
//   3. The client trains locally. Each iteration runs *actual* SGD on the
//      client's non-IID shard; its virtual duration comes from the
//      device's dynamic speed timeline. After every iteration the client's
//      policy may (a) eagerly transmit chosen layers — the engine
//      snapshots the current per-layer update and occupies the uplink,
//      overlapping the transfer with subsequent compute — or (b) stop.
//   4. At halt the policy selects retransmissions (error feedback); the
//      final upload carries all never-eagerly-sent layers plus the
//      retransmitted ones, and the server-side update substitutes eager
//      values for layers that were eagerly sent and not retransmitted.
//   5. The server aggregates the earliest `collect_fraction` of arrivals
//      (weighted FedAvg) and the round ends at that point in virtual time.
//
// Training is bit-deterministic in the experiment seed; virtual time never
// depends on host wall-clock.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "fl/aggregation.hpp"
#include "fl/client_trainer.hpp"
#include "fl/scheme.hpp"
#include "fl/types.hpp"
#include "nn/models.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace fedca::fl {

struct RoundEngineOptions {
  std::size_t local_iterations = 125;  // K
  std::size_t batch_size = 50;
  nn::SgdOptions optimizer;            // local SGD settings
  double collect_fraction = 0.9;       // server waits for this share
  double upload_header_bytes = 512.0;  // control framing per upload
  // Fraction of clients selected to participate each round (1.0 = all,
  // the paper's setting). Selection is uniform without replacement from
  // the engine's RNG stream.
  double participation_fraction = 1.0;
  // Round-relative cut-off for uploads: arrivals later than
  // round_start + upload_timeout are excluded from aggregation (the
  // survivors are re-weighted to sum to 1). kNoDeadline disables the
  // cut-off; the default keeps the fault-free behavior bit-identical.
  double upload_timeout = kNoDeadline;
  // Wire format for eager layer transmissions. kInt8 sends each eager
  // layer as int8 codes (per-layer scale + zero-point, ~4x fewer bytes);
  // the quantization residual is corrected by the ordinary error-feedback
  // retransmission path, whose final upload stays full-precision. kFp32
  // keeps the historical behavior (the scheme's codec, or raw float32).
  EagerWire eager_wire = EagerWire::kFp32;
  // Worker threads for concurrent client training: 0 resolves through the
  // FEDCA_THREADS environment variable (falling back to hardware
  // concurrency), 1 forces serial execution. Results are bit-identical for
  // every worker count: RNG streams are per-client, results land in
  // pre-sized slots, and aggregation runs in participant order on the main
  // thread.
  std::size_t worker_threads = 0;
};

class RoundEngine {
 public:
  // `model` is the shared training replica (global weights are kept in the
  // engine and loaded per client); `cluster` provides virtual devices;
  // `shards` is the shard pool: client c reads shards[c % shards.size()],
  // and the pool must hold between 1 and cluster-size shards.
  RoundEngine(nn::Classifier* model, sim::Cluster* cluster,
              std::vector<data::Dataset> shards, Scheme* scheme,
              RoundEngineOptions options, util::Rng rng);

  // Runs one full round, advances the virtual clock, applies aggregation
  // to the global state, and reports what happened.
  RoundRecord run_round();

  double now() const { return clock_; }
  std::size_t rounds_completed() const { return round_index_; }
  const nn::ModelState& global_state() const { return global_; }
  nn::Classifier& model() { return *model_; }
  const RoundEngineOptions& options() const { return options_; }
  // Loads the current global weights into the shared model replica (used
  // before evaluation).
  void load_global_into_model();
  // Bytes of live per-client loader state (the loader cursors) — scale
  // bench accounting.
  std::size_t live_loader_bytes() const { return trainer_.live_loader_bytes(); }

 private:
  // Trains one client, driven by its `policy`, on `model`, a private
  // replica. Sets *trained when at least one SGD step ran — the caller uses
  // it to decide whose batch-norm buffers survive the round.
  ClientRoundResult run_client(std::size_t client_id, const RoundInfo& info,
                               ClientPolicy& policy, nn::Classifier& model,
                               bool* trained);
  std::uint32_t server_pid() const { return trainer_.server_pid(); }
  std::uint32_t client_pid(std::size_t client_id) const {
    return trainer_.client_pid(client_id);
  }

  nn::Classifier* model_;
  sim::Cluster* cluster_;
  Scheme* scheme_;
  RoundEngineOptions options_;
  // Shard pool, loader cursors (stream base 0xB00C), replicas, dispatch.
  ClientTrainer trainer_;
  nn::ModelState global_;
  util::Rng selection_rng_;
  double clock_ = 0.0;
  std::size_t round_index_ = 0;
  // Per-client flag so a permanent crash is announced (instant + counter)
  // exactly once, the first round it takes effect.
  std::vector<char> crash_reported_;
};

}  // namespace fedca::fl
