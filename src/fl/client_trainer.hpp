// Client-side training machinery shared by RoundEngine and AsyncEngine.
//
// Both engines train a client the same way, so the pieces live here once:
//
//   * the shard pool — client c reads shards[c % pool], 1 <= pool <= clients,
//     so million-client populations can share O(pool) data;
//   * loader state — a client's BatchLoader is rebuilt for each training
//     pass from the loader RNG's pure per-client fork
//     (fork(loader_stream + c)) and restored to the 16-byte (reshuffle
//     epoch, position) cursor the previous pass left behind: the exact
//     batch stream a persistent loader would deal, at O(cohort) live
//     loader memory;
//   * the replica free-list — every client trains on a private clone of
//     the shared model, recycled across jobs;
//   * dispatch — a batch of independent client jobs runs serially (one
//     worker or one job) or on the process-shared thread pool, falling
//     back to a trainer-owned pool when the requested worker count exceeds
//     it;
//   * trace processes — one server pid plus one per client
//     (pid = base + 1 + client), reserved when tracing is first seen armed;
//     clients are named as they appear (O(cohort) metadata, not
//     O(population)).
//
// Results are bit-identical for every worker count: RNG streams and loader
// cursors are per client, and callers write results into pre-sized slots.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "nn/models.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace fedca::fl {

class ClientTrainer {
 public:
  // `owner` prefixes validation errors ("RoundEngine: ..."). Throws
  // std::invalid_argument on a null model/cluster or a shard pool outside
  // [1, cluster size].
  ClientTrainer(const char* owner, nn::Classifier* model, sim::Cluster* cluster,
                std::vector<data::Dataset> shards, std::size_t batch_size,
                std::size_t worker_threads, util::Rng loader_rng,
                std::uint64_t loader_stream);

  const data::Dataset& shard(std::size_t client) const {
    return shards_[client % shards_.size()];
  }

  // Client `client`'s loader, positioned where its previous pass stopped.
  data::BatchLoader open_loader(std::size_t client) const;
  // Records where `loader` stopped, for the client's next open_loader().
  // Thread-safe for distinct clients.
  void save_loader(std::size_t client, const data::BatchLoader& loader);

  // Runs job(i, replica) for every i in [0, jobs), each on a private model
  // replica (contents unspecified: the job loads what it trains from).
  // Jobs must be independent and write only their own result slots.
  void run(std::size_t jobs,
           const std::function<void(std::size_t, nn::Classifier&)>& job);

  // Bytes of live per-client loader state (the cursor array).
  std::size_t live_loader_bytes() const {
    return cursors_.capacity() * sizeof(data::BatchLoader::Cursor);
  }

  // Reserves the trace pids and names the server `<label>/server` the first
  // time it is called while the trace collector is armed. Returns whether
  // tracing is on.
  bool arm_trace(const std::string& label);
  // Names the given clients' trace processes `<label>/client <id>`; no-op
  // until arm_trace() has reserved the pids. Main thread only.
  void name_clients(std::span<const std::size_t> clients);
  bool trace_armed() const { return trace_armed_; }
  std::uint32_t server_pid() const { return trace_pid_base_; }
  std::uint32_t client_pid(std::size_t client) const {
    return trace_pid_base_ + 1 + static_cast<std::uint32_t>(client);
  }

 private:
  std::unique_ptr<nn::Classifier> acquire_replica();
  void release_replica(std::unique_ptr<nn::Classifier> replica);

  nn::Classifier* model_;
  std::size_t population_;
  std::vector<data::Dataset> shards_;
  std::size_t batch_size_;
  std::size_t worker_threads_;
  util::Rng loader_rng_;
  std::uint64_t loader_stream_;
  std::vector<data::BatchLoader::Cursor> cursors_;
  util::Mutex replica_mutex_;
  std::vector<std::unique_ptr<nn::Classifier>> replicas_ FEDCA_GUARDED_BY(replica_mutex_);
  std::unique_ptr<util::ThreadPool> own_pool_;
  std::string trace_label_;
  std::uint32_t trace_pid_base_ = 0;
  bool trace_armed_ = false;
};

}  // namespace fedca::fl
