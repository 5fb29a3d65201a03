#include "fl/client_trainer.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace fedca::fl {

ClientTrainer::ClientTrainer(const char* owner, nn::Classifier* model,
                             sim::Cluster* cluster, std::vector<data::Dataset> shards,
                             std::size_t batch_size, std::size_t worker_threads,
                             util::Rng loader_rng, std::uint64_t loader_stream)
    : model_(model),
      population_(cluster != nullptr ? cluster->size() : 0),
      shards_(std::move(shards)),
      batch_size_(batch_size),
      worker_threads_(worker_threads),
      loader_rng_(loader_rng),
      loader_stream_(loader_stream) {
  if (model_ == nullptr || cluster == nullptr) {
    throw std::invalid_argument(std::string(owner) + ": null dependency");
  }
  if (shards_.empty() || shards_.size() > population_) {
    throw std::invalid_argument(std::string(owner) + ": shard pool size " +
                                std::to_string(shards_.size()) +
                                " invalid for cluster size " +
                                std::to_string(population_));
  }
  cursors_.resize(population_);
}

data::BatchLoader ClientTrainer::open_loader(std::size_t client) const {
  data::BatchLoader loader(&shard(client), batch_size_,
                           loader_rng_.fork(loader_stream_ + client));
  const data::BatchLoader::Cursor& cur = cursors_[client];
  if (cur.epochs > 0 || cur.position > 0) loader.restore(cur);
  return loader;
}

void ClientTrainer::save_loader(std::size_t client, const data::BatchLoader& loader) {
  cursors_[client] = loader.cursor();
}

std::unique_ptr<nn::Classifier> ClientTrainer::acquire_replica() {
  {
    util::MutexLock lock(replica_mutex_);
    if (!replicas_.empty()) {
      std::unique_ptr<nn::Classifier> replica = std::move(replicas_.back());
      replicas_.pop_back();
      return replica;
    }
  }
  // Clone outside the lock: deep copies are the expensive part.
  return model_->clone();
}

void ClientTrainer::release_replica(std::unique_ptr<nn::Classifier> replica) {
  util::MutexLock lock(replica_mutex_);
  replicas_.push_back(std::move(replica));
}

void ClientTrainer::run(std::size_t jobs,
                        const std::function<void(std::size_t, nn::Classifier&)>& job) {
  const auto one = [&](std::size_t i) {
    std::unique_ptr<nn::Classifier> replica = acquire_replica();
    job(i, *replica);
    release_replica(std::move(replica));
  };
  const std::size_t workers = util::ThreadPool::resolve_workers(worker_threads_);
  if (workers <= 1 || jobs <= 1) {
    for (std::size_t i = 0; i < jobs; ++i) one(i);
    return;
  }
  // The process-shared pool when it is large enough, otherwise an owned
  // pool of `workers` threads, so explicit worker counts above the shared
  // pool's size still exercise real concurrency.
  util::ThreadPool* pool = &util::ThreadPool::shared();
  if (workers > pool->worker_count()) {
    if (!own_pool_ || own_pool_->worker_count() < workers) {
      own_pool_ = std::make_unique<util::ThreadPool>(workers);
    }
    pool = own_pool_.get();
  }
  pool->parallel_for_dynamic(jobs, one, workers);
}

bool ClientTrainer::arm_trace(const std::string& label) {
  obs::TraceCollector& tracer = obs::TraceCollector::global();
  if (!tracer.enabled()) return false;
  if (!trace_armed_) {
    trace_label_ = label;
    trace_pid_base_ =
        tracer.allocate_process_ids(static_cast<std::uint32_t>(population_) + 1);
    tracer.set_process_name(server_pid(), label + "/server");
    trace_armed_ = true;
  }
  return true;
}

void ClientTrainer::name_clients(std::span<const std::size_t> clients) {
  obs::TraceCollector& tracer = obs::TraceCollector::global();
  if (!trace_armed_ || !tracer.enabled()) return;
  for (const std::size_t c : clients) {
    tracer.set_process_name(client_pid(c), trace_label_ + "/client " + std::to_string(c));
  }
}

}  // namespace fedca::fl
