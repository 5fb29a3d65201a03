// Cycling minibatch loader.
//
// FL local training runs a fixed number of iterations per round (K = 125
// in the paper), typically exceeding one epoch over a small non-IID shard;
// the loader therefore cycles: it deals shuffled epochs back-to-back,
// reshuffling at each epoch boundary with its own deterministic RNG stream.
#pragma once

#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace fedca::data {

class BatchLoader {
 public:
  // `batch_size` is clamped to the dataset size. Dataset must be nonempty.
  BatchLoader(const Dataset* dataset, std::size_t batch_size, util::Rng rng);

  // Next minibatch (always exactly batch_size examples; epochs wrap).
  Batch next();
  // Same sequence as next(), but returns a reference to an internal batch
  // whose storage is reused across calls — the allocation-free training
  // path. The reference is invalidated by the following next()/next_batch().
  const Batch& next_batch();

  std::size_t batch_size() const { return batch_size_; }
  // Batches per full pass over the shard (ceiling).
  std::size_t batches_per_epoch() const;

  // Compact resumable position: the loader's entire stream state is
  // (number of reshuffles so far, offset into the current epoch) because
  // every permutation is a deterministic function of the construction RNG.
  // A freshly constructed loader with the same dataset/batch_size/rng,
  // restore()d to a saved cursor, continues the exact batch sequence —
  // this is what lets the engines (fl::ClientTrainer) keep 16 bytes per
  // client instead of a live loader.
  struct Cursor {
    std::size_t epochs = 0;    // reshuffles performed (>= 1 once constructed)
    std::size_t position = 0;  // index into the current epoch's order
  };
  Cursor cursor() const { return Cursor{epochs_, cursor_}; }
  // Replays shuffles until the loader has performed `cursor.epochs`
  // reshuffles, then seeks to `cursor.position`. Must be called on a fresh
  // loader (constructed, never advanced) with cursor.epochs >= 1.
  void restore(const Cursor& cursor);

 private:
  void reshuffle();

  const Dataset* dataset_;
  std::size_t batch_size_;
  util::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
  std::size_t epochs_ = 0;  // reshuffle() calls so far
  std::vector<std::size_t> scratch_indices_;
  Batch batch_;
};

}  // namespace fedca::data
