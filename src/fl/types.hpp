// Shared record types of the FL framework.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "nn/state.hpp"
#include "tensor/tensor.hpp"

namespace fedca::fl {

inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// What became of one participant's round. The round engine decides it
// once per client; the experiment result and the run report both read it.
// Mutually exclusive:
//   kCollected  — the update arrived in time and entered the aggregate
//   kShed       — arrived, but was not among the earliest arrivals the
//                 partial-aggregation quorum keeps
//   kTimedOut   — arrived after the upload timeout
//   kCrashed    — permanent injected crash before the update arrived
//   kDropout    — transient offline window swallowed the round's work
//   kLinkOutage — a transfer stalled forever on a dead link
// Early stopping is orthogonal (a collected client may have stopped early).
enum class ClientOutcome { kCollected, kShed, kTimedOut, kCrashed, kDropout, kLinkOutage };

// One eagerly transmitted layer (Sec. 4.3): which layer, when it was sent
// (iteration + virtual arrival time at the server), and the update value
// that went on the wire.
struct EagerRecord {
  std::size_t layer = 0;
  std::size_t iteration = 0;      // 1-based local iteration of transmission
  double send_time = 0.0;         // virtual time the transfer started
  double arrival_time = 0.0;      // virtual time it fully arrived
  tensor::Tensor value;           // transmitted per-layer update (w_tau - w_0)
  bool retransmitted = false;     // set after the Eq. 6 check
  bool lost = false;              // eager transfer lost in flight (fault)
  bool truncated = false;         // eager transfer corrupted in flight (fault)
};

// What one client contributed to one round, with full system accounting.
// This is the only per-client round record: run_experiment keeps it (with
// the update tensors released) and the run report serializes it.
struct ClientRoundResult {
  std::size_t client_id = 0;
  // The per-layer update the server will apply for this client (eager
  // values where they stand, final values elsewhere). Empty once the
  // quorum has released the payload.
  nn::ModelState applied_update;
  // Aggregation weight (local dataset size).
  double weight = 1.0;
  // Virtual time the server has the complete update.
  double arrival_time = 0.0;

  // --- bookkeeping for figures/tables ---
  std::size_t iterations_run = 0;
  std::size_t planned_iterations = 0;
  bool early_stopped = false;
  double download_done = 0.0;
  double compute_done = 0.0;       // end of last local iteration
  double compute_seconds = 0.0;    // compute_done - download_done
  double bytes_sent = 0.0;         // uplink payload incl. retransmissions
  double eager_bytes = 0.0;        // eager-transmission share of bytes_sent
  double mean_local_loss = 0.0;
  std::vector<EagerRecord> eager;  // one entry per eagerly transmitted layer
  std::size_t retransmitted_layers = 0;

  // --- fault accounting (all default when no injector is installed) ---
  bool failed = false;             // client never delivered a usable update
  double fail_time = kNoDeadline;  // virtual time the fault struck

  // --- the round's verdict on this client ---
  // run_client sets the fault outcomes and run_round the timeouts and the
  // quorum's picks; a delivered update left over is shed.
  ClientOutcome outcome = ClientOutcome::kShed;
  // Normalized aggregation weight when collected (0 otherwise); the
  // collected weights of a round sum to 1.
  double collected_weight = 0.0;
  bool collected() const { return outcome == ClientOutcome::kCollected; }
};

// Everything that happened in one round.
struct RoundRecord {
  std::size_t round_index = 0;
  double start_time = 0.0;
  double end_time = 0.0;           // server finished collecting the quorum
  double deadline = kNoDeadline;   // T_R announced at round start
  // Availability accounting (zero unless the cluster's availability layer
  // is on): total population size and how many sampled clients were
  // offline at round start and therefore skipped.
  std::size_t population = 0;
  std::size_t offline = 0;
  std::vector<ClientRoundResult> clients;   // every participant
  double duration() const { return end_time - start_time; }
};

// Accuracy trajectory sample (Fig. 7 / Table 1 raw data).
struct EvalPoint {
  std::size_t round_index = 0;
  double virtual_time = 0.0;   // at round end
  double accuracy = 0.0;
  double loss = 0.0;
};

}  // namespace fedca::fl
