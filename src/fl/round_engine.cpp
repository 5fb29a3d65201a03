#include "fl/round_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "fl/run_report.hpp"
#include "obs/metrics.hpp"
#include "obs/round_report.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"

namespace fedca::fl {

namespace {

std::string fmt_num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return std::string(buf);
}

}  // namespace

RoundEngine::RoundEngine(nn::Classifier* model, sim::Cluster* cluster,
                         std::vector<data::Dataset> shards, Scheme* scheme,
                         RoundEngineOptions options, util::Rng rng)
    : model_(model),
      cluster_(cluster),
      scheme_(scheme),
      options_(options),
      trainer_("RoundEngine", model, cluster, std::move(shards), options.batch_size,
               options.worker_threads, rng, 0xB00C) {
  if (scheme_ == nullptr) {
    throw std::invalid_argument("RoundEngine: null dependency");
  }
  if (options_.local_iterations == 0) {
    throw std::invalid_argument("RoundEngine: local_iterations must be > 0");
  }
  if (options_.participation_fraction <= 0.0 || options_.participation_fraction > 1.0) {
    throw std::invalid_argument("RoundEngine: participation_fraction must be in (0, 1]");
  }
  selection_rng_ = rng.fork(0x5E1EC7);
  global_ = model_->state();
  // Injected crashes flush the flight recorder's last events per thread:
  // the engine is the component that interprets fault schedules, so it
  // owns wiring the obs dump hook into the sim-layer notification seam.
  sim::set_fault_dump_hook(&obs::flush_on_fault);
}

void RoundEngine::load_global_into_model() { model_->load(global_); }

RoundRecord RoundEngine::run_round() {
  trainer_.arm_trace(scheme_->name());
  RoundRecord record;
  record.round_index = round_index_;
  record.start_time = clock_;

  const RoundPlan plan = scheme_->plan_round(round_index_);
  record.deadline = plan.deadline;

  // Participant selection (all clients when participation_fraction == 1).
  std::vector<std::size_t> participants;
  if (options_.participation_fraction >= 1.0) {
    participants.resize(cluster_->size());
    for (std::size_t c = 0; c < cluster_->size(); ++c) participants[c] = c;
  } else {
    const auto quota = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(options_.participation_fraction *
                                              static_cast<double>(cluster_->size()))));
    participants = selection_rng_.sample_without_replacement(cluster_->size(), quota);
  }
  // Trace metadata for this round's cohort only, named before anything
  // (crash instants included) can mention a participant.
  trainer_.name_clients(participants);

  // Permanently crashed clients leave the population: they are not asked
  // to participate, so schemes never see them and the deadline estimator's
  // duration samples stay finite.
  const sim::FaultInjector* faults = cluster_->faults().get();
  if (faults != nullptr) {
    if (crash_reported_.size() < cluster_->size()) {
      crash_reported_.resize(cluster_->size(), 0);
    }
    std::vector<std::size_t> alive;
    alive.reserve(participants.size());
    for (const std::size_t c : participants) {
      if (!faults->crashed_at(c, clock_)) {
        alive.push_back(c);
        continue;
      }
      if (!crash_reported_[c]) {
        crash_reported_[c] = 1;
        FEDCA_MCOUNT("faults.crashes", 1.0);
        obs::TraceCollector& tracer = obs::TraceCollector::global();
        if (tracer.enabled()) {
          tracer.record_instant(client_pid(c), "fault.crash", clock_,
                                {{"client", std::to_string(c)},
                                 {"round", std::to_string(round_index_)}});
        }
        sim::notify_fault_dump();
      }
    }
    participants = std::move(alive);
  }

  // Availability dynamics: clients that are offline at round start (renewal
  // churn, diurnal modulation, correlated outages) are skipped for the
  // round, exactly as a production selector would fail to reach them. The
  // layer off (the default) leaves the participant list untouched.
  if (cluster_->availability_enabled()) {
    record.population = cluster_->size();
    std::vector<std::size_t> online;
    online.reserve(participants.size());
    for (const std::size_t c : participants) {
      if (cluster_->online_at(c, clock_)) online.push_back(c);
    }
    record.offline = participants.size() - online.size();
    if (record.offline > 0) {
      FEDCA_MCOUNT("population.offline_skips", static_cast<double>(record.offline));
    }
    participants = std::move(online);
  }

  // Per-participant round facts and policies, resolved serially in
  // participant order on this thread (policies are created on first use).
  std::vector<RoundInfo> infos(participants.size());
  std::vector<ClientPolicy*> policies(participants.size());
  for (std::size_t i = 0; i < participants.size(); ++i) {
    RoundInfo info;
    info.round_index = round_index_;
    info.start_time = clock_;
    info.deadline = (plan.deadline == kNoDeadline) ? kNoDeadline : clock_ + plan.deadline;
    info.planned_iterations = std::max<std::size_t>(
        1, scheme_->planned_iterations(participants[i], options_.local_iterations));
    info.nominal_iterations = options_.local_iterations;
    infos[i] = info;
    policies[i] = &scheme_->client_policy(participants[i]);
  }

  record.clients.resize(participants.size());

  // Round-relative upload cut-off, fixed before training starts (it only
  // depends on the round start time).
  const double timeout_cut = options_.upload_timeout == kNoDeadline
                                 ? kNoDeadline
                                 : record.start_time + options_.upload_timeout;
  // Streaming aggregation: the quorum selects the earliest arrivals as
  // slots land and frees every other payload on the spot instead of
  // buffering the whole cohort until selection.
  const std::size_t quota = collect_quota(record.clients.size(), options_.collect_fraction);
  StreamingQuorum quorum(&record.clients, quota, timeout_cut);

  // Every client trains a private replica seeded with the global weights
  // and the round-start buffer snapshot (for every worker count, so
  // batch-norm buffer semantics never depend on the schedule); results
  // land in pre-sized slots, so output is bit-identical for 1 or N workers.
  const std::vector<double> round_buffers = nn::capture_buffers(model_->backbone());
  std::vector<std::vector<double>> slot_buffers(participants.size());
  std::vector<char> slot_trained(participants.size(), 0);
  trainer_.run(participants.size(), [&](std::size_t i, nn::Classifier& replica) {
    if (!round_buffers.empty()) nn::load_buffers(replica.backbone(), round_buffers);
    bool trained = false;
    record.clients[i] =
        run_client(participants[i], infos[i], *policies[i], replica, &trained);
    if (trained && !round_buffers.empty()) {
      slot_buffers[i] = nn::capture_buffers(replica.backbone());
    }
    slot_trained[i] = trained ? 1 : 0;
    quorum.offer(i);
  });
  // The shared model keeps the buffers of the last participant that
  // trained — the same participant the serial schedule would leave them
  // from — regardless of how the slots were scheduled.
  if (!round_buffers.empty()) {
    for (std::size_t i = participants.size(); i-- > 0;) {
      if (slot_trained[i]) {
        nn::load_buffers(model_->backbone(), slot_buffers[i]);
        break;
      }
    }
  }

  // Per-client success metrics, emitted in participant order on this
  // thread: double-valued counter adds and histogram updates are
  // order-sensitive in the last ulps, so they must not race.
  for (const ClientRoundResult& r : record.clients) {
    if (r.failed || !std::isfinite(r.arrival_time)) continue;
    FEDCA_MCOUNT("engine.client_rounds", 1.0);
    FEDCA_MCOUNT("engine.bytes_sent", r.bytes_sent);
    FEDCA_MCOUNT("engine.retransmissions",
                 static_cast<double>(r.retransmitted_layers));
    FEDCA_MHISTO("engine.client_arrival_seconds", 0.0, 600.0, 60,
                 r.arrival_time - record.start_time);
    FEDCA_MHISTO("engine.client_iterations", 0.0,
                 static_cast<double>(std::max<std::size_t>(1, options_.local_iterations)),
                 32, static_cast<double>(r.iterations_run));
  }

  // Delivered uploads that missed the upload cut-off: the quorum already
  // excluded them; mark, count and trace them here, in participant order.
  obs::TraceCollector& tracer = obs::TraceCollector::global();
  for (ClientRoundResult& r : record.clients) {
    if (r.failed || !std::isfinite(r.arrival_time) || r.arrival_time <= timeout_cut) continue;
    r.outcome = ClientOutcome::kTimedOut;
    FEDCA_MCOUNT("engine.upload_timeouts", 1.0);
    if (tracer.enabled()) {
      tracer.record_instant(client_pid(r.client_id), "recovery.timeout_exclude",
                            timeout_cut,
                            {{"client", std::to_string(r.client_id)},
                             {"round", std::to_string(record.round_index)},
                             {"arrival", fmt_num(r.arrival_time)}});
    }
  }

  double quorum_time = clock_;
  std::vector<std::size_t> collected;  // indices into record.clients
  {
    // The server's real aggregation work happens here; the virtual clock
    // charges it nothing (the paper's server is never the bottleneck), so
    // it shows up as a wall-clock span plus a virtual instant.
    FEDCA_WALL_SPAN("server.aggregate");
    collected = quorum.collected();
    if (!collected.empty()) {
      const std::vector<double> weights =
          apply_aggregated_update(global_, record.clients, collected);
      for (std::size_t j = 0; j < collected.size(); ++j) {
        ClientRoundResult& r = record.clients[collected[j]];
        r.outcome = ClientOutcome::kCollected;
        r.collected_weight = weights[j];
        quorum_time = std::max(quorum_time, r.arrival_time);
      }
    }
  }
  double end_time = quorum_time;
  if (collected.empty()) {
    // Every participant failed (or timed out): the global model stands and
    // the round ends at a finite fallback time so the clock stays sane.
    double fallback = record.start_time;
    for (const ClientRoundResult& r : record.clients) {
      for (const double t :
           {r.arrival_time, r.compute_done, r.download_done, r.fail_time}) {
        if (std::isfinite(t)) fallback = std::max(fallback, t);
      }
    }
    end_time = timeout_cut != kNoDeadline ? std::min(timeout_cut, fallback)
                                          : fallback;
    end_time = std::max(end_time, record.start_time);
    FEDCA_MCOUNT("engine.rounds_empty", 1.0);
    if (tracer.enabled()) {
      tracer.record_instant(server_pid(), "recovery.empty_round", end_time,
                            {{"round", std::to_string(record.round_index)},
                             {"participants",
                              std::to_string(record.clients.size())}});
    }
  } else if (faults != nullptr || timeout_cut != kNoDeadline) {
    if (collected.size() < quota) {
      FEDCA_MCOUNT("engine.partial_rounds", 1.0);
      if (tracer.enabled()) {
        tracer.record_instant(server_pid(), "recovery.partial_aggregation",
                              end_time,
                              {{"round", std::to_string(record.round_index)},
                               {"collected", std::to_string(collected.size())},
                               {"planned", std::to_string(quota)}});
      }
    }
  }
  record.end_time = end_time;
  clock_ = end_time;
  ++round_index_;

  if (tracer.enabled()) {
    tracer.record_span(server_pid(), "round", record.start_time, record.end_time,
                       {{"round", std::to_string(record.round_index)},
                        {"deadline", fmt_num(record.deadline)},
                        {"collected", std::to_string(collected.size())},
                        {"participants", std::to_string(record.clients.size())}});
    tracer.record_span(server_pid(), "aggregate", record.end_time, record.end_time,
                       {{"round", std::to_string(record.round_index)},
                        {"updates", std::to_string(collected.size())}});
  }
  FEDCA_MCOUNT("engine.rounds", 1.0);
  FEDCA_MHISTO("engine.round_seconds", 0.0, 600.0, 60, record.duration());

  // Round attribution: one JSONL line per round, serialized from the
  // record on the main thread (virtual-clock data only), so the report is
  // bit-identical across worker counts and recorder on/off.
  obs::RoundReportWriter& reporter = obs::RoundReportWriter::global();
  if (reporter.enabled()) reporter.append_line(to_json_line(record));

  scheme_->observe_round(record);
  FEDCA_LOG_DEBUG("round_engine") << "round " << record.round_index << " done in "
                                  << record.duration() << "s (deadline "
                                  << record.deadline << ")";
  return record;
}

ClientRoundResult RoundEngine::run_client(std::size_t client_id, const RoundInfo& info,
                                          ClientPolicy& policy, nn::Classifier& model,
                                          bool* trained) {
  // The lease materializes a pooled device from the registry record and
  // commits link state back when it drops (including on every early return
  // below).
  sim::DeviceLease device_lease = cluster_->lease(client_id);
  sim::ClientDevice& device = *device_lease;
  const double bytes_per_param = model.info().bytes_per_actual_param();
  const double iteration_work = model.info().nominal_iteration_seconds;

  ClientRoundResult result;
  result.client_id = client_id;
  result.weight = static_cast<double>(trainer_.shard(client_id).size());
  result.planned_iterations = info.planned_iterations;

  // Optional lossy codec on everything this client uploads this round.
  const std::unique_ptr<UpdateCompressor> compressor =
      scheme_->make_compressor(client_id, info.round_index);

  obs::TraceCollector& tracer = obs::TraceCollector::global();
  const bool tracing = tracer.enabled();
  const std::uint32_t pid = client_pid(client_id);

  // Fault horizon for this round: the first virtual time >= round start at
  // which the client goes offline (crash or dropout window). Everything the
  // client does past that point is lost.
  const sim::FaultInjector* faults = cluster_->faults().get();
  double fail_time = kNoDeadline;
  ClientOutcome fail_kind = ClientOutcome::kDropout;
  if (faults != nullptr) {
    const double off = faults->next_offline(client_id, info.start_time);
    if (std::isfinite(off)) {
      fail_time = off;
      fail_kind = faults->offline_kind(client_id, off) == sim::FaultKind::kCrash
                      ? ClientOutcome::kCrashed
                      : ClientOutcome::kDropout;
    }
  }
  // `kind` is one of the three fault outcomes.
  const auto fail = [&](double at, ClientOutcome kind) {
    result.failed = true;
    result.outcome = kind;
    result.fail_time = at;
    result.arrival_time = kNoDeadline;
    const char* name = kind == ClientOutcome::kCrashed       ? "fault.crash"
                       : kind == ClientOutcome::kLinkOutage ? "fault.link_outage"
                                                            : "fault.dropout";
    if (kind == ClientOutcome::kCrashed) {
      // A crash is a one-time event per client: the mid-round failure here
      // and the next round's participant exclusion must not both count it.
      if (client_id < crash_reported_.size() && crash_reported_[client_id]) {
        return;
      }
      if (client_id < crash_reported_.size()) crash_reported_[client_id] = 1;
      FEDCA_MCOUNT("faults.crashes", 1.0);
    } else if (kind == ClientOutcome::kLinkOutage) {
      FEDCA_MCOUNT("faults.link_outages", 1.0);
    } else {
      FEDCA_MCOUNT("faults.dropouts", 1.0);
    }
    if (tracing && std::isfinite(at)) {
      tracer.record_instant(pid, name, at,
                            {{"client", std::to_string(client_id)},
                             {"round", std::to_string(info.round_index)}});
    }
    if (kind == ClientOutcome::kCrashed) {
      // Crash dump: persist the recorder rings — the last events every
      // thread saw, including the fault.crash instant just recorded — at
      // the moment the injected crash fires.
      sim::notify_fault_dump();
    }
  };

  // Offline at round start (mid-dropout window): the client misses the
  // round entirely — no transfers, no policy interaction.
  if (fail_time <= info.start_time) {
    result.download_done = info.start_time;
    result.compute_done = info.start_time;
    fail(info.start_time, fail_kind);
    return result;
  }

  // 1. Download the global model.
  const double model_bytes =
      static_cast<double>(global_.numel()) * bytes_per_param + options_.upload_header_bytes;
  const sim::Transfer download = device.downlink().transmit(info.start_time, model_bytes);
  result.download_done = download.end;
  if (!std::isfinite(download.end)) {
    // The downlink is in a permanent outage: the model never arrives.
    result.compute_done = info.start_time;
    fail(info.start_time, ClientOutcome::kLinkOutage);
    return result;
  }
  if (download.end > fail_time) {
    // Client went offline while the model was still in flight.
    result.compute_done = fail_time;
    fail(fail_time, fail_kind);
    return result;
  }
  if (tracing) {
    tracer.record_span(pid, "download", info.start_time, download.end,
                       {{"bytes", fmt_num(model_bytes)},
                        {"round", std::to_string(info.round_index)}});
  }

  // 2. Local training, on the client's loader stream resumed where its
  // previous round stopped.
  data::BatchLoader loader = trainer_.open_loader(client_id);
  model.load(global_);
  model.set_training(true);
  *trained = true;  // at least one SGD step always runs past this point
  nn::SgdOptions opt_options = scheme_->local_optimizer(options_.optimizer);
  nn::SgdOptimizer optimizer(model.parameters(), opt_options);
  if (opt_options.prox_mu != 0.0) optimizer.capture_prox_anchor();
  const double base_lr = opt_options.learning_rate;

  policy.on_round_start(info, global_);

  const double train_start = download.end;
  double t = train_start;
  double loss_sum = 0.0;
  std::size_t iterations = 0;
  bool stopped_early = false;

  const std::vector<nn::Parameter*>& params = model.parameters();
  // Flat flag array instead of a hash set: one allocation, O(1) queries.
  std::vector<char> eager_sent(params.size(), 0);

  bool interrupted = false;
  for (std::size_t tau = 1; tau <= info.planned_iterations; ++tau) {
    const double iter_start = t;
    {
      FEDCA_KERNEL_SPAN("sgd.step");
      // Reference into the loader's reused batch storage — no per-iteration
      // gather allocation.
      const data::Batch& batch = loader.next_batch();
      loss_sum += model.compute_gradients(batch.inputs, batch.labels);
      optimizer.step();
    }
    t = device.compute_finish(t, iteration_work);
    if (t > fail_time) {
      // The iteration in progress when the client went offline never
      // completes; its work (and everything before it) is lost.
      interrupted = true;
      t = fail_time;
      break;
    }
    iterations = tau;
    if (tracing) {
      tracer.record_span(pid, "iter", iter_start, t,
                         {{"tau", std::to_string(tau)},
                          {"round", std::to_string(info.round_index)}});
    }

    IterationView view;
    view.iteration = tau;
    view.now = t;
    view.train_start = train_start;
    view.round = &info;
    view.round_start = &global_;
    view.model = &model.backbone();
    const IterationDecision decision = policy.after_iteration(view);

    if (!decision.eager_layers.empty()) {
      result.eager.reserve(result.eager.size() + decision.eager_layers.size());
    }
    for (const std::size_t layer : decision.eager_layers) {
      if (layer >= params.size()) {
        throw std::logic_error("policy requested eager transmission of bad layer index");
      }
      if (eager_sent[layer]) continue;  // at most once per round
      eager_sent[layer] = 1;
      EagerRecord eager;
      eager.layer = layer;
      eager.iteration = tau;
      tensor::sub_into(params[layer]->value, global_.tensors[layer], eager.value);
      double layer_bytes;
      if (options_.eager_wire == EagerWire::kInt8) {
        // Quantized eager wire: int8 codes replace the scheme codec on
        // this path only; the final upload (and any retransmission) stays
        // on the scheme codec, so error feedback absorbs the residual.
        Int8Quantizer int8_codec;
        layer_bytes = int8_codec.compress(eager.value, bytes_per_param);
      } else {
        layer_bytes =
            compressor ? compressor->compress(eager.value, bytes_per_param)
                       : static_cast<double>(eager.value.numel()) * bytes_per_param;
      }
      const sim::Transfer transfer = device.uplink().transmit(t, layer_bytes);
      eager.send_time = transfer.start;
      eager.arrival_time = transfer.end;
      result.bytes_sent += layer_bytes;
      result.eager_bytes += layer_bytes;
      FEDCA_MCOUNT("engine.eager_transmissions", 1.0);
      if (faults != nullptr) {
        // Seeded in-flight loss/corruption of the eager payload. Either
        // way the server discards it (corruption is caught by checksum),
        // and the layer is force-retransmitted with the final upload.
        const sim::EagerFault ef =
            faults->eager_fault(client_id, info.round_index, layer);
        if (ef == sim::EagerFault::kLost) {
          eager.lost = true;
          FEDCA_MCOUNT("faults.eager_lost", 1.0);
          if (tracing && std::isfinite(transfer.end)) {
            tracer.record_instant(pid, "fault.eager_lost", transfer.end,
                                  {{"client", std::to_string(client_id)},
                                   {"layer", std::to_string(layer)},
                                   {"round", std::to_string(info.round_index)}});
          }
        } else if (ef == sim::EagerFault::kTruncated) {
          eager.truncated = true;
          FEDCA_MCOUNT("faults.eager_truncated", 1.0);
          if (tracing && std::isfinite(transfer.end)) {
            tracer.record_instant(pid, "fault.eager_truncated", transfer.end,
                                  {{"client", std::to_string(client_id)},
                                   {"layer", std::to_string(layer)},
                                   {"round", std::to_string(info.round_index)}});
          }
        }
      }
      result.eager.push_back(std::move(eager));
    }

    if (decision.lr_scale != 1.0) {
      if (decision.lr_scale <= 0.0) {
        throw std::logic_error("policy requested non-positive lr_scale");
      }
      optimizer.set_learning_rate(base_lr * decision.lr_scale);
    }

    if (decision.stop && tau < info.planned_iterations) {
      stopped_early = true;
      if (tracing) {
        obs::TraceArgs args{{"tau", std::to_string(tau)},
                            {"round", std::to_string(info.round_index)}};
        for (const auto& [key, value] : decision.trace_annotations) {
          args.emplace_back(key, fmt_num(value));
        }
        tracer.record_instant(pid, "early_stop", t, std::move(args));
      }
      FEDCA_MCOUNT("engine.early_stops", 1.0);
      break;
    }
  }
  trainer_.save_loader(client_id, loader);
  result.iterations_run = iterations;
  result.early_stopped = stopped_early;
  result.compute_done = t;
  result.compute_seconds = t - train_start;
  if (tracing) {
    tracer.record_span(pid, "compute", train_start, t,
                       {{"iterations", std::to_string(iterations)},
                        {"planned", std::to_string(info.planned_iterations)},
                        {"early_stopped", stopped_early ? "1" : "0"},
                        {"round", std::to_string(info.round_index)}});
  }
  result.mean_local_loss = iterations > 0 ? loss_sum / static_cast<double>(iterations) : 0.0;

  if (interrupted) {
    // Training was cut short by a dropout/crash: nothing is uploaded and
    // the server never hears from this client this round.
    fail(fail_time, fail_kind);
    policy.on_round_end(info);
    return result;
  }

  // 3. Final update, retransmission selection, and upload. Captured and
  // subtracted in place — no intermediate ModelState materialization.
  nn::ModelState final_update;
  nn::capture_state_into(params, final_update);
  nn::state_sub_inplace(final_update, global_);
  const std::vector<std::size_t> retrans =
      policy.select_retransmissions(final_update, result.eager);
  std::vector<char> retrans_flags(params.size(), 0);
  for (const std::size_t layer : retrans) {
    if (layer < retrans_flags.size()) retrans_flags[layer] = 1;
  }
  // Recovery: an eager payload lost or corrupted in flight must ride the
  // final upload no matter what the Eq. 6 error-feedback check decided —
  // the server has nothing usable for that layer.
  for (const EagerRecord& eager : result.eager) {
    if ((eager.lost || eager.truncated) && !retrans_flags[eager.layer]) {
      retrans_flags[eager.layer] = 1;
      FEDCA_MCOUNT("engine.fault_retransmissions", 1.0);
      if (tracing) {
        tracer.record_instant(pid, "recovery.eager_retransmit", t,
                              {{"client", std::to_string(client_id)},
                               {"layer", std::to_string(eager.layer)},
                               {"round", std::to_string(info.round_index)}});
      }
    }
  }
  for (EagerRecord& eager : result.eager) {
    if (retrans_flags[eager.layer]) {
      eager.retransmitted = true;
      ++result.retransmitted_layers;
    }
  }

  double final_bytes = options_.upload_header_bytes;
  for (std::size_t layer = 0; layer < final_update.tensors.size(); ++layer) {
    const bool eagerly_sent = eager_sent[layer] != 0;
    const bool retransmit = retrans_flags[layer] != 0;
    if (!eagerly_sent || retransmit) {
      if (compressor) {
        // The codec rewrites the layer to its decoded values: that is what
        // the server will apply.
        final_bytes += compressor->compress(final_update.tensors[layer], bytes_per_param);
      } else {
        final_bytes +=
            static_cast<double>(final_update.tensors[layer].numel()) * bytes_per_param;
      }
    }
  }
  const sim::Transfer upload = device.uplink().transmit(t, final_bytes);
  result.bytes_sent += final_bytes;
  result.arrival_time = upload.end;
  if (tracing) {
    // Eager uploads are recorded here (not at trigger time) so the span
    // carries the Eq. 6 retransmission verdict.
    for (const EagerRecord& eager : result.eager) {
      if (!std::isfinite(eager.arrival_time)) continue;
      tracer.record_span(pid, "upload.eager", eager.send_time, eager.arrival_time,
                         {{"layer", std::to_string(eager.layer)},
                          {"iteration", std::to_string(eager.iteration)},
                          {"retransmitted", eager.retransmitted ? "1" : "0"},
                          {"round", std::to_string(info.round_index)}});
    }
    if (std::isfinite(upload.end)) {
      tracer.record_span(pid, "upload.final", upload.start, upload.end,
                         {{"bytes", fmt_num(final_bytes)},
                          {"retransmitted_layers",
                           std::to_string(result.retransmitted_layers)},
                          {"round", std::to_string(info.round_index)}});
    }
  }
  if (!std::isfinite(upload.end)) {
    // Permanent uplink outage: the update never reaches the server.
    fail(t, ClientOutcome::kLinkOutage);
    policy.on_round_end(info);
    return result;
  }
  if (upload.end > fail_time) {
    // The client went offline with the final upload still in flight.
    fail(fail_time, fail_kind);
    policy.on_round_end(info);
    return result;
  }
  // Success metrics (counters + histograms) are emitted by run_round in
  // participant order — double-valued metric updates must not race.

  // 4. The update the server applies: eager values stand unless the layer
  // was retransmitted (in which case the exact final value arrives).
  result.applied_update = std::move(final_update);
  for (const EagerRecord& eager : result.eager) {
    if (!eager.retransmitted) {
      result.applied_update.tensors[eager.layer] = eager.value;
    }
  }

  policy.on_round_end(info);
  return result;
}

}  // namespace fedca::fl
