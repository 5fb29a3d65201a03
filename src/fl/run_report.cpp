#include "fl/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "fl/async_engine.hpp"

namespace fedca::fl {

namespace {

// Deterministic, locale-independent number formatting: %.10g covers
// every value the engines produce without trailing noise, and non-finite
// values (unbounded deadlines, never-arrived clients) become JSON null.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return std::string(buf);
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

// Outcome names are fixed vocabulary, so they need no escaping.
std::string json_str(const char* s) { return std::string("\"") + s + '"'; }

// Nearest-rank percentile of an ascending-sorted vector.
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return kNoDeadline;
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

double realized_duration(const RoundRecord& record, const ClientRoundResult& client) {
  return std::isfinite(client.arrival_time) ? client.arrival_time - record.start_time
                                            : kNoDeadline;
}

}  // namespace

const char* outcome_name(ClientOutcome outcome) {
  switch (outcome) {
    case ClientOutcome::kCollected: return "collected";
    case ClientOutcome::kShed: return "shed";
    case ClientOutcome::kTimedOut: return "timed_out";
    case ClientOutcome::kCrashed: return "crashed";
    case ClientOutcome::kDropout: return "dropout";
    case ClientOutcome::kLinkOutage: return "link_outage";
  }
  return "unknown";
}

RoundReportStats finalize_round_report(const RoundRecord& record) {
  const std::vector<ClientRoundResult>& clients = record.clients;
  RoundReportStats s;
  s.straggler.assign(clients.size(), 0);
  s.past_deadline.assign(clients.size(), 0);
  std::vector<double> duration(clients.size());
  std::vector<std::size_t> finite;  // indices with a realized duration
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ClientRoundResult& c = clients[i];
    duration[i] = realized_duration(record, c);
    s.past_deadline[i] = std::isfinite(duration[i]) && std::isfinite(record.deadline) &&
                         duration[i] > record.deadline;
    switch (c.outcome) {
      case ClientOutcome::kCollected: ++s.collected; break;
      case ClientOutcome::kShed: ++s.shed; break;
      case ClientOutcome::kTimedOut: ++s.timed_out; break;
      case ClientOutcome::kCrashed: ++s.crashed; break;
      case ClientOutcome::kDropout: ++s.dropout; break;
      case ClientOutcome::kLinkOutage: ++s.link_outage; break;
    }
    if (c.early_stopped) ++s.early_stops;
    s.eager_layers += c.eager.size();
    s.eager_bytes += c.eager_bytes;
    s.retransmitted_layers += c.retransmitted_layers;
    if (std::isfinite(duration[i])) finite.push_back(i);
  }

  std::vector<double> sorted;
  sorted.reserve(finite.size());
  for (const std::size_t i : finite) sorted.push_back(duration[i]);
  std::sort(sorted.begin(), sorted.end());
  s.realized_p50 = nearest_rank(sorted, 0.5);
  s.realized_p90 = nearest_rank(sorted, 0.9);
  s.realized_max = sorted.empty() ? kNoDeadline : sorted.back();

  // Slowest decile = stragglers. Ties break toward lower client ids so
  // the classification is deterministic regardless of row order.
  if (!finite.empty()) {
    const std::size_t k = std::max<std::size_t>(1, (finite.size() + 9) / 10);
    std::vector<std::size_t> by_slowness = finite;
    std::sort(by_slowness.begin(), by_slowness.end(), [&](std::size_t a, std::size_t b) {
      if (duration[a] != duration[b]) return duration[a] > duration[b];
      return clients[a].client_id < clients[b].client_id;
    });
    for (std::size_t j = 0; j < k && j < by_slowness.size(); ++j) {
      const std::size_t i = by_slowness[j];
      s.straggler[i] = 1;
      ++s.stragglers;
      if (!std::isfinite(s.straggler_threshold) || duration[i] < s.straggler_threshold) {
        s.straggler_threshold = duration[i];
      }
    }
    s.deadline_overrun = std::isfinite(record.deadline) && s.realized_max > record.deadline;
  }
  return s;
}

std::string to_json_line(const RoundRecord& r) {
  const RoundReportStats s = finalize_round_report(r);
  std::string out = "{\"type\":\"round\"";
  out += ",\"round\":" + std::to_string(r.round_index);
  out += ",\"start\":" + json_num(r.start_time);
  out += ",\"end\":" + json_num(r.end_time);
  out += ",\"deadline\":" + json_num(r.deadline);
  out += ",\"participants\":" + std::to_string(r.clients.size());
  if (r.population > 0) {
    out += ",\"population\":" + std::to_string(r.population);
    out += ",\"offline\":" + std::to_string(r.offline);
  }
  out += ",\"collected\":" + std::to_string(s.collected);
  out += ",\"shed\":" + std::to_string(s.shed);
  out += ",\"timed_out\":" + std::to_string(s.timed_out);
  out += ",\"crashed\":" + std::to_string(s.crashed);
  out += ",\"dropout\":" + std::to_string(s.dropout);
  out += ",\"link_outage\":" + std::to_string(s.link_outage);
  out += ",\"early_stops\":" + std::to_string(s.early_stops);
  out += ",\"eager_layers\":" + std::to_string(s.eager_layers);
  out += ",\"eager_bytes\":" + json_num(s.eager_bytes);
  out += ",\"eager_retransmitted\":" + std::to_string(s.retransmitted_layers);
  out += ",\"realized_p50\":" + json_num(s.realized_p50);
  out += ",\"realized_p90\":" + json_num(s.realized_p90);
  out += ",\"realized_max\":" + json_num(s.realized_max);
  out += ",\"straggler_threshold\":" + json_num(s.straggler_threshold);
  out += ",\"stragglers\":" + std::to_string(s.stragglers);
  out += ",\"deadline_overrun\":";
  out += json_bool(s.deadline_overrun);
  out += ",\"clients\":[";
  for (std::size_t i = 0; i < r.clients.size(); ++i) {
    const ClientRoundResult& c = r.clients[i];
    if (i > 0) out += ',';
    out += "{\"client\":" + std::to_string(c.client_id);
    out += ",\"outcome\":" + json_str(outcome_name(c.outcome));
    out += ",\"iterations\":" + std::to_string(c.iterations_run);
    out += ",\"planned\":" + std::to_string(c.planned_iterations);
    out += ",\"early_stopped\":";
    out += json_bool(c.early_stopped);
    out += ",\"tau\":" + json_num(c.early_stopped ? c.compute_done : kNoDeadline);
    out += ",\"duration\":" + json_num(realized_duration(r, c));
    out += ",\"compute_seconds\":" + json_num(c.compute_seconds);
    out += ",\"bytes_sent\":" + json_num(c.bytes_sent);
    out += ",\"eager_layers\":" + std::to_string(c.eager.size());
    out += ",\"eager_bytes\":" + json_num(c.eager_bytes);
    out += ",\"eager_retransmitted\":" + std::to_string(c.retransmitted_layers);
    out += ",\"straggler\":";
    out += json_bool(s.straggler[i] != 0);
    out += ",\"past_deadline\":";
    out += json_bool(s.past_deadline[i] != 0);
    out += ",\"weight\":" + json_num(c.collected_weight);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string to_json_line(const AsyncUpdateRecord& r, std::size_t update_index,
                         const char* outcome) {
  std::string out = "{\"type\":\"async_update\"";
  out += ",\"update\":" + std::to_string(update_index);
  out += ",\"client\":" + std::to_string(r.client_id);
  out += ",\"arrival\":" + json_num(r.arrival_time);
  out += ",\"staleness\":" + std::to_string(r.staleness);
  out += ",\"weight\":" + json_num(r.weight);
  out += ",\"lost\":";
  out += json_bool(r.lost);
  out += ",\"outcome\":" + json_str(outcome);
  out += '}';
  return out;
}

}  // namespace fedca::fl
