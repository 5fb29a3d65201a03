// The run report (run_report.jsonl): per-round analytics serialized
// straight from the engines' own records.
//
// The tracer answers "what happened when"; the run report answers "who
// did what to the round": for every round, the deadline estimate T_R vs
// the realized client times, each client's ClientOutcome (collected /
// shed / timed out / crashed / dropout / link outage) with its early-stop
// moment, eager layers sent vs retransmitted, and a straggler
// classification (the slowest decile of realized durations, compared
// against T_R). The async engine contributes one line per applied or lost
// update with its staleness and mixing weight.
//
// Everything is measured on the *virtual* clock, so a report is
// bit-reproducible for a given seed regardless of worker count — which is
// what lets tools/report.py hold golden sha256 digests of whole runs.
//
// One self-describing JSON object per line, "type":"round" or
// "type":"async_update". The engines hand each line to
// obs::RoundReportWriter, the armed, flushed and crash-dumped sink.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fl/types.hpp"

namespace fedca::fl {

struct AsyncUpdateRecord;

// The outcome as the report spells it (collected, shed, timed_out,
// crashed, dropout, link_outage).
const char* outcome_name(ClientOutcome outcome);

// The derived fields of one round's report line. A client's realized
// duration is arrival − round start, infinite (null) when it never arrived.
struct RoundReportStats {
  // Clients per outcome.
  std::size_t collected = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  std::size_t crashed = 0;
  std::size_t dropout = 0;
  std::size_t link_outage = 0;
  std::size_t early_stops = 0;
  std::size_t eager_layers = 0;
  double eager_bytes = 0.0;  // summed over clients
  std::size_t retransmitted_layers = 0;
  double realized_p50 = kNoDeadline;  // nearest-rank percentiles of the
  double realized_p90 = kNoDeadline;  // realized (finite) durations
  double realized_max = kNoDeadline;
  double straggler_threshold = kNoDeadline;  // smallest straggler duration
  std::size_t stragglers = 0;
  bool deadline_overrun = false;  // realized_max > deadline
  // Per client, parallel to RoundRecord::clients.
  std::vector<char> straggler;      // slowest decile of realized durations
  std::vector<char> past_deadline;  // realized duration > deadline T_R
};

// Outcome tallies, percentiles of the realized durations, the
// slowest-decile straggler flags (max(1, ceil(n/10)) of n finite
// durations; ties broken toward lower client ids) and the deadline
// attribution.
RoundReportStats finalize_round_report(const RoundRecord& record);

// One report line (deterministic: %.10g numbers, non-finite values as
// null, fixed key order). The round line carries a `population`/`offline`
// pair only when the availability layer is on (population > 0).
std::string to_json_line(const RoundRecord& record);
// An async update line. `outcome` is "applied" or why the update was lost
// ("crash", "dropout", "link_outage", "timeout").
std::string to_json_line(const AsyncUpdateRecord& record, std::size_t update_index,
                         const char* outcome);

}  // namespace fedca::fl
