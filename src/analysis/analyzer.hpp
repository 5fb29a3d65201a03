// Pass orchestration, waiver application, and output formatting for
// fedca_analyze (the driver in tools/analyze/main.cpp stays thin: file
// discovery + argv only, so every behavior here is unit-testable).
#pragma once

#include <string>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/layering.hpp"
#include "analysis/source.hpp"

namespace fedca::analysis {

// Every rule fedca_analyze can emit, in reporting order. "waiver" findings
// (misused waivers) are themselves not waivable and are not listed.
const std::vector<std::string>& all_rules();
bool known_rule(const std::string& rule);

// Runs every pass over the lexed file set. `spec` may be null: layering and
// include-cycle checks are skipped (fixture trees without a spec).
std::vector<Finding> run_passes(const std::vector<SourceFile>& files,
                                const LayerSpec* spec);

// Applies `analyze:waive` annotations (comma-separated rule names in
// parens, in a comment): a finding is
// suppressed when a waiver for its rule sits on the finding's line or the
// line directly above (comment-only line). Misuse is itself reported under
// the `waiver` rule: naming an unknown rule, or a waiver that suppressed
// nothing (wrong line, or the violation it covered is gone — stale waivers
// rot into false documentation).
void apply_waivers(const std::vector<SourceFile>& files,
                   std::vector<Finding>& findings);

// Stable order (file, line, rule, message) + exact-duplicate removal.
void sort_findings(std::vector<Finding>& findings);

// "file:line: [rule] message"
std::string to_text(const Finding& f);
// JSON array of {"rule","file","line","message"} objects.
std::string to_json(const std::vector<Finding>& findings);

}  // namespace fedca::analysis
