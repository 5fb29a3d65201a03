#include "analysis/analyzer.hpp"

#include <algorithm>
#include <map>

#include "analysis/locks.hpp"
#include "analysis/rules.hpp"

namespace fedca::analysis {

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      "layering",          "include-cycle",    "lock-order",
      "lock-callback",     "raw-rng",          "unordered-iter",
      "wall-clock",        "raw-tensor-alloc", "raw-intrinsics",
      "client-container",  "unordered-float-accum", "pointer-key",
      "device-seam",       "fast-math",        "float-accum",
      "scenario-hardcode",
  };
  return kRules;
}

bool known_rule(const std::string& rule) {
  const auto& rules = all_rules();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::vector<Finding> run_passes(const std::vector<SourceFile>& files,
                                const LayerSpec* spec) {
  std::vector<Finding> findings;

  if (spec != nullptr) check_layering(files, *spec, findings);

  // Lock scopes and unordered-container tracking only matter in src/, and
  // src/ cannot include anything outside it, so only src/ files feed their
  // symbol tables (a test helper must not mark a src/ name).
  std::vector<const SourceFile*> src_files;
  for (const SourceFile& f : files) {
    if (f.rel_path.rfind("src/", 0) == 0) src_files.push_back(&f);
  }

  LockSymbols syms;
  for (const SourceFile* f : src_files) collect_callback_aliases(*f, syms);
  for (const SourceFile* f : src_files) collect_callback_invokers(*f, syms);
  for (const SourceFile* f : src_files) collect_mutex_names(*f, syms);
  std::vector<LockEdge> edges;
  for (const SourceFile* f : src_files) {
    analyze_lock_scopes(*f, syms, edges, findings);
  }
  check_lock_order(edges, findings);

  RuleContext ctx;
  for (const SourceFile* f : src_files) collect_rule_context(*f, ctx);
  for (const SourceFile& f : files) analyze_rules(f, ctx, findings);

  return findings;
}

void apply_waivers(const std::vector<SourceFile>& files,
                   std::vector<Finding>& findings) {
  // One slot per (waiver line, rule). A waiver covers its own line and the
  // next one, so a trailing comment and a comment-above both work.
  struct WaiverSlot {
    int line = 0;
    std::string rule;
    int uses = 0;
  };
  std::map<std::string, std::vector<WaiverSlot>> slots_by_file;
  for (const SourceFile& f : files) {
    for (const Waiver& w : f.waivers) {
      for (const std::string& rule : w.rules) {
        slots_by_file[f.rel_path].push_back(WaiverSlot{w.line, rule, 0});
      }
    }
  }

  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    bool waived = false;
    auto it = slots_by_file.find(f.file);
    if (it != slots_by_file.end()) {
      for (WaiverSlot& s : it->second) {
        if (s.rule == f.rule && (s.line == f.line || s.line == f.line - 1)) {
          ++s.uses;
          waived = true;
          break;
        }
      }
    }
    if (!waived) kept.push_back(std::move(f));
  }

  // Waiver misuse findings.
  for (const auto& [path, file_slots] : slots_by_file) {
    for (const WaiverSlot& s : file_slots) {
      if (!known_rule(s.rule)) {
        kept.push_back(Finding{
            "waiver", path, s.line,
            "analyze:waive names unknown rule '" + s.rule +
                "' — check --list-rules"});
      } else if (s.uses == 0) {
        kept.push_back(Finding{
            "waiver", path, s.line,
            "analyze:waive(" + s.rule +
                ") suppressed nothing — either it sits on the wrong line "
                "(it covers its own line and the next) or the violation it "
                "documented is gone; remove the stale waiver"});
      }
    }
  }

  findings = std::move(kept);
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
}

std::string to_text(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string to_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out += ",";
    out += "\n  {\"rule\": \"" + json_escape(f.rule) + "\", \"file\": \"" +
           json_escape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace fedca::analysis
