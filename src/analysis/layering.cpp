#include "analysis/layering.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

namespace fedca::analysis {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string dirname(const std::string& rel) {
  const std::size_t slash = rel.rfind('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

// Collapses "a/b/../c" and "./" segments so sibling-relative includes
// resolve to canonical repo-relative paths.
std::string normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::string piece;
  std::istringstream in(path);
  while (std::getline(in, piece, '/')) {
    if (piece.empty() || piece == ".") continue;
    if (piece == ".." && !parts.empty() && parts.back() != "..") {
      parts.pop_back();
    } else {
      parts.push_back(piece);
    }
  }
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

}  // namespace

bool LayerSpec::parse(const std::string& text, const std::string& spec_path,
                      std::vector<Finding>& findings) {
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;
    if (keyword == "layer") {
      std::string name;
      std::string prefix;
      if (!(fields >> name >> prefix)) {
        add_finding(findings, "layering", spec_path, line_no,
                    "malformed layer line (expected: layer <name> <dir-prefix>)");
        continue;
      }
      layers.emplace_back(name, prefix);
      allow[name];  // every layer exists in the allow map, possibly empty
    } else if (keyword == "allow") {
      std::string from;
      if (!(fields >> from)) {
        add_finding(findings, "layering", spec_path, line_no,
                    "malformed allow line (expected: allow <layer> <dep>...)");
        continue;
      }
      std::string dep;
      while (fields >> dep) allow[from].insert(dep);
    } else {
      add_finding(findings, "layering", spec_path, line_no,
                  "unknown spec keyword '" + keyword + "'");
    }
  }
  // Validate allow edges against declared layers.
  std::set<std::string> names;
  for (const auto& [name, prefix] : layers) names.insert(name);
  for (const auto& [from, deps] : allow) {
    if (names.count(from) == 0) {
      add_finding(findings, "layering", spec_path, 0,
                  "allow line names undeclared layer '" + from + "'");
    }
    for (const std::string& dep : deps) {
      if (names.count(dep) == 0) {
        add_finding(findings, "layering", spec_path, 0,
                    "allow " + from + " names undeclared layer '" + dep + "'");
      }
    }
  }
  return !layers.empty();
}

std::string LayerSpec::layer_of(const std::string& rel_path) const {
  std::string best;
  std::size_t best_len = 0;
  for (const auto& [name, prefix] : layers) {
    if (starts_with(rel_path, prefix + "/") || rel_path == prefix) {
      if (prefix.size() >= best_len) {
        best = name;
        best_len = prefix.size();
      }
    }
  }
  return best;
}

void check_layering(const std::vector<SourceFile>& files, const LayerSpec& spec,
                    std::vector<Finding>& findings) {
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : files) by_path[f.rel_path] = &f;

  struct Edge {
    std::string to;
    int line;
  };
  std::map<std::string, std::vector<Edge>> graph;  // src-file -> src-file edges

  for (const SourceFile& f : files) {
    if (!starts_with(f.rel_path, "src/") || is_cmake_path(f.rel_path)) continue;
    const std::string from_layer = spec.layer_of(f.rel_path);
    if (from_layer.empty()) {
      add_finding(findings, "layering", f.rel_path, 1,
                  "file is under src/ but no layer in the spec claims it");
      continue;
    }
    for (const IncludeDirective& inc : f.includes) {
      if (inc.angled) continue;  // system/third-party headers
      // Resolve against the analyzed set: module-style ("util/x.hpp" from
      // the src/ include root), repo-root-relative, and sibling-relative.
      std::string target;
      for (const std::string& cand :
           {normalize("src/" + inc.path), normalize(inc.path),
            normalize(dirname(f.rel_path) + "/" + inc.path)}) {
        if (by_path.count(cand) != 0) {
          target = cand;
          break;
        }
      }
      if (target.empty() || !starts_with(target, "src/")) continue;
      graph[f.rel_path].push_back(Edge{target, inc.line});
      const std::string to_layer = spec.layer_of(target);
      if (to_layer.empty()) continue;  // unmapped target flagged on its own
      if (to_layer == from_layer) continue;
      const auto allowed = spec.allow.find(from_layer);
      if (allowed == spec.allow.end() || allowed->second.count(to_layer) == 0) {
        add_finding(findings, "layering", f.rel_path, inc.line,
                    "include of '" + target + "' (layer " + to_layer +
                        ") is not allowed from layer " + from_layer);
      }
    }
  }

  // Include-cycle detection: DFS with colors; each distinct cycle reported
  // once, attributed to the back edge with the full path in the message.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::pair<std::string, int>> stack;  // (file, include line)
  std::set<std::string> reported;                  // canonical cycle keys

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    auto it = graph.find(node);
    if (it != graph.end()) {
      for (const Edge& e : it->second) {
        if (color[e.to] == 1) {
          // Back edge: reconstruct the cycle from the stack.
          std::vector<std::pair<std::string, int>> cycle;
          cycle.emplace_back(node, e.line);
          if (e.to != node) {
            for (auto r = stack.rbegin(); r != stack.rend(); ++r) {
              cycle.emplace_back(*r);
              if (r->first == e.to) break;
            }
          }
          std::reverse(cycle.begin(), cycle.end());
          std::string key;
          {
            std::vector<std::string> members;
            members.reserve(cycle.size());
            for (const auto& [file, line] : cycle) members.push_back(file);
            std::sort(members.begin(), members.end());
            members.erase(std::unique(members.begin(), members.end()),
                          members.end());
            for (const std::string& m : members) key += m + "|";
          }
          if (reported.insert(key).second) {
            std::string msg = "include cycle: ";
            for (std::size_t i = 0; i < cycle.size(); ++i) {
              if (i != 0) msg += " -> ";
              msg += cycle[i].first;
            }
            msg += " -> " + cycle.front().first;
            add_finding(findings, "include-cycle", node, e.line, msg);
          }
        } else if (color[e.to] == 0) {
          stack.emplace_back(node, e.line);
          dfs(e.to);
          stack.pop_back();
        }
      }
    }
    color[node] = 2;
  };
  for (const auto& [node, edges] : graph) {
    if (color[node] == 0) dfs(node);
  }
}

}  // namespace fedca::analysis
