// fedca_analyze — whole-tree static analyzer for the FedCA reproduction.
//
// A C++17 lexer over the whole tree builds an include/layering DAG checked
// against tools/analyze/layers.spec, a lock-order graph from
// util::MutexLock scopes and FEDCA_* annotations, and scope-aware
// determinism, seam, and build-flag rules (see --list-rules and
// src/analysis/rules.hpp), all behind one waiver syntax (`analyze:waive`,
// see src/analysis/analyzer.hpp). Zero external dependencies; runs in
// well under a second over the tree.
//
// Usage:
//   fedca_analyze --root DIR [--build DIR] [--spec FILE] [--json]
//                 [--list-rules]
//
//   --root DIR    repo root to analyze: C++ and CMake files under src/,
//                 bench/, examples/, tests/, tools/, perfbench/, cmake/
//                 (minus the analyzer's own fixture trees) and the CMake
//                 files at the root
//   --build DIR   build tree; DIR/compile_commands.json is REQUIRED when
//                 this flag is given (exit 2 if missing) and contributes
//                 any first-party TU the walk would miss (generated files)
//   --spec FILE   layering spec; omitted => layering checks are skipped
//                 (fixture trees), unreadable => exit 2
//   --json        machine-readable findings (JSON array of
//                 {rule, file, line, message}) instead of text
//   --list-rules  print the rule names and exit
//
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/layering.hpp"
#include "analysis/source.hpp"

namespace fs = std::filesystem;
using namespace fedca::analysis;

namespace {

bool has_cxx_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

// First-party trees the analyzer owns (`cmake/` holds shared *.cmake
// modules when a checkout has any). The fixture trees are seeded with
// violations on purpose; tests/tools/fedca_analyze_test.py runs them.
constexpr const char* kWalkDirs[] = {"src",   "bench", "examples", "tests",
                                     "tools", "perfbench", "cmake"};
constexpr const char* kFixtureDir = "tests/tools/analyze_fixtures/";

bool in_walk(const std::string& rel) {
  if (rel.rfind(kFixtureDir, 0) == 0) return false;
  for (const char* dir : kWalkDirs) {
    const std::string prefix = std::string(dir) + "/";
    if (rel.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

// Repo-root-relative path with '/' separators, or "" when outside root.
std::string rel_to_root(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) return std::string();
  std::string s = rel.generic_string();
  if (s.rfind("..", 0) == 0) return std::string();
  return s;
}

// Minimal extraction of "file" (and "directory") values from
// compile_commands.json — the format cmake emits is a flat array of
// objects with string values, so a targeted scan beats a JSON library
// (which the zero-deps constraint rules out anyway).
std::vector<std::string> compile_db_files(const std::string& text) {
  std::vector<std::string> files;
  std::string directory;
  std::size_t i = 0;
  auto read_string = [&](std::size_t at, std::string& out) -> std::size_t {
    out.clear();
    std::size_t j = at;
    while (j < text.size() && text[j] != '"') {
      if (text[j] == '\\' && j + 1 < text.size()) {
        ++j;
        // Only the escapes cmake actually emits in paths.
        if (text[j] == '\\' || text[j] == '"' || text[j] == '/') {
          out += text[j];
        } else {
          out += '\\';
          out += text[j];
        }
      } else {
        out += text[j];
      }
      ++j;
    }
    return j + 1;
  };
  while (i < text.size()) {
    const std::size_t key = text.find('"', i);
    if (key == std::string::npos) break;
    std::string name;
    std::size_t after = read_string(key + 1, name);
    if (name != "file" && name != "directory") {
      i = after;
      continue;
    }
    const std::size_t colon = text.find(':', after);
    if (colon == std::string::npos) break;
    const std::size_t open = text.find('"', colon);
    if (open == std::string::npos) break;
    std::string value;
    after = read_string(open + 1, value);
    if (name == "directory") {
      directory = value;
    } else if (!value.empty()) {
      if (value[0] != '/' && !directory.empty()) {
        value = directory + "/" + value;
      }
      files.push_back(value);
    }
    i = after;
  }
  return files;
}

int usage_error(const std::string& message) {
  std::cerr << "fedca_analyze: " << message << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_arg = ".";
  std::string build_arg;
  std::string spec_arg;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usage_error("--root needs a directory");
      root_arg = v;
    } else if (arg == "--build") {
      const char* v = next();
      if (v == nullptr) return usage_error("--build needs a directory");
      build_arg = v;
    } else if (arg == "--spec") {
      const char* v = next();
      if (v == nullptr) return usage_error("--spec needs a file");
      spec_arg = v;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      for (const std::string& rule : all_rules()) std::cout << rule << "\n";
      return 0;
    } else {
      return usage_error("unknown argument '" + arg + "' (see header comment)");
    }
  }

  std::error_code ec;
  const fs::path root = fs::canonical(root_arg, ec);
  if (ec) return usage_error("no such root directory: " + root_arg);

  // File set: walk the first-party trees, then fold in compile-database
  // TUs (catches generated sources the walk cannot know about).
  std::set<std::string> rel_paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && is_cmake_path(name)) rel_paths.insert(name);
  }
  for (const char* dir : kWalkDirs) {
    const fs::path top = root / dir;
    if (!fs::is_directory(top)) continue;
    for (fs::recursive_directory_iterator it(top), end; it != end; ++it) {
      if (!it->is_regular_file()) continue;
      const std::string rel = rel_to_root(it->path(), root);
      if (in_walk(rel) && (has_cxx_ext(it->path()) || is_cmake_path(rel))) {
        rel_paths.insert(rel);
      }
    }
  }
  if (!build_arg.empty()) {
    const fs::path db_path = fs::path(build_arg) / "compile_commands.json";
    std::string db_text;
    if (!read_file(db_path, db_text)) {
      return usage_error(
          "no " + db_path.string() +
          " — configure with cmake -B build -S . "
          "(CMAKE_EXPORT_COMPILE_COMMANDS is on by default)");
    }
    for (const std::string& file : compile_db_files(db_text)) {
      const fs::path p = fs::weakly_canonical(file, ec);
      if (ec) continue;
      const std::string rel = rel_to_root(p, root);
      if (has_cxx_ext(p) && in_walk(rel)) rel_paths.insert(rel);
    }
  }

  std::vector<Finding> findings;

  LayerSpec spec;
  bool have_spec = false;
  if (!spec_arg.empty()) {
    std::string spec_text;
    if (!read_file(spec_arg, spec_text)) {
      return usage_error("cannot read spec file: " + spec_arg);
    }
    const std::string spec_rel = [&] {
      const fs::path p = fs::weakly_canonical(spec_arg, ec);
      const std::string rel = ec ? std::string() : rel_to_root(p, root);
      return rel.empty() ? spec_arg : rel;
    }();
    have_spec = spec.parse(spec_text, spec_rel, findings);
    if (!have_spec) {
      return usage_error("spec file declares no layers: " + spec_arg);
    }
  }

  std::vector<SourceFile> files;
  files.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    std::string text;
    if (!read_file(root / rel, text)) {
      add_finding(findings, "io", rel, 0, "unreadable file");
      continue;
    }
    SourceFile f;
    f.rel_path = rel;
    if (is_cmake_path(rel)) {
      lex_cmake(text, f);
    } else {
      lex_source(text, f);
    }
    files.push_back(std::move(f));
  }

  std::vector<Finding> pass_findings =
      run_passes(files, have_spec ? &spec : nullptr);
  findings.insert(findings.end(),
                  std::make_move_iterator(pass_findings.begin()),
                  std::make_move_iterator(pass_findings.end()));
  apply_waivers(files, findings);
  sort_findings(findings);

  if (json) {
    std::cout << to_json(findings);
  } else {
    for (const Finding& f : findings) std::cout << to_text(f) << "\n";
    if (findings.empty()) {
      std::cout << "fedca_analyze: OK (" << files.size() << " files)\n";
    } else {
      std::cerr << "fedca_analyze: FAIL: " << findings.size()
                << " finding(s)\n";
    }
  }
  return findings.empty() ? 0 : 1;
}
