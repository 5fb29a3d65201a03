// Scope-aware determinism, seam, and build-flag rules.
//
// Matching is token-level: hits inside strings, char literals, and
// comments are impossible by construction (the lexer blanked them), and
// container tracking follows type aliases and declared variable names.
// Rules and their path scopes:
//
//   raw-rng               std::rand/srand, time(nullptr) seeding,
//                         std::random_device — src/, bench/, examples/
//                         minus src/util/rng.*.
//   unordered-iter        declaration of or iteration over an unordered
//                         container (alias-aware) — src/fl, src/core,
//                         src/nn.
//   wall-clock            host-clock ::now reads — src/ minus src/obs,
//                         src/sim.
//   raw-tensor-alloc      new[] / malloc-family — src/tensor (tensor
//                         storage is owned by std::vector).
//   raw-intrinsics        #include <immintrin.h>/<x86intrin.h>/<arm_neon.h>
//                         — every C++ file outside src/tensor/simd/.
//   client-container      containers of ClientDevice outside the
//                         cluster/registry seam — src/.
//   unordered-float-accum float/double accumulation (`x +=`) inside a
//                         range-for over an unordered container — src/.
//                         The per-element order is hash-dependent AND the
//                         FP sum is order-dependent.
//   pointer-key           std::map/std::set keyed on a pointer type —
//                         iteration order is allocation-order-dependent —
//                         src/.
//   device-seam           ClientDevice obtained outside a DeviceLease (a
//                         ClientDevice variable whose statement involves
//                         no lease) — src/ minus the cluster/registry
//                         seam.
//   fast-math             -ffast-math, -Ofast, -funsafe-math-optimizations,
//                         -fassociative-math, -freciprocal-math — every
//                         CMakeLists.txt / *.cmake, `#` comments ignored.
//                         Not waivable: CMake files carry no waivers.
//   float-accum           `float` accumulator (name contains acc or sum) in
//                         a file with no comment mentioning association —
//                         src/tensor/**.cpp, src/nn/**.cpp.
//   scenario-hardcode     default- or brace-initialized ExperimentOptions
//                         (`x;`, `x{...}`, `x = {...}`) — tests/. Tests
//                         load scenarios/*.scn instead.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/source.hpp"

namespace fedca::analysis {

struct RuleContext {
  // Unordered-container type aliases collected across every analyzed file
  // (`using Index = std::unordered_map<...>`), so `Index idx;` in another
  // file still tracks.
  std::set<std::string> unordered_aliases;
};

// Pass 1 (run over every file first): collect unordered-container aliases.
void collect_rule_context(const SourceFile& f, RuleContext& ctx);

// Pass 2: all determinism/seam rules for one file.
void analyze_rules(const SourceFile& f, const RuleContext& ctx,
                   std::vector<Finding>& findings);

}  // namespace fedca::analysis
