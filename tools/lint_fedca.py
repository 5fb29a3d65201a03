#!/usr/bin/env python3
"""FedCA invariant linter — repo-specific rules no generic tool knows.

The reproduction's headline guarantee is bit-identical output across runs,
worker counts, and allocator modes. That guarantee is carried by a handful
of source-level disciplines that neither the compiler nor clang-tidy can
check. This linter makes them structural. AST-free by design: plain
line-oriented scanning, so it runs anywhere python3 runs and never needs a
compilation database.

Rules (each finding names its rule; see --list-rules):

  raw-rng           All randomness must flow through the seeded forkable
                    Rng in src/util/rng.* — std::rand/srand, time(nullptr)
                    seeding, and std::random_device are banned in src/,
                    bench/, and examples/ (they make runs unrepeatable).
                    Waiver: // lint:rng

  unordered-iter    Output-affecting paths (src/fl, src/core, src/nn) must
                    not depend on hash-table iteration order. Both the
                    declaration of a std::unordered_map/unordered_set and
                    any iteration over one (range-for, .begin()) are
                    flagged: declarations because they are one refactor
                    away from nondeterministic iteration — prefer std::map
                    or a sorted vector; iteration because it is the bug
                    itself. Waiver: // lint:ordered (assert on the line
                    that iteration order cannot reach output).

  raw-tensor-alloc  Tensor float buffers must come from the BufferPool
                    (src/tensor/pool.cpp) so pool-on/pool-off stay
                    byte-identical and the allocation benches stay honest:
                    raw new[]/malloc/calloc/realloc/free are banned in
                    src/tensor outside pool.cpp. Waiver: // lint:alloc

  fast-math         No value-changing FP flags anywhere in the build:
                    -ffast-math, -Ofast, -funsafe-math-optimizations,
                    -fassociative-math, -freciprocal-math would let the
                    compiler reassociate the fixed accumulation orders
                    documented in src/tensor/ops.hpp. Checked in every
                    CMakeLists.txt / *.cmake (comments ignored). No waiver.

  float-accum       Kernel files (src/tensor/*.cpp, src/nn/*.cpp) that
                    declare float accumulators (identifiers containing
                    acc/sum) must carry the fixed-association comment
                    contract from tensor/ops.hpp — a comment mentioning
                    "association" — so every accumulation order is
                    documented as deliberate. Waiver: // lint:fixed-assoc

  wall-clock        The simulation is virtual-time by construction: host
                    clock reads (std::chrono::steady_clock/system_clock/
                    high_resolution_clock::now) anywhere in src/ outside
                    src/obs/ and src/sim/ would leak wall time into
                    output-affecting code and break run-to-run identity.
                    bench/ and examples/ may time real work freely.
                    Waiver: // lint:wallclock (e.g. the thread pool's
                    task-latency observer, which feeds metrics only).

  raw-intrinsics    SIMD intrinsics live behind the runtime dispatch layer
                    in src/tensor/simd/ — including <immintrin.h> /
                    <x86intrin.h> / <arm_neon.h> anywhere else would scatter
                    ISA-specific code past the tier boundary (and past the
                    per-TU -mavx2/-mavx512f compile flags), breaking the
                    scalar-fallback and determinism contracts. Applies to
                    all C++ files outside src/tensor/simd/.
                    Waiver: // lint:intrinsics

  client-container  Live ClientDevice populations are O(clients) memory and
                    defeat the compact-registry scale-out: container
                    declarations holding ClientDevice (vector/deque/list/
                    map/array, by value or unique_ptr) are banned in src/
                    outside the sanctioned seam (src/sim/cluster.* and
                    src/sim/client_registry.*, which own the legacy
                    representation and the lease pool). Engines check
                    devices out via Cluster::lease() instead.
                    Waiver: // lint:client-state (e.g. a fixed-size replica
                    pool bounded by the worker count, not the population).

  scenario-hardcode New tests must describe experiments as scenario files
                    (scenarios/*.scn + fl/scenario.hpp), not hand-built
                    ExperimentOptions literals: a default-constructed or
                    brace-initialized `ExperimentOptions x;` declaration in
                    tests/ is flagged unless the file predates the DSL
                    (frozen list below) — copy-initialization from a
                    loaded scenario or helper call is fine.
                    Waiver: // lint:scenario (e.g. comparing against the
                    struct's own defaults).

Usage:
  lint_fedca.py [--root DIR] [--list-rules]

Exits 0 when clean, 1 with one "file:line: [rule] message" per finding
otherwise, 2 on usage errors.
"""

import argparse
import json
import os
import re
import sys

# --- rule patterns -----------------------------------------------------------

RAW_RNG_PATTERNS = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"(?<![\w:])srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr) seeding"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
]

UNORDERED_DECL = re.compile(r"\bstd::unordered_(?:map|set)\s*<")
# `std::unordered_map<K, V> name...` — capture the declared identifier so
# iteration over it can be tracked through the rest of the file.
UNORDERED_DECL_NAME = re.compile(
    r"\bstd::unordered_(?:map|set)\s*<[^;{]*?>\s+(\w+)\s*[;({=]"
)
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*(\w+)\s*\)")
BEGIN_CALL = re.compile(r"\b(\w+)\.(?:begin|cbegin)\s*\(\)")

RAW_ALLOC_PATTERNS = [
    (re.compile(r"\bnew\s+[\w:<>]+\s*\["), "raw new[]"),
    (re.compile(r"(?<![\w:.])(?:malloc|calloc|realloc|free)\s*\("), "raw C allocation"),
]

FAST_MATH_FLAGS = [
    "-ffast-math",
    "-Ofast",
    "-funsafe-math-optimizations",
    "-fassociative-math",
    "-freciprocal-math",
    "-fno-math-errno=fast",  # defensive: any future "fast" spelling
]

# Declarations only (`float acc...`, `float sum...`): casting a DOUBLE
# accumulator to float at the end (static_cast<float>(acc)) is the
# sanctioned stronger pattern and must not be flagged.
FLOAT_ACCUM = re.compile(r"\bfloat\s+\w*(?:acc|sum)\w*", re.IGNORECASE)
ASSOCIATION_COMMENT = re.compile(r"(?://|\*).*associat", re.IGNORECASE)

WALL_CLOCK = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b")

# Raw SIMD intrinsics headers — only the dispatch tier under
# src/tensor/simd/ may include them (its TUs carry the matching -m flags).
RAW_INTRINSICS = re.compile(
    r'#\s*include\s*[<"](?:immintrin|x86intrin|arm_neon)\.h[>"]')

# Container declarations holding ClientDevice (by value or smart pointer):
# `std::vector<ClientDevice>`, `std::vector<std::unique_ptr<ClientDevice>>`,
# deque/list/map/array likewise. References in comments are stripped by the
# shared comment suppression.
CLIENT_CONTAINER = re.compile(
    r"\b(?:vector|deque|list|array|map)\s*<[^;{}]*\bClientDevice\b")

# The sanctioned seam: the cluster's lease pool and the client registry are
# the only places allowed to own device storage.
CLIENT_CONTAINER_SEAM = (
    "src/sim/cluster.hpp",
    "src/sim/cluster.cpp",
    "src/sim/client_registry.hpp",
    "src/sim/client_registry.cpp",
)

# Default-construction or brace-init of ExperimentOptions: `Opts x;`,
# `Opts x{...}`, `Opts x = {...}`. Copy-init from a call (`= tiny()`,
# `= sc.options`, `= resolve_options(...)`) is the sanctioned pattern and
# does not match.
SCENARIO_HARDCODE = re.compile(r"\bExperimentOptions\s+\w+\s*(?:;|\{|=\s*\{)")

# Tests that hand-built ExperimentOptions before the scenario DSL existed.
# Now empty: every legacy suite loads a committed scenarios/*.scn base.
# Never add to this set — new tests load scenarios; one-off constructions
# in non-test code waive with // lint:scenario.
SCENARIO_HARDCODE_LEGACY = set()

WAIVERS = {
    "raw-rng": "lint:rng",
    "unordered-iter": "lint:ordered",
    "raw-tensor-alloc": "lint:alloc",
    "float-accum": "lint:fixed-assoc",
    "wall-clock": "lint:wallclock",
    "raw-intrinsics": "lint:intrinsics",
    "client-container": "lint:client-state",
    "scenario-hardcode": "lint:scenario",
}

CXX_EXT = (".cpp", ".hpp", ".cc", ".h")
# analyze_fixtures is fedca_analyze's test data — trees deliberately
# seeded with violations (and sanctioned-path negatives); linting them
# would re-flag the seeds.
SKIP_DIR_PARTS = {".git", "build", "build-tsan", "build-asan", "build-sa",
                  "results", "third_party", "analyze_fixtures"}


def is_comment_or_string_hit(line, match_start):
    """Cheap suppression: a hit inside a // comment or a string literal is
    not code. Strings are detected by quote parity before the hit (escaped
    quotes skipped) — line-local, so multi-line raw strings still leak
    through; the token-level fedca_analyze tier handles those exactly."""
    comment = line.find("//")
    if comment != -1 and comment < match_start:
        return True
    quotes = 0
    i = 0
    while i < match_start:
        ch = line[i]
        if ch == "\\":
            i += 2
            continue
        if ch == '"':
            quotes += 1
        i += 1
    return quotes % 2 == 1


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def waived(rule, line):
    token = WAIVERS.get(rule)
    return token is not None and token in line


def lint_raw_rng(rel, lines, findings):
    if rel.replace(os.sep, "/").startswith("src/util/rng"):
        return  # the one sanctioned RNG module
    for no, line in enumerate(lines, 1):
        if waived("raw-rng", line):
            continue
        for pattern, what in RAW_RNG_PATTERNS:
            m = pattern.search(line)
            if m and not is_comment_or_string_hit(line, m.start()):
                findings.append(Finding(
                    rel, no, "raw-rng",
                    f"{what} bypasses the seeded util::Rng — runs become "
                    "unrepeatable (waive with // lint:rng)"))


def lint_unordered(rel, lines, findings):
    tracked = set()
    for no, line in enumerate(lines, 1):
        decl = UNORDERED_DECL.search(line)
        if decl and not is_comment_or_string_hit(line, decl.start()):
            name = UNORDERED_DECL_NAME.search(line)
            if name:
                tracked.add(name.group(1))
            if not waived("unordered-iter", line):
                findings.append(Finding(
                    rel, no, "unordered-iter",
                    "unordered container in an output-affecting path: "
                    "iteration order is hash-dependent — use std::map or a "
                    "sorted vector, or waive with // lint:ordered if no "
                    "iteration can reach output"))
            continue
        if waived("unordered-iter", line):
            continue
        for pattern in (RANGE_FOR, BEGIN_CALL):
            m = pattern.search(line)
            if m and m.group(1) in tracked and \
                    not is_comment_or_string_hit(line, m.start()):
                findings.append(Finding(
                    rel, no, "unordered-iter",
                    f"iteration over unordered container '{m.group(1)}' — "
                    "sort the keys or switch to an ordered container "
                    "(waive with // lint:ordered)"))


def lint_raw_alloc(rel, lines, findings):
    for no, line in enumerate(lines, 1):
        if waived("raw-tensor-alloc", line):
            continue
        for pattern, what in RAW_ALLOC_PATTERNS:
            m = pattern.search(line)
            if m and not is_comment_or_string_hit(line, m.start()):
                findings.append(Finding(
                    rel, no, "raw-tensor-alloc",
                    f"{what} in src/tensor — route buffers through "
                    "BufferPool (pool.cpp) so pool-on/off stay "
                    "byte-identical (waive with // lint:alloc)"))


def lint_fast_math(rel, lines, findings):
    for no, line in enumerate(lines, 1):
        code = line.split("#", 1)[0]  # strip cmake comments
        for flag in FAST_MATH_FLAGS:
            if flag in code:
                findings.append(Finding(
                    rel, no, "fast-math",
                    f"{flag} permits FP reassociation and breaks the fixed "
                    "accumulation orders (tensor/ops.hpp contract); no "
                    "waiver — remove the flag"))


def lint_float_accum(rel, lines, findings):
    has_contract = any(ASSOCIATION_COMMENT.search(l) for l in lines)
    for no, line in enumerate(lines, 1):
        if waived("float-accum", line):
            continue
        m = FLOAT_ACCUM.search(line)
        if m and not is_comment_or_string_hit(line, m.start()) and not has_contract:
            findings.append(Finding(
                rel, no, "float-accum",
                "float accumulator in a kernel file with no fixed-"
                "association comment — document the association order "
                "(see tensor/ops.hpp) or waive with // lint:fixed-assoc"))


def lint_wall_clock(rel, lines, findings):
    for no, line in enumerate(lines, 1):
        if waived("wall-clock", line):
            continue
        m = WALL_CLOCK.search(line)
        if m and not is_comment_or_string_hit(line, m.start()):
            findings.append(Finding(
                rel, no, "wall-clock",
                "host clock read outside src/obs//src/sim — the simulation "
                "is virtual-time; wall time in output-affecting code breaks "
                "run identity (waive with // lint:wallclock if it feeds "
                "observability only)"))


def lint_raw_intrinsics(rel, lines, findings):
    for no, line in enumerate(lines, 1):
        if waived("raw-intrinsics", line):
            continue
        m = RAW_INTRINSICS.search(line)
        if m and not is_comment_or_string_hit(line, m.start()):
            findings.append(Finding(
                rel, no, "raw-intrinsics",
                "raw SIMD intrinsics header outside src/tensor/simd/ — "
                "ISA-specific code belongs behind the dispatch tier "
                "(tensor/simd/dispatch.hpp); add a kernel there instead "
                "(waive with // lint:intrinsics)"))


def lint_client_container(rel, lines, findings):
    if rel in CLIENT_CONTAINER_SEAM:
        return
    for no, line in enumerate(lines, 1):
        if waived("client-container", line):
            continue
        m = CLIENT_CONTAINER.search(line)
        if m and not is_comment_or_string_hit(line, m.start()):
            findings.append(Finding(
                rel, no, "client-container",
                "container of ClientDevice outside the cluster/registry "
                "seam — live device storage is O(clients) and defeats the "
                "compact scale-out; check devices out via Cluster::lease() "
                "(waive with // lint:client-state if the container is "
                "bounded by workers, not population)"))


def lint_scenario_hardcode(rel, lines, findings):
    if rel in SCENARIO_HARDCODE_LEGACY:
        return
    for no, line in enumerate(lines, 1):
        if waived("scenario-hardcode", line):
            continue
        m = SCENARIO_HARDCODE.search(line)
        if m and not is_comment_or_string_hit(line, m.start()):
            findings.append(Finding(
                rel, no, "scenario-hardcode",
                "hand-built ExperimentOptions in a test — load a committed "
                "scenarios/*.scn via fl::load_scenario_file instead (waive "
                "with // lint:scenario)"))


def iter_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in SKIP_DIR_PARTS and not d.startswith("."))
        for fn in sorted(filenames):
            yield os.path.join(dirpath, fn)


def lint_tree(root):
    findings = []
    for path in iter_files(root):
        rel = os.path.relpath(path, root)
        posix = rel.replace(os.sep, "/")
        base = os.path.basename(path)
        is_cmake = base == "CMakeLists.txt" or base.endswith(".cmake")
        is_cxx = base.endswith(CXX_EXT)
        if not (is_cmake or is_cxx):
            continue
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                lines = f.read().splitlines()
        except OSError as e:
            findings.append(Finding(rel, 0, "io", f"unreadable: {e}"))
            continue
        if is_cmake:
            lint_fast_math(posix, lines, findings)
            continue
        if posix.startswith(("src/", "bench/", "examples/")):
            lint_raw_rng(posix, lines, findings)
        if posix.startswith(("src/fl/", "src/core/", "src/nn/")):
            lint_unordered(posix, lines, findings)
        if posix.startswith("src/tensor/") and base != "pool.cpp":
            lint_raw_alloc(posix, lines, findings)
        if (posix.startswith(("src/tensor/", "src/nn/"))
                and base.endswith((".cpp", ".cc"))):
            lint_float_accum(posix, lines, findings)
        if posix.startswith("src/") and \
                not posix.startswith(("src/obs/", "src/sim/")):
            lint_wall_clock(posix, lines, findings)
        if not posix.startswith("src/tensor/simd/"):
            lint_raw_intrinsics(posix, lines, findings)
        if posix.startswith("src/"):
            lint_client_container(posix, lines, findings)
        if posix.startswith("tests/"):
            lint_scenario_hardcode(posix, lines, findings)
    return findings


def main():
    parser = argparse.ArgumentParser(
        description="FedCA repo invariant linter (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="tree to lint (default: the repo this script lives in)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array of "
                             "{rule, file, line, message} (the same shape "
                             "fedca_analyze --json emits)")
    args = parser.parse_args()

    if args.list_rules:
        for rule in ("raw-rng", "unordered-iter", "raw-tensor-alloc",
                     "fast-math", "float-accum", "wall-clock",
                     "raw-intrinsics", "client-container",
                     "scenario-hardcode"):
            print(rule)
        return 0

    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print(f"lint_fedca: no such directory: {root}", file=sys.stderr)
        return 2

    findings = lint_tree(root)
    if args.json:
        print(json.dumps(
            [{"rule": f.rule, "file": f.path, "line": f.line_no,
              "message": f.message} for f in findings],
            indent=2))
        return 1 if findings else 0
    for f in findings:
        print(f)
    if findings:
        print(f"lint_fedca: FAIL: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_fedca: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
