#!/usr/bin/env python3
"""Fixture suite for fedca_analyze (the semantic whole-tree analyzer).

Three contracts:
  1. The `violations` fixture tree produces EXACTLY the findings its files
     mark with `expect: rule[, rule...]` trailing comments — same rule,
     same file, same line, nothing extra — and exit code 1.
     Text mode prints the same findings as "file:line: [rule] message".
  2. The `clean` fixture tree (negatives: strings/comments, sanctioned
     paths, rule scope edges, correct waiver use, lease-seam access)
     produces zero findings and exit code 0.
  3. The CLI contract: --json emits a parseable array of
     {rule, file, line, message}; a missing root, a missing
     compile_commands.json or an unreadable spec exits 2; --list-rules
     names every rule the fixtures exercise.

`expect:` markers are read from C++ sources and from CMake files
(CMakeLists.txt, *.cmake).
"""

import argparse
import json
import os
import re
import subprocess
import sys

EXPECT_RE = re.compile(r"expect:\s*([a-z][a-z-]*(?:\s*,\s*[a-z][a-z-]*)*)")


def is_scanned(name):
    """C++ sources and CMake files: the two kinds fedca_analyze reads."""
    return name.endswith((".cpp", ".hpp", ".cc", ".h", ".cmake")) or \
        name == "CMakeLists.txt"


def expected_findings(root):
    """(rule, relpath, line) triples from `expect:` markers in the tree."""
    expected = set()
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if not is_scanned(name):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    match = EXPECT_RE.search(line)
                    if not match:
                        continue
                    for rule in re.split(r"\s*,\s*", match.group(1)):
                        expected.add((rule, rel, lineno))
    return expected


def run(analyzer, args):
    proc = subprocess.run(
        [analyzer] + args, capture_output=True, text=True, timeout=120
    )
    return proc


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def check_violations(analyzer, fixtures):
    root = os.path.join(fixtures, "violations")
    spec = os.path.join(root, "layers.spec")
    proc = run(analyzer, ["--root", root, "--spec", spec, "--json"])
    if proc.returncode != 1:
        fail(
            "violations tree: expected exit 1, got %d\nstdout:\n%s\nstderr:\n%s"
            % (proc.returncode, proc.stdout, proc.stderr)
        )
    try:
        findings = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail("violations tree: --json output is not JSON: %s\n%s" % (err, proc.stdout))
    for entry in findings:
        for key in ("rule", "file", "line", "message"):
            if key not in entry:
                fail("finding missing key %r: %r" % (key, entry))
    actual = {(f["rule"], f["file"], f["line"]) for f in findings}
    expected = expected_findings(root)
    missing = expected - actual
    extra = actual - expected
    if missing or extra:
        lines = []
        for rule, rel, lineno in sorted(missing):
            lines.append("  missing: %s:%d [%s]" % (rel, lineno, rule))
        for rule, rel, lineno in sorted(extra):
            lines.append("  extra:   %s:%d [%s]" % (rel, lineno, rule))
        fail("violations tree: finding set mismatch\n" + "\n".join(lines))
    if len(actual) != len(findings):
        fail("violations tree: duplicate (rule, file, line) finding emitted")
    # Text mode prints the same findings as "file:line: [rule] message".
    text = run(analyzer, ["--root", root, "--spec", spec])
    for entry in findings:
        prefix = "%s:%d: [%s] " % (entry["file"], entry["line"], entry["rule"])
        if prefix + entry["message"] not in text.stdout.splitlines():
            fail("text output lacks finding %r" % prefix)
    print("ok: violations tree — %d findings, all expected" % len(findings))
    return {rule for rule, _rel, _line in expected}


def check_clean(analyzer, fixtures):
    root = os.path.join(fixtures, "clean")
    proc = run(analyzer, ["--root", root, "--json"])
    if proc.returncode != 0:
        fail(
            "clean tree: expected exit 0, got %d\nstdout:\n%s"
            % (proc.returncode, proc.stdout)
        )
    findings = json.loads(proc.stdout)
    if findings:
        fail("clean tree: expected no findings, got:\n%s" % proc.stdout)
    print("ok: clean tree — no findings")


def check_cli_contract(analyzer, fixtures, rules_used):
    root = os.path.join(fixtures, "clean")
    # Missing compile_commands.json is a configuration error, not a pass.
    proc = run(analyzer, ["--root", root, "--build", os.path.join(root, "no_such")])
    if proc.returncode != 2:
        fail("missing compile_commands.json: expected exit 2, got %d" % proc.returncode)
    # Unreadable spec is a configuration error.
    proc = run(analyzer, ["--root", root, "--spec", os.path.join(root, "no.spec")])
    if proc.returncode != 2:
        fail("unreadable spec: expected exit 2, got %d" % proc.returncode)
    # Missing root directory.
    proc = run(analyzer, ["--root", os.path.join(root, "no_such_root")])
    if proc.returncode != 2:
        fail("missing root: expected exit 2, got %d" % proc.returncode)
    # Unknown flag.
    proc = run(analyzer, ["--bogus"])
    if proc.returncode != 2:
        fail("unknown flag: expected exit 2, got %d" % proc.returncode)
    # --list-rules covers every rule the fixtures exercise.
    proc = run(analyzer, ["--list-rules"])
    if proc.returncode != 0:
        fail("--list-rules: expected exit 0, got %d" % proc.returncode)
    listed = set(proc.stdout.split())
    # `waiver` findings are misuse reports, not a waivable rule.
    unlisted = (rules_used - {"waiver"}) - listed
    if unlisted:
        fail("--list-rules is missing fixture-exercised rules: %s" % sorted(unlisted))
    print("ok: CLI contract — exit codes and --list-rules")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--analyzer", required=True, help="fedca_analyze binary")
    parser.add_argument("--fixtures", required=True, help="analyze_fixtures dir")
    args = parser.parse_args()

    rules_used = check_violations(args.analyzer, args.fixtures)
    check_clean(args.analyzer, args.fixtures)
    check_cli_contract(args.analyzer, args.fixtures, rules_used)
    print("PASS: fedca_analyze fixture suite")


if __name__ == "__main__":
    main()
