#!/usr/bin/env python3
"""Accuracy floor for an async scenario run: the printed final accuracy
must beat a given bound.

Runs examples/fedca_scenario on one async-engine scenario file (plus
optional key=value overrides) in a FEDCA_*-stripped environment, parses the
"async: N updates, final accuracy X" summary line, and fails unless X is
strictly above --above. Guards against evaluating a model the run never
trained, which reads as chance.

Usage:
  scenario_accuracy_test.py --runner BIN --scenario FILE --above 0.1 \
      [key=value ...]
"""

import argparse
import os
import re
import subprocess
import sys

ASYNC_LINE = re.compile(r"^async: .*final accuracy ([0-9.]+)$", re.MULTILINE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runner", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--above", type=float, required=True)
    parser.add_argument("overrides", nargs="*")
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDCA_")}
    proc = subprocess.run([args.runner, args.scenario, *args.overrides],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print(f"FAIL: runner exited {proc.returncode}", file=sys.stderr)
        return 1
    match = ASYNC_LINE.search(proc.stdout)
    if match is None:
        sys.stderr.write(proc.stdout)
        print("FAIL: no 'final accuracy' figure in the output", file=sys.stderr)
        return 1
    accuracy = float(match.group(1))
    if accuracy <= args.above:
        print(f"FAIL: final accuracy {accuracy} is not above {args.above}",
              file=sys.stderr)
        return 1
    print(f"ok: final accuracy {accuracy} > {args.above}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
