#!/usr/bin/env python3
"""Allocation benchmark runner: drives the counting-allocator harness
(bench/memory_harness) at 1 and 4 workers and writes BENCH_memory.json
(checked in at the repo root) with per-round allocation counts and the
peak heap.

The harness overrides global operator new/delete in its own translation
unit, so these numbers count every heap allocation in the process during
the measured steady-state rounds (after warmup).

Provenance: the harness reports its build_type and simd_tier and the
runner stamps the host (nproc, CPU model; tools/host_provenance.py); a
debug build is refused with exit 2 so checked-in numbers always come from
an optimized build. Usage:

    python3 tools/bench_memory.py [--build build] [--out BENCH_memory.json]
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from host_provenance import host_provenance


def run_harness(binary: Path, rounds: int, warmup: int, workers: int) -> dict:
    cmd = [
        str(binary),
        f"rounds={rounds}",
        f"warmup={warmup}",
        f"workers={workers}",
    ]
    print("+ " + " ".join(cmd), file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise RuntimeError(f"memory_harness failed: {' '.join(cmd)}")
    return json.loads(run.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build", help="CMake build directory")
    parser.add_argument("--out", default="BENCH_memory.json", help="output path")
    parser.add_argument("--rounds", type=int, default=30,
                        help="measured steady-state rounds")
    parser.add_argument("--warmup", type=int, default=3,
                        help="warmup rounds before measuring")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = root / args.build / "bench" / "memory_harness"
    if not binary.exists():
        print(f"error: {binary} not built", file=sys.stderr)
        return 1

    # Provenance probe (rounds=0 costs ~nothing): refuse debug builds
    # before burning through the measurement arms.
    probe = run_harness(binary, 0, 0, 1)
    if probe.get("build_type") != "release":
        print(
            f"error: refusing to record numbers from a "
            f"'{probe.get('build_type')}' build — rebuild with NDEBUG "
            "(Release/RelWithDebInfo) and rerun",
            file=sys.stderr,
        )
        return 2
    print(f"dispatch tier: {probe.get('simd_tier')}", file=sys.stderr)

    runs = {f"workers{workers}": run_harness(binary, args.rounds, args.warmup,
                                             workers)
            for workers in (1, 4)}

    out = {
        "description": "Heap allocations and peak heap per steady-state "
                       "federated round (counting-allocator harness, "
                       "CNN/8 clients/5 iters).",
        "build_type": probe.get("build_type"),
        "simd_tier": probe.get("simd_tier"),
        "host": host_provenance(),
        "rounds": args.rounds,
        "warmup": args.warmup,
        "runs": runs,
    }
    out_path = root / args.out
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    for key, run in runs.items():
        print(f"{key}: {run['allocs_per_round']} allocs/round, "
              f"peak {run['peak_bytes'] / 1e6:.1f} MB", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
