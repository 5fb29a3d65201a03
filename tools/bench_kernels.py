#!/usr/bin/env python3
"""Kernel benchmark runner: measures the compute-layer microbenches and
writes BENCH_kernels.json (checked in at the repo root) with before/after
numbers.

The "before" column is the frozen pre-optimization baseline measured on the
reference container (single-core Xeon 2.10 GHz, gcc 12, RelWithDebInfo)
right before the blocked-GEMM/parallel-engine change landed; BM_GemmRef
re-measures the retained naive kernel so the comparison stays honest on
other hosts.

Provenance: the binary stamps fedca_build_type and fedca_simd_tier into
the benchmark context, and the runner stamps the host (nproc, CPU model;
tools/host_provenance.py); both are recorded in the output JSON. A debug build is
refused with exit 2 — checked-in BENCH numbers must come from an
optimized build. Usage:

    python3 tools/bench_kernels.py [--build build] [--out BENCH_kernels.json]
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from host_provenance import host_provenance

# Frozen pre-PR measurements (ns) on the reference container. BM_Gemm was
# the naive triple loop then — identical code to today's BM_GemmRef.
BASELINE_NS = {
    "BM_Gemm/32": 5594,
    "BM_Gemm/64": 36442,
    "BM_Gemm/128": 314522,
    "BM_StatisticalProgress/1024": 3586,
    "BM_StatisticalProgress/65536": 224066,
    "BM_CnnTrainingIteration": 3910746,
}

# google-benchmark reports real_time in each row's own time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

FILTER = ("BM_(Gemm|GemmNT|GemmTN|GemmShape|GemmRef|GemmParallel|Axpy|Dot|"
          "L2Norm|Scale|BiasAdd|RowSum|ConvForward|ConvBackward|Im2col|"
          "Col2im|ReluBackward|"
          "StatisticalProgress|CnnTrainingIteration|RoundThroughput)")


def real_time_ns(bench: dict) -> float:
    """A benchmark row's real_time converted to nanoseconds."""
    return bench["real_time"] * NS_PER_UNIT[bench.get("time_unit", "ns")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build", help="CMake build directory")
    parser.add_argument("--out", default="BENCH_kernels.json", help="output path")
    parser.add_argument("--min-time", default="0.2",
                        help="benchmark_min_time (seconds, no unit suffix)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = root / args.build / "bench" / "micro_kernels"
    if not binary.exists():
        print(f"error: {binary} not built", file=sys.stderr)
        return 1

    cmd = [
        str(binary),
        f"--benchmark_filter={FILTER}",
        "--benchmark_format=json",
        # NOTE: this google-benchmark build rejects a "s" unit suffix here.
        f"--benchmark_min_time={args.min_time}",
    ]
    print("+ " + " ".join(cmd), file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        return run.returncode
    data = json.loads(run.stdout)

    context = data.get("context", {})
    build_type = context.get("fedca_build_type")
    if build_type != "release":
        print(
            f"error: refusing to record numbers from a "
            f"'{build_type}' build — rebuild with NDEBUG "
            "(Release/RelWithDebInfo) and rerun",
            file=sys.stderr,
        )
        return 2
    print(f"dispatch tier: {context.get('fedca_simd_tier')}", file=sys.stderr)

    after = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        after[name] = {
            "real_time_ns": round(real_time_ns(bench), 1),
            "items_per_second": bench.get("items_per_second"),
        }

    speedups = {}
    for name, before_ns in BASELINE_NS.items():
        entry = after.get(name)
        if entry and entry["real_time_ns"] > 0:
            speedups[name] = round(before_ns / entry["real_time_ns"], 2)
    # The live naive-vs-blocked ratio on THIS host (BM_GemmRef is the old
    # BM_Gemm implementation).
    for n in (32, 64, 128):
        ref = after.get(f"BM_GemmRef/{n}")
        opt = after.get(f"BM_Gemm/{n}")
        if ref and opt and opt["real_time_ns"] > 0:
            speedups[f"ref_vs_blocked/{n}"] = round(
                ref["real_time_ns"] / opt["real_time_ns"], 2)

    out = {
        "description": "Kernel microbenches: frozen pre-optimization baseline "
                       "(before_ns) vs current build (after).",
        "context": data.get("context", {}),
        "host": host_provenance(),
        "before_ns": BASELINE_NS,
        "after": after,
        "speedup": speedups,
    }
    out_path = root / args.out
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    gemm128 = speedups.get("BM_Gemm/128")
    if gemm128 is not None:
        print(f"BM_Gemm/128 speedup vs frozen baseline: {gemm128}x",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
