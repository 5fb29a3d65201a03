#!/usr/bin/env python3
"""FedCA end-to-end benchmark: round throughput and time-to-accuracy, split
by module and by model layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, Release) from the checkout's
sources into .bench_build/, runs one workload, checks its outputs and prints
as the last stdout line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 prints the end-to-end metrics of an untraced
run; --trace 1 prints the per-layer metrics of a traced run. Lines before it
carry the run's provenance, the global-model fingerprint and per-layer
detail. Exit code 2 refuses a build that is not Release, or a traced run
whose flight recorder dropped events.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import fold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
HARNESS = BUILD / "fedca_perfbench"
WORKLOADS = ("cnn_fedca", "lstm_async", "population_fedca")
HARNESS_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; output goes to stderr."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no src/ beside {HERE.name}/: run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_harness(args):
    RUNS.mkdir(parents=True, exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    # The program reads FEDCA_* variables (threads, tracing, SIMD tier, pool);
    # the harness fixes each of them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDCA_")}
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(out.read_text())


def result_line(doc, metrics, table, failures):
    steps = sum(len(t["wall_s"]) for t in doc["trajectories"])
    if doc.get("traced"):
        steps += len(doc["traced"]["wall_s"])
    for failure in failures:
        log("check failed: " + failure)
    return {
        "correct": not failures,
        "attempted": steps,
        "failed": steps if failures else 0,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except RuntimeError as e:
        log(str(e))
        return 1
    doc = run_harness(args)

    provenance = dict(doc["provenance"], cpu_model=cpu_model(), seed=args.seed,
                      workload=args.workload, trace=args.trace)
    if provenance["build_type"] != "Release" or not provenance["ndebug"]:
        log(f"refusing numbers from a '{provenance['build_type']}' build")
        return 2
    print("provenance " + json.dumps(provenance, sort_keys=True))

    failures = fold.check_outputs(doc)
    # Trajectory 0 runs in both modes, so its model fingerprint is comparable
    # across every run of one seed, traced or not.
    print("fingerprint " + doc["trajectories"][0]["fingerprint"])
    if args.trace:
        metrics, info = fold.per_layer(doc)
        if metrics["obs.recorder_dropped"] != 0:
            log(f"flight recorder dropped {metrics['obs.recorder_dropped']:.0f} events; "
                "refusing to report per-layer numbers")
            return 2
        failures += fold.check_layer_sum(info)
        table = fold.PER_LAYER
    else:
        metrics, info = fold.end_to_end(doc)
        table = fold.END_TO_END
    print("detail " + json.dumps(info, sort_keys=True))
    print(json.dumps(result_line(doc, metrics, table, failures)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
