#!/usr/bin/env python3
"""Scale benchmark runner: drives bench/scale_harness across population
sizes (1k / 10k / 100k / 1M virtual clients, registry-backed population +
availability dynamics) plus a live client-state measurement at 100k
clients, and writes BENCH_scale.json (checked in at the repo root).

Gates (exit 1 on failure):
  * the 1M-client 10-round sweep must stay under 2 GB peak RSS;
  * live client state at 100k clients must stay at or under 373.1 bytes
    per client. The bound is 1/100 of the 37310.5 B/client a population
    with one live device and one live loader per client measured when
    both representations existed, so it keeps the original ">= 100x
    smaller" acceptance as a fixed number.

Provenance: the harness reports its build_type and the runner stamps the
host (nproc, CPU model; tools/host_provenance.py); a debug build is
refused with exit 2 so checked-in numbers always come from an optimized
build.

Usage:
    python3 tools/bench_scale.py [--build build] [--out BENCH_scale.json]
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from host_provenance import host_provenance

SWEEP_CLIENTS = (1_000, 10_000, 100_000, 1_000_000)
RSS_LIMIT_BYTES = 2 * 1024**3
# 37310.5 B/client (one live device + loader per client, last measured
# before that representation was deleted) / 100.
BYTES_PER_CLIENT_LIMIT = 373.1


def run_harness(binary: Path, **kv) -> dict:
    cmd = [str(binary)] + [f"{k}={v}" for k, v in kv.items()]
    print("+ " + " ".join(cmd), file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise RuntimeError(f"scale_harness failed: {' '.join(cmd)}")
    return json.loads(run.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build", help="CMake build directory")
    parser.add_argument("--out", default="BENCH_scale.json", help="output path")
    parser.add_argument("--rounds", type=int, default=10,
                        help="measured rounds per sweep point")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = root / args.build / "bench" / "scale_harness"
    if not binary.exists():
        print(f"error: {binary} not built", file=sys.stderr)
        return 1

    probe = run_harness(binary, mode="probe")
    if probe.get("build_type") != "release":
        print(
            f"error: refusing to record numbers from a "
            f"'{probe.get('build_type')}' build — rebuild with NDEBUG "
            "(Release/RelWithDebInfo) and rerun",
            file=sys.stderr,
        )
        return 2

    sweep = {}
    for clients in SWEEP_CLIENTS:
        result = run_harness(binary, mode="sweep", clients=clients,
                             rounds=args.rounds)
        sweep[f"clients_{clients}"] = result
        print(
            f"  {clients:>9} clients: {result['rounds_per_sec']:.2f} rounds/s, "
            f"peak RSS {result['peak_rss_bytes'] / 1024**2:.0f} MB",
            file=sys.stderr,
        )

    live = run_harness(binary, mode="live_bytes", clients=100_000)
    print(
        f"  live client-state at 100k: "
        f"{live['registry_bytes'] / 1024**2:.1f} MB "
        f"({live['registry_bytes_per_client']:.1f} B/client)",
        file=sys.stderr,
    )

    out = {
        "description": "Million-client scale-out: registry sweep "
                       "(fixed sampled cohort, availability dynamics on) "
                       "with wall-clock rounds/sec and peak RSS per "
                       "population size, plus live client-state bytes "
                       "at 100k clients.",
        "build_type": probe.get("build_type"),
        "host": host_provenance(),
        "rounds": args.rounds,
        "sweep": sweep,
        "live_bytes": live,
    }
    out_path = root / args.out
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    failed = False
    million = sweep["clients_1000000"]
    if million["peak_rss_bytes"] >= RSS_LIMIT_BYTES:
        print(
            f"FAIL: 1M-client sweep peak RSS {million['peak_rss_bytes']} "
            f"exceeds the {RSS_LIMIT_BYTES} byte (2 GB) acceptance limit",
            file=sys.stderr,
        )
        failed = True
    if live["registry_bytes_per_client"] > BYTES_PER_CLIENT_LIMIT:
        print(
            f"FAIL: live client state {live['registry_bytes_per_client']} "
            f"B/client exceeds the {BYTES_PER_CLIENT_LIMIT} B/client "
            f"acceptance limit at 100k clients",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
