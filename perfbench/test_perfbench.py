#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py             # all tests (~5 min: runs
                                                    # every workload twice)
    python3 perfbench/test_perfbench.py -k Names -k Fold   # unit tests only

Checks that BENCHMARK.json and the fold agree on every metric name, unit and
direction, that every name is well formed, that the trace fold attributes a
small synthetic trace correctly, and that the command prints every metric for
each workload in both modes.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fold  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, seconds=1, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class Names(unittest.TestCase):
    def test_every_name_is_well_formed(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)

    def test_benchmark_json_matches_the_fold(self):
        for key, table in (("end_to_end", fold.END_TO_END), ("per_layer", fold.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]}
            self.assertEqual(declared, table, key)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))


class Fold(unittest.TestCase):
    def test_fold_attributes_spans_to_their_step(self):
        windows = [(100.0, 200.0), (300.0, 400.0)]
        spans = [
            ["sgd.step", 1, 110.0, 50.0],   # inside step 1
            ["sgd.step", 2, 120.0, 70.0],   # inside step 1, another thread
            ["sgd.step", 1, 310.0, 20.0],   # inside step 2
            ["sgd.step", 1, 250.0, 10.0],   # between steps (evaluation)
            ["sgd.step", 1, 190.0, 20.0],   # straddles the end of step 1
            ["sgd.step", 1, 50.0, 10.0],    # before any step
            ["server.aggregate", 0, 395.0, 5.0],  # ends exactly at step 2's end
        ]
        folded = fold.fold_program_spans(spans, windows)
        self.assertEqual(folded["sgd.step"], (140.0, 3))
        self.assertEqual(folded["server.aggregate"], (5.0, 1))

    def test_per_layer_fold_of_a_synthetic_run(self):
        bench = [["traced.step", 0.0, 1000.0, 1], ["traced.step", 2000.0, 1000.0, 1],
                 ["step", 5000.0, 800.0, 1], ["step", 6000.0, 800.0, 1],
                 ["evaluate", 7000.0, 30.0, 1],
                 ["probe.nn.conv1.conv1.forward", 0.0, 10.0, 1],
                 ["probe.nn.conv1.conv1.backward", 0.0, 30.0, 1],
                 ["probe.nn.fc.fc1.forward", 0.0, 2.0, 1],
                 ["probe.nn.fc.fc2.forward", 0.0, 3.0, 1],
                 ["probe.nn.other.relu1.forward", 0.0, 1.0, 1],
                 ["probe.nn.compute_gradients", 0.0, 46.0, 1],
                 ["probe.tensor.gemm_nt.conv1", 0.0, 1.0, 1],
                 ["probe.tensor.gemm_tn.conv1", 0.0, 0.5, 1],
                 ["probe.tensor.im2col.conv1", 0.0, 0.25, 1],
                 ["probe.sim.lease", 0.0, 512.0, 256]]
        program = [["sgd.step", 1, 10.0, 400.0], ["sgd.step", 2, 10.0, 400.0],
                   ["conv2d.forward", 1, 20.0, 30.0], ["conv2d.forward", 1, 60.0, 10.0],
                   ["conv2d.backward", 1, 100.0, 100.0],
                   ["sgd.step", 1, 2010.0, 400.0],
                   ["server.aggregate", 0, 2900.0, 50.0],
                   ["conv2d.forward", 1, 1500.0, 999.0]]  # outside every step
        trajectory = {"wall_s": [1.0, 1.0, 1.0], "iterations": [9, 8, 8],
                      "attempted": [4, 4, 4], "bytes_sent": [0, 10, 30],
                      "eager_bytes": [0, 5, 5], "offline": [0, 1, 1],
                      "live_loader_bytes": 64}
        doc = {"schedule": {"batch_size": 4, "warmup_steps": 1},
               "provenance": {"workers": 2},
               "bench_spans": bench, "program_spans": program, "traced": trajectory,
               "counters": {"engine.client_rounds": {"value": 8.0},
                            "fedca.early_stops": {"value": 2.0},
                            "fedca.eager_layers": {"value": 4.0},
                            "fedca.retransmissions": {"value": 1.0},
                            "async.staleness": {"value": 0.0, "p50": 3.0}}}
        m, info = fold.per_layer(doc)
        self.assertEqual(m["nn.conv1.forward_us"], 10.0)
        self.assertEqual(m["nn.conv1.backward_us"], 30.0)
        self.assertEqual(m["nn.fc.forward_us"], 5.0)
        self.assertEqual(m["nn.other.forward_us"], 1.0)
        self.assertEqual(m["nn.rnn.forward_us"], 0.0)
        self.assertEqual(info["layer_sum_share"], 1.0)
        self.assertEqual(fold.check_layer_sum(info), [])
        self.assertEqual(m["tensor.conv_backward_gemm_us"], 4 * 1.5)
        self.assertEqual(m["tensor.conv_backward_im2col_us"], 4 * 0.25)
        self.assertEqual(m["sim.lease_us"], 2.0)
        # Three sgd.step spans lie inside traced steps: per-iteration conv time.
        self.assertAlmostEqual(m["nn.conv2d.forward_inround_us"], 40.0 / 3)
        self.assertAlmostEqual(m["nn.conv2d.backward_inround_us"], 100.0 / 3)
        self.assertEqual(m["fl.sgd_step_inround_us"], 400.0)
        self.assertEqual(m["fl.aggregate_us"], 50.0)
        self.assertEqual(m["fl.train_busy_share"], 1200.0 / (2 * 2000.0))
        self.assertEqual(m["fl.evaluate_ms"], 0.03)
        self.assertEqual(m["obs.trace_overhead"], 1000.0 / 800.0)
        self.assertEqual(m["core.early_stop_share"], 0.25)
        self.assertEqual(m["core.retransmit_share"], 0.25)
        self.assertEqual(m["fl.async_staleness_p50"], 3.0)
        self.assertEqual(m["fl.iterations_per_step"], 8.0)
        self.assertEqual(m["fl.bytes_sent_per_step"], 20.0)
        self.assertEqual(m["fl.eager_bytes_share"], 0.25)
        self.assertEqual(m["sim.offline_share"], 2.0 / 14.0)
        self.assertEqual(set(m), set(fold.PER_LAYER))

    def test_end_to_end_of_a_synthetic_run(self):
        def trajectory(counted, wall, reached):
            return {"counted": counted, "wall_s": wall, "samples": [160.0] * len(wall),
                    "attempted": [4] * len(wall), "delivered": [3] * len(wall),
                    "virtual_s": [10.0] * len(wall), "final_accuracy": 0.5,
                    "virtual_s_to_target": reached, "virtual_end": [40.0]}
        timed = [0.1 * (i + 1) for i in range(20)]
        doc = {"schedule": {"warmup_steps": 1, "timed_steps": 10,
                            "counted_trajectories": 2},
               "peak_rss_mb": 12.5,
               "bench_spans": [["setup", 0.0, 2e6, 1], ["setup", 0.0, 4e6, 1],
                               ["setup", 0.0, 3e6, 1]],
               "trajectories": [trajectory(True, [5.0] + timed[:10], 20.0),
                                trajectory(True, [7.0] + timed[10:], -1.0),
                                trajectory(False, [6.0, 9.0], -1.0)]}
        m, info = fold.end_to_end(doc)
        steps = timed + [9.0]
        self.assertAlmostEqual(m["steps_per_s"], 21 / sum(steps))
        self.assertAlmostEqual(m["samples_per_s"], 160.0 * 21 / sum(steps))
        self.assertAlmostEqual(m["step_ms_p50"], 1100.0)
        self.assertEqual(info["tail_percentile"], 50.0)  # 10 beyond of 2 x 10
        self.assertEqual(m["setup_s"], 3.0)
        self.assertEqual(m["warmup_s"], 6.0)
        # The second trajectory never reached the target: its total virtual
        # time stands in.
        self.assertEqual(m["virtual_s_to_target"], 30.0)
        self.assertEqual(m["client_delivered_share"], 0.75)
        self.assertEqual(set(m), set(fold.END_TO_END))

    def test_layer_sum_share_pairs_each_repetition(self):
        # The host runs twice as fast in the second repetition; the paired
        # ratio stays exact where a ratio of medians would not.
        spans = [["probe.nn.conv1.conv1.forward", 0.0, 60.0, 1],
                 ["probe.nn.fc.fc1.backward", 0.0, 30.0, 1],
                 ["probe.nn.compute_gradients", 0.0, 100.0, 1],
                 ["probe.nn.conv1.conv1.forward", 0.0, 30.0, 1],
                 ["probe.nn.fc.fc1.backward", 0.0, 15.0, 1],
                 ["probe.nn.compute_gradients", 0.0, 50.0, 1],
                 ["probe.nn.sgd_step", 0.0, 7.0, 1]]
        self.assertAlmostEqual(fold.layer_sum_share(spans), 0.9)

    def test_layer_sum_check_flags_a_dark_layer(self):
        self.assertTrue(fold.check_layer_sum({"layer_sum_share": 0.8}))
        self.assertFalse(fold.check_layer_sum({"layer_sum_share": 1.05}))

    def test_tail_percentile_leaves_ten_steps_beyond(self):
        self.assertEqual(fold.tail_percentile(40), 75.0)
        with self.assertRaises(ValueError):
            fold.tail_percentile(19)


class Command(unittest.TestCase):
    def test_command_prints_every_metric_for_every_workload(self):
        for workload in run.WORKLOADS:
            fingerprints = []
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_benchmark(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(isinstance(metric["value"], (int, float)), name)
                    fingerprints += [ln.split()[1] for ln in lines
                                     if ln.startswith("fingerprint ")]
            self.assertEqual(len(set(fingerprints)), 1, workload)


if __name__ == "__main__":
    unittest.main()
