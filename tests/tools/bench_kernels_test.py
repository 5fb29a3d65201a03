#!/usr/bin/env python3
"""Unit contract for tools/bench_kernels.py.

google-benchmark reports each row's real_time in that row's own time_unit.
The runner must convert every row to nanoseconds before writing
`real_time_ns`. A stub micro_kernels binary prints a synthetic benchmark
JSON with ns, us and ms rows; the test runs the real script against it and
checks the recorded values and the host provenance stamp (nproc and CPU
model, tools/host_provenance.py).

Run directly (python3 tests/tools/bench_kernels_test.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUNNER = os.path.join(REPO_ROOT, "tools", "bench_kernels.py")

SYNTHETIC = {
    "context": {"fedca_build_type": "release", "fedca_simd_tier": "scalar"},
    "benchmarks": [
        {"name": "BM_Axpy/65536", "run_type": "iteration",
         "real_time": 8248.7, "time_unit": "ns", "items_per_second": 8.0e9},
        {"name": "BM_ConvForward", "run_type": "iteration",
         "real_time": 253.3212, "time_unit": "us"},
        {"name": "BM_RoundThroughput/1", "run_type": "iteration",
         "real_time": 176.6, "time_unit": "ms", "items_per_second": 226.4},
        {"name": "BM_RoundThroughput/1_mean", "run_type": "aggregate",
         "real_time": 1.0, "time_unit": "ms"},
    ],
}


class RealTimeUnits(unittest.TestCase):
    def test_rows_are_recorded_in_nanoseconds(self):
        with tempfile.TemporaryDirectory(prefix="bench_kernels_") as tmp:
            stub = os.path.join(tmp, "bench", "micro_kernels")
            os.makedirs(os.path.dirname(stub))
            with open(stub, "w", encoding="utf-8") as f:
                f.write("#!%s\nimport json\nprint(json.dumps(%r))\n"
                        % (sys.executable, SYNTHETIC))
            os.chmod(stub, 0o755)
            out = os.path.join(tmp, "BENCH_kernels.json")
            proc = subprocess.run(
                [sys.executable, RUNNER, "--build", tmp, "--out", out],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(out, encoding="utf-8") as f:
                recorded = json.load(f)
        after = recorded["after"]

        self.assertEqual(after["BM_Axpy/65536"]["real_time_ns"], 8248.7)
        self.assertEqual(after["BM_ConvForward"]["real_time_ns"], 253321.2)
        self.assertEqual(after["BM_RoundThroughput/1"]["real_time_ns"],
                         176600000.0)
        self.assertEqual(after["BM_RoundThroughput/1"]["items_per_second"],
                         226.4)
        self.assertNotIn("BM_RoundThroughput/1_mean", after)

        host = recorded["host"]
        self.assertIsInstance(host["nproc"], int)
        self.assertGreaterEqual(host["nproc"], 1)
        self.assertIsInstance(host["cpu_model"], str)
        self.assertTrue(host["cpu_model"])


if __name__ == "__main__":
    unittest.main()
