#!/usr/bin/env python3
"""The benchmark's own test, on short runs (1 s windows):

    python3 perfbench/test_perfbench.py

* every metric BENCHMARK.json names is printed, with its unit, on every
  workload (end-to-end with --trace 0, per-layer with --trace 1), and every
  end-to-end value is positive;
* the deterministic counts repeat exactly across two runs with one seed;
* a tampered winner fed to the certifier fails the run.
"""
import functools
import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7
DETERMINISTIC = {
    0: ["plan_value_gmean"],
    1: ["sched.probes_per_call", "io.request_bytes", "io.response_bytes"],
}


def run(workload, trace=0, tamper=0):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--tamper", str(tamper)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@functools.lru_cache(maxsize=None)
def first_run(workload, trace):
    return run(workload, trace)


class BenchmarkTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = first_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    promised = {m["name"]: m["unit"] for m in SPEC[key]}
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, promised)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_deterministic_counts_repeat_for_a_seed(self):
        for workload in WORKLOADS:
            for trace, names in DETERMINISTIC.items():
                with self.subTest(workload=workload, trace=trace):
                    _, a = first_run(workload, trace)
                    _, b = run(workload, trace)
                    for name in names:
                        self.assertEqual(a["metrics"][name]["value"],
                                         b["metrics"][name]["value"], name)

    def test_tampered_winner_is_caught(self):
        # fleet_hot and drift_replay share the open-loop certifier;
        # orchestrate_dag has its own.
        for workload in ("fleet_hot", "orchestrate_dag"):
            with self.subTest(workload=workload):
                code, result = run(workload, tamper=1)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
