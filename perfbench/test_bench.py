#!/usr/bin/env python3
"""Tests of the RootStress benchmark itself.

Run from the repository root:

    python3 perfbench/test_bench.py

Checks that:
  * BENCHMARK.json, the interaction map and the reference agree on
    workload and metric names;
  * each workload's printed metrics, traced and untraced, are exactly the
    ones BENCHMARK.json lists, with their units, and its outputs pass;
  * a corrupted reference digest or count makes the run fail non-zero.
Short runs (1 s budgets); builds the benchmark binary first if needed.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

SHORT_SECONDS = "1"


def load(name):
    with open(os.path.join(BENCH_DIR, name)) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load("../BENCHMARK.json")
        cls.imap = load("interaction_map.json")
        cls.reference = load("reference.json")
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]
        cls.binary = run.build()

    def run_bench(self, workload, trace, seed):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", SHORT_SECONDS, "--trace", str(trace)],
            capture_output=True, text=True, timeout=300)
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_documents_agree(self):
        per_layer = {m["name"] for m in self.bench["per_layer"]}
        self.assertEqual(per_layer, set(self.imap["per_layer"]))
        self.assertEqual(set(self.workloads), set(self.imap["workloads"]))
        self.assertEqual(set(self.workloads),
                         set(self.reference["workloads"]))
        for spec in self.bench["end_to_end"]:
            self.assertEqual(set(self.imap["end_to_end"][spec["name"]]),
                             set(self.workloads))
        for name, entry in self.imap["per_layer"].items():
            self.assertTrue(set(entry["workloads"]) <= set(self.workloads),
                            name)
        self.assertNotEqual(self.reference["seed"],
                            self.reference["held_out_seed"])

    def test_printed_metrics_match_benchmark_json(self):
        for workload in self.workloads:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = self.run_bench(
                        workload, trace, self.reference["held_out_seed"])
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"]
                                for m in self.bench[section]}
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    if section == "end_to_end":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def corrupted_run(self, workload, mutate):
        reference = load("reference.json")
        mutate(reference["workloads"][workload])
        path = os.path.join(run.BUILD_DIR, "corrupted-reference.json")
        with open(path, "w") as f:
            json.dump(reference, f)
        scratch = os.path.join(run.BUILD_DIR, "scratch")
        os.makedirs(scratch, exist_ok=True)
        proc = subprocess.run(
            [self.binary, "--workload", workload,
             "--seed", str(reference["seed"]), "--seconds", SHORT_SECONDS,
             "--trace", "0", "--reference", path, "--scratch", scratch],
            capture_output=True, text=True, timeout=300)
        os.remove(path)
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_corrupted_digest_fails(self):
        def flip_digest(entry):
            name = sorted(entry["digests"])[0]
            entry["digests"][name] = "0" * 16
        for workload in ("campaign_whatif", "replay_nov2015"):
            with self.subTest(workload=workload):
                proc, report = self.corrupted_run(workload, flip_digest)
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(report["correct"])
                failed = [c["name"] for c in report["checks"] if not c["ok"]]
                self.assertTrue(
                    any(n.startswith("reference.digest.") for n in failed),
                    failed)

    def test_corrupted_count_fails(self):
        def bump_count(entry):
            name = sorted(entry["counts"])[0]
            entry["counts"][name] += 1
        proc, report = self.corrupted_run("wire_loopback", bump_count)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(report["correct"])

    def test_reference_seed_passes(self):
        proc, report = self.corrupted_run("wire_loopback", lambda entry: None)
        self.assertEqual(proc.returncode, 0, report["checks"])
        self.assertTrue(any(c["name"].startswith("reference.")
                            for c in report["checks"]))


if __name__ == "__main__":
    unittest.main()
