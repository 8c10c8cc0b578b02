#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the root of a source checkout (builds the benchmark program first):

    python3 perfbench/test_perfbench.py

They check that the result line keeps its contract, that a seed
reproduces every exact simulated count bit for bit, that the two
simulator workloads stay in the regimes they were chosen for, and that
the benchmark refuses to run outside a source tree.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own runner)

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM = [w for w in WORKLOADS if w.startswith("sim-")]

# Simulated counts that depend only on the seed, never on the host.
EXACT = [
    "core.events_per_episode",
    "core.skipped_cycle_frac",
    "sim.requests_per_event",
    "sim.grant_ratio",
    "sim.flag_share",
    "core.accesses_per_proc",
    "core.wait_cycles_mean",
]


def bench(workload, seed, trace, seconds=1):
    """Run the benchmark program once; return (result dict, stdout lines)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError("%s exited %d: %s" %
                             (cmd, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class ResultContract(unittest.TestCase):
    def test_metric_names_units_and_checks(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    res, _ = bench(w, 3, trace)
                    self.assertEqual(
                        set(res), {"correct", "attempted", "failed",
                                   "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for k, v in res["metrics"].items():
                            self.assertGreater(v["value"], 0, k)


class SimChecks(unittest.TestCase):
    def test_seed_that_samples_one_reference_episode_twice(self):
        # Seed 57 draws episode 20 twice for the runOnceReference check;
        # the second draw once compared against a moved-from result.
        res, lines = bench("sim-contended", 57, 0)
        self.assertTrue(res["correct"], "\n".join(lines))


class ExactCounts(unittest.TestCase):
    def test_same_seed_reproduces_every_exact_count(self):
        for w in SIM:
            with self.subTest(workload=w):
                a, _ = bench(w, 11, 1)
                b, _ = bench(w, 11, 1, seconds=2)
                for k in EXACT:
                    # Compare the printed digits: bit for bit.
                    self.assertEqual(json.dumps(a["metrics"][k]),
                                     json.dumps(b["metrics"][k]), k)

    def test_seed_reaches_the_arrivals(self):
        # sim-contended (A=0, FIFO) draws nothing random; sim-sparse
        # must see its arrival times change with the seed.
        a, _ = bench("sim-sparse", 11, 1)
        c, _ = bench("sim-sparse", 12, 1)
        self.assertNotEqual(a["metrics"]["core.wait_cycles_mean"],
                            c["metrics"]["core.wait_cycles_mean"])


class RegimeGuard(unittest.TestCase):
    """Fails loudly if a workload drifts out of the regime it was chosen
    to exercise (see perfbench/README.md)."""

    def metrics(self, w):
        res, _ = bench(w, 5, 1)
        return {k: v["value"] for k, v in res["metrics"].items()}

    def test_contended_reprocesses_every_requester(self):
        m = self.metrics("sim-contended")
        self.assertGreaterEqual(m["sim.requests_per_event"], 100,
                                "sim-contended is no longer contended")
        self.assertEqual(m["core.skipped_cycle_frac"], 0,
                         "sim-contended started skipping cycles")
        self.assertLess(m["sim.grant_ratio"], 0.05)

    def test_sparse_is_dominated_by_time_skips(self):
        m = self.metrics("sim-sparse")
        self.assertLessEqual(m["sim.requests_per_event"], 2,
                             "sim-sparse drifted into contention")
        self.assertGreaterEqual(m["core.skipped_cycle_frac"], 0.9,
                                "sim-sparse stopped skipping cycles")
        self.assertGreater(m["sim.grant_ratio"], 0.5)


class OutsideSourceTree(unittest.TestCase):
    def test_refuses_without_the_program_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    if not run.build():
        sys.exit("perfbench: build failed")
    unittest.main()
