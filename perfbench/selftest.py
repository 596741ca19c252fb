#!/usr/bin/env python3
"""Self-test of the benchmark: reduced-size runs report every metric named in
BENCHMARK.json with its unit, the output check rejects corrupted plans, the
nominal-speed scaling cancels a uniform slowdown, and the benchmark refuses
to run without the program's sources.

Usage, from the root of a checkout:
    python3 perfbench/selftest.py
"""

import dataclasses
import gc
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
from uav_mec.config import ExperimentConfig  # noqa: E402
from uav_mec.experiment import ResultRow  # noqa: E402
from uav_mec.orchestrator import run_scheme  # noqa: E402
from uav_mec.scenario import generate_scenario  # noqa: E402

RUN_TIMEOUT_S = 180


def run_bench(workload: str, trace: int, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False)


class ReducedRuns(unittest.TestCase):
    def test_every_named_metric_appears_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if workload == "relay_sweep":
                        self.assertGreater(result["failed"], 0)
                    else:
                        self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in spec[section]}
                    got = result["metrics"]
                    self.assertEqual(set(got), set(want))
                    for name, unit in want.items():
                        self.assertEqual(got[name]["unit"], unit, name)
                        self.assertTrue(math.isfinite(got[name]["value"]),
                                        name)

    def test_refuses_to_run_without_the_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("reference", 0, cwd=bare,
                             script=bare / HERE.name / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.scenario = generate_scenario(ExperimentConfig(), 0)
        cls.report = run_scheme(cls.scenario, "proposed")

    def problems(self, **changes):
        report = dataclasses.replace(self.report, **changes)
        return checks.check_plan(self.scenario, "proposed", report)

    def test_accepts_the_solver_plan(self):
        self.assertEqual(self.problems(), [])

    def test_rejects_beta_over_the_relay_cap(self):
        beta = self.report.beta.copy()
        beta[:] = 1
        self.assertIn("offloader count exceeds the relay cap",
                      self.problems(beta=beta))

    def test_rejects_a_misreported_objective(self):
        trace = list(self.report.objective_trace)
        trace[-1] *= 0.99
        self.assertTrue(any("re-priced" in p
                            for p in self.problems(objective_trace=trace)))

    def test_rejects_an_increasing_trace(self):
        trace = [self.report.objective_s / 2] + list(
            self.report.objective_trace)
        self.assertIn("objective trace increases",
                      self.problems(objective_trace=trace))

    def test_rejects_relay_overspend_in_a_sweep_row(self):
        row = ResultRow(seed=0, scheme="ruav_only", swept_param_name="n0_cap",
                        swept_value=4.0, objective_s=30.0, delay_stddev_s=1.0,
                        suav_exec_energy_j=1.0, ruav_energy_j=15.5,
                        outer_iters=1, wall_ms=1.0)
        self.assertEqual(checks.check_row(row, n_chunks=3,
                                          relay_budget_j=5.0),
                         [checks.RELAY_BUDGET_FAILURE])
        self.assertEqual(checks.check_row(
            dataclasses.replace(row, ruav_energy_j=14.9), n_chunks=3,
            relay_budget_j=5.0), [])


class NominalSpeed(unittest.TestCase):
    def test_a_uniform_slowdown_leaves_nominal_time_unchanged(self):
        at_speed = 40.0 * speed.scale(5.0, 7.0)
        self.assertAlmostEqual(80.0 * speed.scale(10.0, 14.0), at_speed)
        self.assertAlmostEqual(speed.scale(speed.NOMINAL_KERNEL_MS,
                                           speed.NOMINAL_KERNEL_MS), 1.0)

    def test_kernel_restores_the_collector(self):
        self.assertTrue(gc.isenabled())
        self.assertGreater(speed.kernel_ms(), 0.0)
        self.assertTrue(gc.isenabled())
        gc.disable()
        try:
            speed.kernel_ms()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()


if __name__ == "__main__":
    unittest.main()
