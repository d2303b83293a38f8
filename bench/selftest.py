"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 bench/selftest.py

Tiny-horizon runs of every workload must report every metric that
``BENCHMARK.json`` names, with its unit; faults planted from the benchmark
side must be counted as failed episodes; the reference-speed sampler must
sample during a block and leave the signal state as it found it; a
checkout without the package must make ``run.py`` exit non-zero without
printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
import types
import unittest
from unittest import mock

import numpy as np

import bootstrap
import refloop
import run
import tracing
from workloads import WORKLOADS

TINY_TURNS = 200
SEED = 11


def _spec() -> dict:
    return json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name: str, trace: bool) -> dict:
    return run.run(name, SEED, seconds=0.01, trace=trace, turns=TINY_TURNS)


class TinyRuns(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        spec = _spec()
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result = _tiny(name, trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    self.assertTrue(result["correct"], result["detail"]["problems"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], float)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in _spec()["workloads"]], list(WORKLOADS))


class PlantedFaults(unittest.TestCase):
    def _runner(self):
        return bootstrap.import_package().runner

    def test_dropped_reports_fail(self):
        runner = self._runner()
        disseminate = runner.disseminate

        def own_report_only(outcome, graph):
            return [inbox[:1] for inbox in disseminate(outcome, graph)]

        with mock.patch.object(runner, "disseminate", own_report_only):
            result = _tiny("sweep_thompson", trace=True)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_zeroed_payouts_fail(self):
        runner = self._runner()
        env_step = runner.env_step

        def zero_payouts(*args, **kwargs):
            outcome = env_step(*args, **kwargs)
            return dataclasses.replace(outcome, arm_rewards=np.zeros_like(outcome.arm_rewards),
                                       realized_rewards=np.zeros_like(outcome.realized_rewards))

        for name in WORKLOADS:
            with self.subTest(workload=name), mock.patch.object(runner, "env_step", zero_payouts):
                result = _tiny(name, trace=False)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_absent_layer_is_reported_not_fatal(self):
        stub = types.SimpleNamespace(env_step=lambda *a: None)
        tracer = tracing.Tracer()
        with tracing.installed(tracer, stub):
            pass
        self.assertEqual(tracer.absent, set(tracing.RUNNER_NAMES) - {"env_step"})
        self.assertEqual(tracing.layer_metrics(tracer)["network.disseminate.us_per_turn"], 0.0)


class ReferenceSpeed(unittest.TestCase):
    def test_samples_during_block_and_restores_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with refloop.Speed() as speed:
            time.sleep(3 * refloop.INTERVAL_S)
        self.assertGreaterEqual(len(speed.loops), 4)  # before, >= 2 during, after
        self.assertGreater(speed.spent, 0.0)
        self.assertGreater(speed.scale(), 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class MissingPackage(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = bootstrap.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(bootstrap.ROOT / "bench", bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "gossip_dense", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    run.SETUP_REPEATS = 1
    unittest.main()
