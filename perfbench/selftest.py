"""Tiny-size self-test of the benchmark.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
It checks that

* every workload emits every metric named in ``BENCHMARK.json``, with its
  unit, and passes its output checks;
* another seed gives other inputs while the checks still pass;
* in each traced phase, the layer self times plus ``unaccounted_s`` add up
  to the phase wall time, and no spans overlapped.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_source()

import crawl_pipeline  # noqa: E402
import layers  # noqa: E402
import policy_service  # noqa: E402
import stored_reanalysis  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TINY_SITES = 200

# Shrink the service workload to a few seconds.
policy_service.CORPUS_SITES = 600
policy_service.EVALUATE_BODIES = 300
policy_service.WARM_REQUESTS = 300
policy_service.REFERENCE_SECONDS = 0.5
policy_service.LADDER_RPS = (1000,)
policy_service.LADDER_STEP_SECONDS = 0.5
policy_service.BATCH = 300
policy_service.SAMPLED_RESPONSES = 10


class _Workdir(unittest.TestCase):
    def setUp(self) -> None:
        self.work = common.fresh_dir(
            common.WORK_ROOT / f"selftest-{self.id().rsplit('.', 1)[-1]}")

    def tearDown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def measure(self, workload: str, seed: int, trace: bool = False):
        module = sys.modules[WORKLOADS[workload]]
        run = module.traced if trace else module.measure
        if module is policy_service:
            return run(seed, 0.1, self.work)
        return run(seed, 0.1, self.work, sites=TINY_SITES)

    def assert_clean(self, result: dict) -> None:
        self.assertEqual(result["checks"].failures, [])
        self.assertGreater(result["checks"].attempted, 0)


class MetricsEmitted(_Workdir):
    def test_spec_lists_every_per_layer_metric(self) -> None:
        self.assertEqual([m["name"] for m in SPEC["per_layer"]],
                         list(layers.PER_LAYER_UNITS))
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(WORKLOADS))

    def test_end_to_end_metrics_with_units(self) -> None:
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.measure(workload, 5)
                self.assert_clean(result)
                units = {name: unit for name, (value, unit)
                         in result["metrics"].items()}
                self.assertEqual(units, expected)
                for name, (value, _) in result["metrics"].items():
                    self.assertGreater(value, 0, name)

    def test_per_layer_metrics_with_units(self) -> None:
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.measure(workload, 5, trace=True)
                self.assert_clean(result)
                self.assertEqual({name: entry["unit"] for name, entry
                                  in result["metrics"].items()}, expected)
                self.assert_ledgers_close(result)

    def assert_ledgers_close(self, result: dict) -> None:
        metrics = result["metrics"]
        span_metrics = set(layers.SPAN_METRIC.values())
        walls = 0.0
        for phase, ledger in result["ledgers"].items():
            walls += ledger["wall_s"]
            self.assertTrue(math.isclose(
                sum(ledger["self_s"].values()) + ledger["unaccounted_s"],
                ledger["wall_s"], rel_tol=1e-9, abs_tol=1e-9), phase)
            self.assertGreaterEqual(ledger["unaccounted_s"], -1e-6, phase)
            self.assertEqual(metrics[f"{phase}.unaccounted_s"]["value"],
                             ledger["unaccounted_s"])
        booked = sum(metrics[name]["value"] for name in span_metrics) + sum(
            metrics[f"{phase}.unaccounted_s"]["value"]
            for phase in layers.PHASES)
        self.assertTrue(math.isclose(booked, walls, rel_tol=1e-9))


class SeedsChangeInputs(_Workdir):
    def test_crawl_pipeline(self) -> None:
        refs = [crawl_pipeline.reference(seed, TINY_SITES) for seed in (5, 6)]
        self.assertNotEqual(refs[0]["summary_digest"],
                            refs[1]["summary_digest"])
        self.assert_clean(self.measure("crawl-pipeline", 6))

    def test_stored_reanalysis(self) -> None:
        refs = [stored_reanalysis.reference(seed, TINY_SITES)
                for seed in (5, 6)]
        self.assertNotEqual(refs[0]["drift_stdout_sha256"],
                            refs[1]["drift_stdout_sha256"])
        self.assert_clean(self.measure("stored-reanalysis", 6))

    def test_policy_service(self) -> None:
        corpora = [policy_service.Corpus(seed) for seed in (5, 6)]
        self.assertNotEqual(corpora[0].evaluate, corpora[1].evaluate)
        streams = [policy_service.RequestStream(corpora[0], seed)
                   for seed in (5, 6)]
        self.assertNotEqual(streams[0].poisson(500, 1.0),
                            streams[1].poisson(500, 1.0))
        self.assert_clean(self.measure("policy-service", 6))


class ServiceUnthrottled(_Workdir):
    def test_no_request_rate_limited(self) -> None:
        result = self.measure("policy-service", 7)
        self.assert_clean(result)
        self.assertEqual(result["detail"]["rate_limited"], 0)
        self.assertGreaterEqual(result["detail"]["batches"],
                                policy_service.MIN_BATCHES)


class PolicyDecisions(unittest.TestCase):
    def test_nested_engine_calls_count_once(self) -> None:
        from spans import SpanRecorder, SpanTable

        rec = SpanRecorder("nested")
        outer = rec.open("policy.eval")  # can_delegate
        inner = rec.open("policy.eval")  # -> is_enabled
        rec.close(rec.open("policy.eval"))  # -> explain
        rec.close(inner)
        rec.close(outer)
        rec.close(rec.open("policy.eval"))  # a second, separate decision
        ledger = SpanTable.of(rec).ledger((rec.start[0], rec.end[-1]))
        self.assertEqual(ledger["calls"]["policy.eval"], 4)
        metrics = layers.per_layer_metrics({"visit": ledger}, {})
        self.assertEqual(metrics["policy.decisions"]["value"], 2)


if __name__ == "__main__":
    unittest.main()
