"""Benchmark: the crawl pipeline's wall-clock profile across backends.

Unlike the table/figure benches, this one times the *machinery*: site
generation, the crawl under each backend, analysis, and the persistent
measurement cache — and writes ``BENCH_crawl.json`` at the repository root
so the perf trajectory is tracked in-repo (CI uploads it as an artifact).

Scale comes from ``REPRO_PERF_SITES`` (default 2,000; CI smoke uses 500).
Enforcement: the process backend must not be slower than serial on
multi-core hosts, and must beat serial by >= 2x on a >= 4-core runner at
>= 10k sites (the warm-worker-pool claim); gates the runner cannot
evaluate are recorded under ``gates_skipped`` with the reason.  The
observability layer must stay under 2 % estimated overhead when disabled
and must not change the dataset when enabled (DESIGN.md §4f).  The
process backend's realised adaptive chunk schedule is written to
``BENCH_chunk_schedule.json`` (CI uploads it as an artifact).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.perf import collect, write_report

REPORT_PATH = Path(__file__).parent.parent / "BENCH_crawl.json"
SCHEDULE_PATH = Path(__file__).parent.parent / "BENCH_chunk_schedule.json"
PERF_SITES = int(os.environ.get("REPRO_PERF_SITES",
                                os.environ.get("REPRO_SITES", "2000")))


def test_perf_crawl_report(benchmark):
    report = benchmark.pedantic(collect, args=(PERF_SITES,),
                                kwargs={"workers": 4},
                                rounds=1, iterations=1)
    write_report(report, REPORT_PATH)

    crawl = report["crawl"]
    assert set(crawl) == {"serial", "process"}
    for timing in crawl.values():
        assert timing["seconds"] > 0

    cache = report["cache"]
    assert cache["warm_seconds"] < cache["cold_seconds"], \
        "warm cache load must beat a cold crawl"
    assert cache["warm_over_cold"] < 0.10, \
        f"warm cache hit took {cache['warm_over_cold']:.1%} of cold"

    # The process backend's autotuned chunk schedule is recorded and
    # non-empty; write it out as the CI artifact.
    schedule = crawl["process"]["chunk_schedule"]
    assert schedule["sizes"], "process backend recorded no chunk schedule"
    assert sum(schedule["sizes"]) == PERF_SITES
    SCHEDULE_PATH.write_text(json.dumps({
        "site_count": PERF_SITES,
        "schedule": schedule,
        "run_stats": crawl["process"]["run_stats"],
    }, indent=2) + "\n")

    # Backend-speedup gates: enforced when the runner can evaluate them,
    # otherwise recorded as skipped (never silently dropped).
    gates = report["gates"]
    assert "gates_skipped" in report
    skipped = {entry["gate"] for entry in report["gates_skipped"]}
    for gate in ("process_not_slower_than_serial", "process_2x_serial"):
        if gate in gates:
            assert gates[gate], (
                f"{gate} gate failed: process "
                f"{crawl['process']['seconds']}s vs serial "
                f"{crawl['serial']['seconds']}s on a "
                f"{os.cpu_count()}-core host")
        else:
            assert gate in skipped, (
                f"{gate} neither evaluated nor recorded as skipped")

    # Observability gates: disabled instrumentation must cost < 2 % of the
    # crawl (estimated from recorded hook counts × micro-timed per-hook
    # disabled cost), and enabling it must not change the dataset.
    obs = report["observability"]
    assert obs["datasets_identical"], \
        "enabling tracing/metrics changed the crawl dataset"
    assert obs["span_count"] > 0 and obs["metric_increments"] > 0, \
        "instrumented run recorded no spans/metrics"
    assert obs["disabled_overhead_estimate"] < 0.02, (
        f"disabled observability overhead estimated at "
        f"{obs['disabled_overhead_estimate']:.2%} of the crawl (gate: 2%)")
    # Both arms run best-of-N from cleared caches, so a warm-cache
    # asymmetry can no longer report enabling instrumentation as a large
    # speedup (the old single-pass A/B measured -18.7 %); anything beyond
    # scheduler noise in the negative direction is a measurement bug.
    assert obs["rounds"] >= 2
    assert obs["enabled_overhead"] > -0.02, (
        f"enabled observability measured {obs['enabled_overhead']:.2%} — "
        "a negative overhead means the off/on arms were not warmed "
        "symmetrically")

    # The embedded stage breakdown must cover the whole pipeline.
    stage_names = {stage["name"] for stage in report["stages"]["stages"]}
    assert {"generate", "crawl", "store", "index"} <= stage_names
    assert any(name.startswith("analysis.") for name in stage_names)
