"""Performance harness behind ``benchmarks/bench_perf_crawl.py``,
``benchmarks/bench_perf_analysis.py`` and ``scripts/perf_report.py``.

Times the three pipeline stages at a fixed scale — site generation, the
crawl (per backend), and the analyses — plus the persistent measurement
cache (cold write vs warm load), and assembles everything into the
``BENCH_crawl.json`` document that seeds the perf trajectory.
:func:`collect_analysis` produces the companion ``BENCH_analysis.json``:
the legacy (pre-index) analysis pipeline against the shared-index one.

All timings are wall clock over deterministic work, so run-to-run noise is
scheduling only; the report records the host's CPU count because the
process backend's speedup is bounded by it (single-core runners can't show
one, and the CI gate skips enforcement there).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.legacy import summarize_legacy
from repro.analysis.summary import summarize
from repro.crawler.pool import CrawlerPool
from repro.experiments import runner
from repro.obs import REGISTRY, TRACER, observed
from repro.obs import metrics as _metrics
from repro.policy.memo import clear_parser_caches, parser_caches_disabled
from repro.synthweb.generator import SyntheticWeb

DEFAULT_BACKENDS = ("serial", "process")


def _timed(fn: Callable[[], object]) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def time_webgen(site_count: int, seed: int) -> dict:
    """Generate every site spec once (cold caches)."""
    web = SyntheticWeb(site_count, seed=seed)
    seconds, _ = _timed(lambda: [web.site(rank) for rank in
                                 range(site_count)])
    return {"seconds": round(seconds, 4),
            "sites_per_second": round(site_count / seconds, 1)}


def time_crawl(site_count: int, seed: int, workers: int,
               backends: Sequence[str] = DEFAULT_BACKENDS) -> dict:
    """Crawl the same web once per backend; verifies identical results.

    The process backend's realised adaptive chunk schedule and warm-pool
    stats are recorded alongside its timing (CI uploads the schedule as
    an artifact via ``BENCH_chunk_schedule.json``).
    """
    from repro.crawler.backends import shutdown_warm_pool

    web = SyntheticWeb(site_count, seed=seed)
    timings: dict[str, dict] = {}
    reference_counts: tuple[int, int] | None = None
    for backend in backends:
        pool = CrawlerPool(web, workers=workers, backend=backend)
        seconds, dataset = _timed(pool.run)
        counts = (dataset.attempted, dataset.successful_count)
        if reference_counts is None:
            reference_counts = counts
        elif counts != reference_counts:
            raise AssertionError(
                f"backend {backend!r} diverged: {counts} != "
                f"{reference_counts}")
        timings[backend] = {
            "seconds": round(seconds, 4),
            "sites_per_second": round(site_count / seconds, 1),
            "workers": 1 if backend == "serial" else workers,
        }
        if pool.last_chunk_schedule is not None:
            timings[backend]["chunk_schedule"] = pool.last_chunk_schedule
            timings[backend]["run_stats"] = pool.last_run_stats
    shutdown_warm_pool()
    return timings


def time_analysis(site_count: int, seed: int) -> dict:
    """Summarize a freshly crawled dataset (the Section 4 aggregate)."""
    web = SyntheticWeb(site_count, seed=seed)
    dataset = CrawlerPool(web, workers=1, backend="serial").run()
    seconds, _ = _timed(lambda: summarize(dataset))
    return {"seconds": round(seconds, 4)}


def collect_analysis(site_count: int, *, seed: int = runner.DEFAULT_SEED,
                     rounds: int = 3) -> dict:
    """The BENCH_analysis.json document: legacy (pre-index) summarize vs
    the indexed serial and parallel paths, over one crawl.

    The legacy path is timed with parser interning disabled so it pays the
    same re-parse cost the pre-index pipeline paid; the indexed paths start
    from cleared caches every round so they are charged their own parse
    work.  Each path is timed ``rounds`` times and the minimum wall clock
    is reported (the least-noise estimate of the true cost — the work is
    deterministic, so anything above the minimum is scheduling jitter).
    The document also records whether all three summaries are
    field-identical — the equivalence the differential tests enforce.
    """
    web = SyntheticWeb(site_count, seed=seed)
    dataset = CrawlerPool(web, workers=1, backend="serial").run()

    legacy_seconds = float("inf")
    for _ in range(rounds):
        with parser_caches_disabled():
            seconds, legacy_summary = _timed(
                lambda: summarize_legacy(dataset))
        legacy_seconds = min(legacy_seconds, seconds)

    serial_seconds = float("inf")
    for _ in range(rounds):
        clear_parser_caches()
        seconds, serial_summary = _timed(
            lambda: summarize(dataset, parallel=False))
        serial_seconds = min(serial_seconds, seconds)

    parallel_seconds = float("inf")
    for _ in range(rounds):
        clear_parser_caches()
        seconds, parallel_summary = _timed(
            lambda: summarize(dataset, parallel=True))
        parallel_seconds = min(parallel_seconds, seconds)

    # Per-stage breakdown of the indexed pipeline: index build, then each
    # headline analysis over the shared index.
    from repro.analysis.delegation import DelegationAnalysis
    from repro.analysis.headers import HeaderAnalysis
    from repro.analysis.index import DatasetIndex
    from repro.analysis.overpermission import OverPermissionAnalysis
    from repro.analysis.usage import UsageAnalysis

    clear_parser_caches()
    stages = []
    index_seconds, index = _timed(lambda: DatasetIndex(dataset))
    stages.append({"name": "index", "seconds": round(index_seconds, 4)})
    for name, analysis_cls in (("usage", UsageAnalysis),
                               ("delegation", DelegationAnalysis),
                               ("headers", HeaderAnalysis),
                               ("overpermission", OverPermissionAnalysis)):
        seconds, _ = _timed(lambda cls=analysis_cls: cls(index))
        stages.append({"name": name, "seconds": round(seconds, 4)})

    return {
        "stages": stages,
        "site_count": site_count,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "legacy_seconds": round(legacy_seconds, 4),
        "indexed_serial_seconds": round(serial_seconds, 4),
        "indexed_parallel_seconds": round(parallel_seconds, 4),
        "speedup_serial_vs_legacy": round(legacy_seconds / serial_seconds, 2),
        "speedup_parallel_vs_legacy": round(
            legacy_seconds / parallel_seconds, 2),
        "summaries_identical": (legacy_summary == serial_summary
                                == parallel_summary),
    }


def _disabled_hook_costs(iterations: int = 200_000) -> tuple[float, float]:
    """Per-call wall-clock cost of each kind of *disabled* hook.

    Returns ``(span_cost, gate_cost)``: a disabled span site pays a
    null-span enter/exit, while a disabled metric site pays only the
    ``COUNTING`` attribute check — the two must be charged separately
    because metric sites outnumber span sites by orders of magnitude.
    Timed over many iterations so the estimate is stable."""
    assert not TRACER.enabled and not _metrics.COUNTING
    registry = _metrics.REGISTRY
    start = time.perf_counter()
    for _ in range(iterations):
        with TRACER.span("bench.noop"):
            pass
    span_cost = (time.perf_counter() - start) / iterations
    start = time.perf_counter()
    for _ in range(iterations):
        if _metrics.COUNTING:  # pragma: no cover - off by construction
            registry.counter("bench.noop").inc()
    gate_cost = (time.perf_counter() - start) / iterations
    return span_cost, gate_cost


def _metric_increments(snapshot: dict) -> int:
    """How many metric-recording events produced ``snapshot``."""
    return (sum(snapshot.get("counters", {}).values())
            + len(snapshot.get("gauges", {}))
            + sum(h["count"] for h in snapshot.get("histograms", {}).values()))


def time_observability(site_count: int, seed: int, *,
                       rounds: int = 3) -> dict:
    """Cost of the observability layer on the crawl, off and on.

    The same serial crawl runs ``rounds`` times per arm — pinned to the
    serial backend so every hook fires, and is counted, in this process
    and both arms time the same work — instrumentation off
    (the default) and on (tracing + metrics) — with the interned parser
    caches cleared before *every* run so neither arm inherits the other's
    warm caches (the original single-pass A/B ran "off" cold and "on"
    warm, which reported a negative enabled overhead).  Each arm reports
    its best-of-N wall clock: the work is deterministic, so the minimum
    is the least-noise estimate and both minima land on equally warmed
    engine memos.

    The *enabled* overhead is measured directly; the *disabled* overhead
    — the <2 % gate the benchmarks assert — cannot be measured against a
    nonexistent uninstrumented build, so it is estimated from the hook
    counts the enabled run recorded, charging span sites and
    ``COUNTING``-gate sites their separately micro-timed disabled costs,
    over the disabled runtime.  The result also records that both arms
    produced equal datasets — the never-changes-dataset-bytes invariant.
    """
    from repro.crawler.telemetry import CrawlTelemetry

    web = SyntheticWeb(site_count, seed=seed)
    pool = CrawlerPool(web, workers=1, backend="serial")

    off_seconds = float("inf")
    on_seconds = float("inf")
    span_count = 0
    increments = 0
    for _ in range(rounds):
        clear_parser_caches()
        seconds, dataset_off = _timed(
            lambda: pool.run(telemetry=CrawlTelemetry()))
        off_seconds = min(off_seconds, seconds)
        clear_parser_caches()
        with observed():
            seconds, dataset_on = _timed(
                lambda: pool.run(telemetry=CrawlTelemetry()))
            span_count = TRACER.span_count()
            increments = _metric_increments(REGISTRY.snapshot())
        on_seconds = min(on_seconds, seconds)

    span_cost, gate_cost = _disabled_hook_costs()
    estimate = (span_count * span_cost + increments * gate_cost) / off_seconds
    return {
        "rounds": rounds,
        "off_seconds": round(off_seconds, 4),
        "on_seconds": round(on_seconds, 4),
        "enabled_overhead": round(on_seconds / off_seconds - 1.0, 4),
        "span_count": span_count,
        "metric_increments": increments,
        "disabled_span_seconds": span_cost,
        "disabled_gate_seconds": gate_cost,
        "disabled_overhead_estimate": round(estimate, 6),
        "datasets_identical": dataset_on == dataset_off,
    }


def time_guards(site_count: int, seed: int, *, workers: int = 4) -> dict:
    """Cost of the hostile-input guard layer (DESIGN.md §4g), off and on.

    Two crawls of the same web: guards off (the default) and on with
    *generous* caps that never trigger — so the guarded dataset must be
    byte-identical to the unguarded one.  The direct A/B timing is
    recorded but noisy at bench scale, so the enforced gate uses the same
    component-cost estimate as the observability gate: the per-fetch cost
    of the guard wrapper is micro-timed on a warmed (memoized) response,
    charged once per fetch the crawl performs, over the unguarded
    runtime.
    """
    from repro.crawler.crawler import CrawlConfig
    from repro.crawler.fetcher import SyntheticFetcher
    from repro.crawler.guards import GuardedFetcher, ResourceGuards

    guards = ResourceGuards(
        max_header_bytes=1 << 20, max_script_bytes=1 << 22,
        max_allow_attr_length=1 << 16, max_frames_per_visit=100_000,
        watchdog_deadline_seconds=1e6, breaker_failure_threshold=1_000)
    web = SyntheticWeb(site_count, seed=seed)
    off_seconds, dataset_off = _timed(
        lambda: CrawlerPool(web, workers=workers).run())
    on_seconds, dataset_on = _timed(
        lambda: CrawlerPool(web, workers=workers,
                            config=CrawlConfig(guards=guards)).run())

    # Guards are charged per fetch; count the fetches a serial sample
    # performs (deterministic, identical in every backend).
    class _CountingFetcher:
        def __init__(self, inner: object) -> None:
            self.inner = inner
            self.count = 0

        def fetch(self, url: str) -> object:
            self.count += 1
            return self.inner.fetch(url)

    counting = _CountingFetcher(SyntheticFetcher(web))
    sample = min(site_count, 200)
    CrawlerPool(web, workers=1, backend="serial",
                fetcher_factory=lambda: counting).run(range(sample))
    fetches_per_site = counting.count / sample

    # Micro-time the wrapper over a warmed response so the delta is the
    # guard layer itself, not the synthetic network.
    raw = SyntheticFetcher(web)
    guarded = GuardedFetcher(SyntheticFetcher(web), guards)
    url = next(u for u in (web.origin_for_rank(rank)
                           for rank in range(site_count))
               if _fetch_succeeds(raw, u))
    guarded.fetch(url)
    iterations = 2_000
    raw_cost = _timed(lambda: [raw.fetch(url)
                               for _ in range(iterations)])[0] / iterations
    guarded_cost = _timed(lambda: [guarded.fetch(url) for _ in
                                   range(iterations)])[0] / iterations
    per_fetch = max(0.0, guarded_cost - raw_cost)
    estimate = per_fetch * fetches_per_site * site_count / off_seconds
    return {
        "off_seconds": round(off_seconds, 4),
        "on_seconds": round(on_seconds, 4),
        "enabled_overhead_direct": round(on_seconds / off_seconds - 1.0, 4),
        "fetches_per_site": round(fetches_per_site, 2),
        "per_fetch_guard_seconds": per_fetch,
        "guard_overhead_estimate": round(estimate, 6),
        "datasets_identical": dataset_on.visits == dataset_off.visits,
    }


def _fetch_succeeds(fetcher: object, url: str) -> bool:
    try:
        fetcher.fetch(url)
    except Exception:
        return False
    return True


def time_cache(site_count: int, seed: int, cache_dir: Path) -> dict:
    """Cold crawl-and-store vs warm load of the measurement cache."""
    previous_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    saved_cache = dict(runner._CACHE)
    try:
        runner._CACHE.clear()
        cold_seconds, _ = _timed(
            lambda: runner.run_measurement(site_count, seed=seed))
        runner._CACHE.clear()
        warm_seconds, _ = _timed(
            lambda: runner.run_measurement(site_count, seed=seed))
    finally:
        runner._CACHE.clear()
        runner._CACHE.update(saved_cache)
        if previous_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous_env
    return {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_over_cold": round(warm_seconds / cold_seconds, 4),
    }


#: The process-vs-serial 2x gate only means something with real cores and
#: enough sites to amortise worker warm-up; below either threshold the
#: gate is recorded under ``gates_skipped`` instead of silently passing.
PROCESS_2X_MIN_CPUS = 4
PROCESS_2X_MIN_SITES = 10_000
PROCESS_SPEEDUP_BOUND = 2.0


def check_crawl_gates(report: dict) -> "tuple[dict, list[dict]]":
    """``(gates, gates_skipped)`` for a BENCH_crawl.json document.

    Gates the runner cannot meaningfully evaluate (process speedups on a
    single-core container) are listed in ``gates_skipped`` with the
    reason, so a green report never hides an unexercised claim.
    """
    cpus = report.get("cpu_count") or 1
    crawl = report["crawl"]
    obs = report["observability"]
    gates = {
        "obs_datasets_identical": obs["datasets_identical"],
        "disabled_obs_overhead_bound": 0.02,
        "disabled_obs_overhead_under_bound":
            obs["disabled_overhead_estimate"] < 0.02,
    }
    skipped: list[dict] = []
    if "process" not in crawl or "serial" not in crawl:
        skipped.append({"gate": "process_2x_serial",
                        "reason": "process/serial backends not both timed"})
        return gates, skipped
    if cpus >= 2:
        gates["process_not_slower_than_serial"] = (
            crawl["process"]["seconds"] <= crawl["serial"]["seconds"])
    else:
        skipped.append({
            "gate": "process_not_slower_than_serial",
            "reason": f"single-core host (cpu_count={cpus}): the process "
                      "backend has nothing to parallelise against"})
    if cpus >= PROCESS_2X_MIN_CPUS and report["site_count"] >= \
            PROCESS_2X_MIN_SITES:
        speedup = round(crawl["serial"]["seconds"]
                        / crawl["process"]["seconds"], 2)
        gates["process_speedup_bound"] = PROCESS_SPEEDUP_BOUND
        gates["process_speedup_vs_serial"] = speedup
        gates["process_2x_serial"] = speedup >= PROCESS_SPEEDUP_BOUND
    else:
        skipped.append({
            "gate": "process_2x_serial",
            "reason": f"needs >= {PROCESS_2X_MIN_CPUS} CPUs (have {cpus}) "
                      f"and >= {PROCESS_2X_MIN_SITES} sites (have "
                      f"{report['site_count']})"})
    return gates, skipped


def collect(site_count: int, *, seed: int = runner.DEFAULT_SEED,
            workers: int = 4,
            backends: Sequence[str] = DEFAULT_BACKENDS,
            cache_dir: Path | None = None) -> dict:
    """The full BENCH_crawl.json document for one scale."""
    import tempfile

    if cache_dir is None:
        cache_dir = Path(tempfile.mkdtemp(prefix="perm-odyssey-bench-"))
    report = {
        "site_count": site_count,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "code_fingerprint": runner.code_fingerprint(),
        "webgen": time_webgen(site_count, seed),
        "crawl": time_crawl(site_count, seed, workers, backends),
        "analysis": time_analysis(site_count, seed),
        "cache": time_cache(site_count, seed, cache_dir),
        "observability": time_observability(site_count, seed),
        "stages": collect_stages(site_count, seed=seed, workers=workers),
    }
    report["gates"], report["gates_skipped"] = check_crawl_gates(report)
    return report


def collect_stages(site_count: int, *, seed: int = runner.DEFAULT_SEED,
                   workers: int = 4, backend: str = "auto") -> dict:
    """Per-stage pipeline breakdown (embedded in the BENCH documents)."""
    from repro.obs.profile import profile_pipeline

    return profile_pipeline(site_count, seed=seed, workers=workers,
                            backend=backend).to_json()


def write_report(report: dict, path: "str | Path") -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
