"""Workload ``crawl-pipeline``: crawl into a fresh store, verify, analyze.

Each measured pass runs the real CLI, one process per command, the way a
user runs the paper's pipeline: ``crawl --no-collect --backend process``
over a 5,000-site synthetic web, then ``verify-store``, then
``analyze --database --workers <nproc>``.  One caller, closed loop.
"""

from __future__ import annotations

import json
import time

from common import (CPUS, Checks, Phase, cached_reference, cli, fresh_dir,
                    median, program_env, run_phase, sha256_text,
                    spans_path, summary_digest, timed_passes)

SITES = 5_000
SETUPS = 5


def reference(seed: int, sites: int = SITES) -> dict:
    """The serial in-memory path: crawl without a store, ``summarize``."""
    from repro.analysis.report import render_comparison
    from repro.analysis.summary import summarize
    from repro.crawler.pool import CrawlerPool
    from repro.synthweb.generator import SyntheticWeb

    web = SyntheticWeb(sites, seed=seed)
    dataset = CrawlerPool(web, workers=1, backend="serial").run()
    summary = summarize(dataset, parallel=False)
    return {
        "summary_digest": summary_digest(summary),
        "analyze_stdout_sha256": sha256_text(
            render_comparison(summary.compare_to_paper()) + "\n"),
    }


def _setup(seed: int, sites: int, work, env, checks: Checks) -> float:
    """A fresh run directory plus the crawl's input list (``export-list``).

    The crawl CLI takes ``--sites``/``--seed`` and generates its site list
    itself, so it does not read ``origins.csv``: this set-up times the
    same input generation through the CLI, as a proxy for the crawl's own.
    """
    start = time.perf_counter()
    run_dir = fresh_dir(work / "run")
    phase = run_phase("export-list", cli(
        "export-list", "--sites", str(sites), "--seed", str(seed),
        "--output", "origins.csv"), work=run_dir, env=env)
    lines = (run_dir / "origins.csv").read_text().count("\n") \
        if phase.returncode == 0 else -1
    checks.check(lines == sites + 1,
                 f"export-list wrote {lines} lines, expected {sites + 1}")
    return time.perf_counter() - start


def _pass(seed: int, sites: int, work, env, checks: Checks,
          ref: dict) -> "list[Phase]":
    run_dir = work / "run"
    db = run_dir / "crawl.sqlite"
    for stale in run_dir.glob("crawl.sqlite*"):
        stale.unlink()
    crawl = run_phase("crawl", cli(
        "crawl", "--sites", str(sites), "--seed", str(seed),
        "--database", str(db), "--no-collect", "--backend", "process",
        "--workers", str(CPUS)), work=run_dir, env=env)
    checks.check(crawl.returncode == 0
                 and f"crawled {sites} sites" in crawl.stdout,
                 f"crawl exit {crawl.returncode}: {crawl.stdout[-300:]!r}")
    verify = run_phase("verify", cli(
        "verify-store", "--database", str(db), "--json"),
        work=run_dir, env=env)
    report = _json_or_empty(verify.stdout)
    checks.check(verify.returncode == 0
                 and report.get("verified_rows") == sites
                 and report.get("corrupt_rows") == 0,
                 f"verify-store exit {verify.returncode}: "
                 f"{verify.stdout[-300:]!r}")
    analyze = run_phase("analyze", cli(
        "analyze", "--database", str(db), "--workers", str(CPUS)),
        work=run_dir, env=env)
    checks.check(analyze.returncode == 0 and sha256_text(analyze.stdout)
                 == ref["analyze_stdout_sha256"],
                 "analyze output differs from the serial in-memory "
                 "reference")
    return [crawl, verify, analyze]


def _json_or_empty(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError:
        return {}


def _check_store_digest(work, ref: dict, checks: Checks) -> None:
    from repro.analysis.summary import summarize_streaming
    from repro.crawler.storage import CrawlStore

    with CrawlStore(work / "run" / "crawl.sqlite") as store:
        digest = summary_digest(summarize_streaming(store))
    checks.check(digest == ref["summary_digest"],
                 "stored crawl's summary digest differs from the serial "
                 "in-memory reference")


def measure(seed: int, seconds: float, work, sites: int = SITES) -> dict:
    env = program_env(work)
    checks = Checks()
    ref = cached_reference(f"crawl-pipeline-{sites}-{seed}",
                           lambda: reference(seed, sites))
    setups = [_setup(seed, sites, work, env, checks) for _ in range(SETUPS)]
    passes: "list[list[Phase]]" = timed_passes(
        lambda: _pass(seed, sites, work, env, checks, ref), seconds)
    _check_store_digest(work, ref, checks)
    totals = [sum(p.wall_s for p in phases) for phases in passes]
    phase_medians = {
        name: median([phases[i].wall_s for phases in passes])
        for i, name in enumerate(("crawl", "verify", "analyze"))}
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "total_s": (median(totals), "s"),
            "cpu_s": (median([sum(p.cpu_s for p in phases)
                              for phases in passes]), "s"),
            "peak_rss_mb": (max(p.peak_rss_mb for phases in passes
                                for p in phases), "MiB"),
        },
        "checks": checks,
        "detail": {
            "sites": sites, "backend": "process", "workers": CPUS,
            "analyze_workers": CPUS, "passes": len(passes),
            "setups": len(setups), "setup_runs_s": setups,
            "pass_totals_s": totals,
            **{f"{name}_s": value for name, value in phase_medians.items()},
        },
    }


def traced(seed: int, seconds: float, work, sites: int = SITES) -> dict:
    """Per-layer run.  Process workers are out of the wrappers' sight, so
    the per-visit layers come from one in-process serial pass; the
    production process pass is traced on the parent side only."""
    from repro.crawler.pool import CrawlerPool
    from repro.crawler.storage import CrawlStore
    from repro.obs import metrics
    from repro.synthweb.generator import SyntheticWeb

    import layers
    from spans import SpanRecorder

    checks = Checks()
    ref = cached_reference(f"crawl-pipeline-{sites}-{seed}",
                           lambda: reference(seed, sites))
    rec = SpanRecorder(f"crawl-pipeline-{seed}")
    run_dir = fresh_dir(work / "run")

    def serial_visits(count: int) -> None:
        web = SyntheticWeb(sites, seed=seed)
        pool = CrawlerPool(web, workers=1, backend="serial")
        for lo in range(0, count, 1000):
            pool.run(list(range(lo, min(count, lo + 1000))))

    def process_crawl(path) -> CrawlerPool:
        for stale in path.parent.glob(path.name + "*"):
            stale.unlink()
        web = SyntheticWeb(sites, seed=seed)
        pool = CrawlerPool(web, workers=CPUS, backend="process")
        with CrawlStore(path) as store:
            pool.run(store=store, collect=False)
        return pool

    def verify(path):
        with CrawlStore(path) as store:
            return store.verify()

    def analyze(path):
        import repro.analysis.summary as summary_mod
        with CrawlStore(path) as store:
            return summary_mod.summarize_streaming(store)

    phases = layers.TracedPhases(rec)
    serial_visits(200)  # imports and lazy module state, before either run

    def visits() -> None:
        metrics.REGISTRY.reset()  # the counts read below are the last run's
        serial_visits(sites)

    metrics.enable_metrics()  # both runs count, for the explain-memo rate
    try:
        phases.run("visit", layers.wrap_visit_layers, visits)
    finally:
        metrics.disable_metrics()
    counters = metrics.REGISTRY.snapshot().get("counters", {})
    hits = counters.get("policy.explain_memo_hits", 0)
    misses = counters.get("policy.explain_memo_misses", 0)

    db = run_dir / "crawl.sqlite"
    pool = phases.run("crawl", layers.wrap_pool_layers, process_crawl, db)
    report = phases.run("verify", layers.wrap_read_layers, verify, db)
    checks.check(report.ok and report.verified_rows == sites,
                 "traced verify is not clean")
    summary = phases.run("analyze", layers.wrap_read_layers, analyze, db)
    checks.check(summary_digest(summary) == ref["summary_digest"],
                 "traced analyze digest differs from the reference")

    ledgers = phases.ledgers()
    counts = {
        "policy.memo_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "pool.chunks": (pool.last_run_stats or {}).get("chunks", 0),
        "storage.bytes_per_visit": db.stat().st_size / sites,
        "trace.overhead": phases.overhead(),
    }
    rec.dump(spans_path("crawl-pipeline", seed))
    return {
        "metrics": layers.per_layer_metrics(ledgers, counts,
                                             rec.exhausted),
        "checks": checks,
        "ledgers": ledgers,
        "detail": {"sites": sites, "backend": "serial+process",
                   "workers": CPUS, "spans": len(rec),
                   "bare_s": phases.bare_s},
    }
