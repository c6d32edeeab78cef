"""Workload ``stored-reanalysis``: re-read three stored era crawls.

Set-up builds the 2020/2022/2024 era stores with the public era helper
(``build_era_stores``, process backend).  Each measured pass runs, one
CLI process per command: ``verify-store`` on every store,
``analyze --database`` at the CLI default ``--workers 1`` on the newest,
``export-jsonl`` of the newest and ``drift-report`` over all three.
Nothing is crawled inside the timed part.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import (CPUS, Checks, Phase, cached_reference, cli, fresh_dir,
                    median, program_env, run_phase, sha256_text,
                    spans_path, summary_digest, timed_passes)

SITES = 2_000
SETUPS = 3

_BUILD = ("import sys\n"
          "from repro.experiments.drift_study import build_era_stores\n"
          "for path in build_era_stores(int(sys.argv[1]), sys.argv[2], "
          "seed=int(sys.argv[3]), workers=int(sys.argv[4]), "
          "use_cache=False):\n"
          "    print(path)\n")


def reference(seed: int, sites: int = SITES) -> dict:
    """In-memory era datasets, summarized and profiled without a store."""
    from repro.analysis.drift import profile_visits, timeline_from_metrics
    from repro.analysis.drift_report import render_timeline_text
    from repro.analysis.report import render_comparison
    from repro.analysis.summary import summarize
    from repro.crawler.backends import shutdown_warm_pool
    from repro.experiments.drift_study import STUDY_ERAS
    from repro.synthweb.eras import era_context

    profiles, labels, newest = [], [], None
    for era in STUDY_ERAS:
        ctx = era_context(era, sites, seed=seed, workers=CPUS,
                          backend="process", use_cache=False)
        label = f"era-{era.value}-{sites}-{seed}"
        profiles.append(profile_visits(ctx.dataset.visits, label=label))
        labels.append(label)
        newest = ctx.dataset
    shutdown_warm_pool()
    timeline = timeline_from_metrics(profiles, labels)
    summary = summarize(newest, parallel=False)
    return {
        "drift_stdout_sha256": sha256_text(
            render_timeline_text(timeline) + "\n"),
        "newest_summary_digest": summary_digest(summary),
        "analyze_stdout_sha256": sha256_text(
            render_comparison(summary.compare_to_paper()) + "\n"),
    }


def _setup(seed: int, sites: int, work, env, checks: Checks) -> tuple:
    start = time.perf_counter()
    store_dir = fresh_dir(work / "eras")
    phase = run_phase("build-eras", [
        sys.executable, "-c", _BUILD, str(sites), str(store_dir), str(seed),
        str(CPUS)], work=work, env={**env, "REPRO_BACKEND": "process"})
    stores = phase.stdout.split()
    checks.check(phase.returncode == 0 and len(stores) == 3,
                 f"era build exit {phase.returncode}: "
                 f"{phase.stdout[-300:]!r}")
    return time.perf_counter() - start, stores


def _pass(stores: "list[str]", sites: int, work, env, checks: Checks,
          ref: dict) -> "dict[str, list[Phase]]":
    phases: "dict[str, list[Phase]]" = {}
    for store in stores:
        verify = run_phase("verify", cli(
            "verify-store", "--database", store, "--json"),
            work=work, env=env)
        try:
            report = json.loads(verify.stdout)
        except ValueError:
            report = {}
        checks.check(verify.returncode == 0
                     and report.get("verified_rows") == sites
                     and report.get("corrupt_rows") == 0,
                     f"verify-store {store} exit {verify.returncode}")
        phases.setdefault("verify", []).append(verify)
    newest = stores[-1]
    analyze = run_phase("analyze", cli("analyze", "--database", newest),
                        work=work, env=env)
    checks.check(analyze.returncode == 0 and sha256_text(analyze.stdout)
                 == ref["analyze_stdout_sha256"],
                 "analyze output differs from the in-memory reference")
    export_path = work / "newest.jsonl"
    export_path.unlink(missing_ok=True)
    export = run_phase("export", cli(
        "export-jsonl", "--database", newest, "--output", str(export_path)),
        work=work, env=env)
    lines = export_path.read_text().count("\n") \
        if export.returncode == 0 else -1
    checks.check(lines == sites + 1,
                 f"export has {lines} lines, expected {sites} visits plus "
                 "the count trailer")
    drift = run_phase("drift", cli("drift-report", *stores),
                      work=work, env=env)
    checks.check(drift.returncode == 0 and sha256_text(drift.stdout)
                 == ref["drift_stdout_sha256"],
                 "drift timeline differs from the in-memory reference")
    phases["analyze"] = [analyze]
    phases["export"] = [export]
    phases["drift"] = [drift]
    return phases


def _check_newest_digest(newest: str, ref: dict, checks: Checks) -> None:
    from repro.analysis.summary import summarize_streaming
    from repro.crawler.storage import CrawlStore

    with CrawlStore(newest) as store:
        digest = summary_digest(summarize_streaming(store))
    checks.check(digest == ref["newest_summary_digest"],
                 "newest era store's summary digest differs from the "
                 "in-memory reference")


def measure(seed: int, seconds: float, work, sites: int = SITES) -> dict:
    env = program_env(work)
    checks = Checks()
    ref = cached_reference(f"stored-reanalysis-{sites}-{seed}",
                           lambda: reference(seed, sites))
    setups = []
    for _ in range(SETUPS):
        elapsed, stores = _setup(seed, sites, work, env, checks)
        setups.append(elapsed)
    passes = timed_passes(
        lambda: _pass(stores, sites, work, env, checks, ref), seconds)
    _check_newest_digest(stores[-1], ref, checks)

    def pass_sum(phases: dict, attr: str) -> float:
        return sum(getattr(p, attr) for group in phases.values()
                   for p in group)

    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "total_s": (median([pass_sum(p, "wall_s") for p in passes]),
                        "s"),
            "cpu_s": (median([pass_sum(p, "cpu_s") for p in passes]), "s"),
            "peak_rss_mb": (max(ph.peak_rss_mb for p in passes
                                for group in p.values() for ph in group),
                            "MiB"),
        },
        "checks": checks,
        "detail": {
            "sites_per_era": sites, "stores": len(stores),
            "setup_backend": "process", "setup_workers": CPUS,
            "analyze_workers": 1, "passes": len(passes),
            "setups": len(setups), "setup_runs_s": setups,
            "pass_totals_s": [pass_sum(p, "wall_s") for p in passes],
            **{f"{name}_s": median([sum(p.wall_s for p in phases[name])
                                    for phases in passes])
               for name in ("verify", "analyze", "export", "drift")},
        },
    }


def traced(seed: int, seconds: float, work, sites: int = SITES) -> dict:
    """Per-layer run: the same reads, in-process, under the wrappers."""
    import repro.analysis.drift as drift_mod
    import repro.analysis.summary as summary_mod
    import repro.crawler.storage as storage_mod
    from repro.analysis import drift_report

    import layers
    from spans import SpanRecorder

    env = program_env(work)
    checks = Checks()
    ref = cached_reference(f"stored-reanalysis-{sites}-{seed}",
                           lambda: reference(seed, sites))
    _, stores = _setup(seed, sites, work, env, checks)
    newest = stores[-1]
    rec = SpanRecorder(f"stored-reanalysis-{seed}")
    phases = layers.TracedPhases(rec)

    def verify():
        reports = []
        for path in stores:
            with storage_mod.CrawlStore(path) as store:
                reports.append(store.verify())
        return reports

    def analyze():
        with storage_mod.CrawlStore(newest) as store:
            return summary_mod.summarize_streaming(store)

    def export():
        with storage_mod.CrawlStore(newest) as store:
            return storage_mod.export_jsonl(store.iter_visits(),
                                            work / "newest.jsonl")

    def drift():
        timeline = drift_mod.build_timeline(
            stores, labels=[Path(path).stem for path in stores])
        return drift_report.render_timeline_text(timeline)

    results = {phase: phases.run(phase, layers.wrap_read_layers, call)
               for phase, call in (("verify", verify), ("analyze", analyze),
                                   ("export", export), ("drift", drift))}

    checks.check(all(r.ok and r.verified_rows == sites
                     for r in results["verify"]), "traced verify not clean")
    checks.check(summary_digest(results["analyze"])
                 == ref["newest_summary_digest"],
                 "traced analyze digest differs from the reference")
    checks.check(results["export"] == sites, "traced export count")
    checks.check(sha256_text(results["drift"] + "\n")
                 == ref["drift_stdout_sha256"],
                 "traced drift timeline differs from the reference")

    ledgers = phases.ledgers()
    counts = {
        "storage.bytes_per_visit": Path(newest).stat().st_size / sites,
        "trace.overhead": phases.overhead(),
    }
    rec.dump(spans_path("stored-reanalysis", seed))
    return {
        "metrics": layers.per_layer_metrics(ledgers, counts,
                                             rec.exhausted),
        "checks": checks,
        "ledgers": ledgers,
        "detail": {"sites_per_era": sites, "spans": len(rec),
                   "bare_s": phases.bare_s},
    }
