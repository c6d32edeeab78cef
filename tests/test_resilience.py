"""Tests for the crash-resilience layer: retry policy, fault injection,
broad exception handling, checkpoint/resume, telemetry, and the
determinism guarantees that tie them together."""

import logging
import threading

import pytest

from repro.browser.page import FetchResponse
from repro.crawler.crawler import Crawler
from repro.crawler.errors import (
    EXCEPTION_BY_TAXONOMY,
    TRANSIENT_TAXONOMIES,
    LoadTimeoutError,
    UnreachableError,
)
from repro.crawler.fetcher import SyntheticFetcher
from repro.crawler.pool import CrawlerPool
from repro.crawler.records import SiteVisit
from repro.crawler.resilience import (
    FaultInjectingFetcher,
    InjectedCrashError,
    RetryPolicy,
)
from repro.crawler.storage import CrawlStore, export_jsonl, import_jsonl
from repro.crawler.telemetry import CrawlTelemetry
from repro.experiments.robustness import fault_injection_study
from repro.synthweb.generator import FailureMode, SyntheticWeb


@pytest.fixture(scope="module")
def web() -> SyntheticWeb:
    return SyntheticWeb(200, seed=2024)


def injecting_factory(web, *, seed=7, failure_rate=0.25, crash_rate=0.05):
    def factory():
        return FaultInjectingFetcher(
            SyntheticFetcher(web), seed=seed,
            failure_rate=failure_rate, crash_rate=crash_rate)
    return factory


class TestRetryPolicy:
    def test_transient_classes_default(self):
        policy = RetryPolicy()
        for taxonomy in TRANSIENT_TAXONOMIES:
            assert policy.is_transient(taxonomy)
        assert not policy.is_transient("unreachable")
        assert not policy.is_transient("minor-crawler-error")
        assert not policy.is_transient(None)

    def test_backoff_schedule_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=3, backoff_base_seconds=2.0,
                             backoff_factor=3.0)
        assert policy.backoff_schedule() == (2.0, 6.0, 18.0)
        assert policy.backoff_schedule() == policy.backoff_schedule()
        assert not policy.should_retry("load-timeout", retries_done=3)
        assert policy.should_retry("load-timeout", retries_done=2)
        assert not policy.should_retry("unreachable", retries_done=0)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(transient_classes=frozenset({"no-such-class"}))
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(-1)


class _StaticFetcher:
    """Serves nothing: every URL raises the configured exception."""

    def __init__(self, exc: Exception) -> None:
        self.exc = exc
        self.calls = 0

    def fetch(self, url: str) -> FetchResponse:
        self.calls += 1
        raise self.exc


class TestFaultInjection:
    def test_deterministic_across_instances(self, web):
        def outcomes(fetcher):
            results = []
            for rank in range(60):
                try:
                    fetcher.fetch(web.origin_for_rank(rank))
                    results.append("ok")
                except Exception as exc:
                    results.append(type(exc).__name__)
            return results

        factory = injecting_factory(web)
        assert outcomes(factory()) == outcomes(factory())

    def test_attempts_roll_independent_faults(self, web):
        fetcher = injecting_factory(web, failure_rate=0.5, crash_rate=0.0)()
        ok_rank = next(r for r in range(200)
                       if web.site(r).failure is FailureMode.NONE)
        url = web.origin_for_rank(ok_rank)
        outcomes = []
        for _ in range(12):
            try:
                fetcher.fetch(url)
                outcomes.append("ok")
            except Exception as exc:
                outcomes.append(type(exc).__name__)
        # At 50 % both outcomes must appear across 12 independent attempts.
        assert "ok" in outcomes
        assert any(outcome != "ok" for outcome in outcomes)

    def test_real_failures_propagate_uninjected(self, web):
        fetcher = injecting_factory(web, failure_rate=1.0)()
        bad_rank = next(
            (r for r in range(200)
             if web.site(r).failure is FailureMode.UNREACHABLE), None)
        if bad_rank is None:
            pytest.skip("no unreachable site in sample")
        with pytest.raises(UnreachableError):
            fetcher.fetch(web.origin_for_rank(bad_rank))
        assert fetcher.stats.injected_failures == 0

    def test_crash_is_not_a_crawl_error(self, web):
        fetcher = injecting_factory(web, failure_rate=0.0, crash_rate=1.0)()
        ok_rank = next(r for r in range(200)
                       if web.site(r).failure is FailureMode.NONE)
        with pytest.raises(InjectedCrashError) as excinfo:
            fetcher.fetch(web.origin_for_rank(ok_rank))
        from repro.crawler.errors import CrawlError
        assert not isinstance(excinfo.value, CrawlError)
        assert fetcher.stats.injected_crashes == 1

    def test_latency_stats_and_timeout_conversion(self, web):
        ok_rank = next(r for r in range(200)
                       if web.site(r).failure is FailureMode.NONE)
        url = web.origin_for_rank(ok_rank)
        slow = FaultInjectingFetcher(
            SyntheticFetcher(web), seed=1, latency_rate=1.0,
            latency_seconds=5.0)
        slow.fetch(url)
        assert slow.stats.latency_events == 1
        assert slow.stats.latency_seconds == 5.0
        fatal = FaultInjectingFetcher(
            SyntheticFetcher(web), seed=1, latency_rate=1.0,
            latency_seconds=90.0, timeout_budget_seconds=60.0)
        with pytest.raises(LoadTimeoutError):
            fatal.fetch(url)

    def test_rejects_bad_rates_and_classes(self, web):
        with pytest.raises(ValueError):
            FaultInjectingFetcher(SyntheticFetcher(web), failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjectingFetcher(SyntheticFetcher(web),
                                  failure_classes=("bogus",))


class TestCrawlerResilience:
    def test_unexpected_exception_becomes_minor_crawler_error(self):
        crawler = Crawler(_StaticFetcher(ValueError("boom")))
        visit = crawler.visit("https://x.example", rank=5)
        assert not visit.success
        assert visit.failure == "minor-crawler-error"
        assert "ValueError: boom" in visit.error_detail
        assert "Traceback" in visit.error_detail

    def test_typed_failures_have_no_error_detail(self, web):
        crawler = Crawler(_StaticFetcher(LoadTimeoutError("late")))
        visit = crawler.visit("https://x.example")
        assert visit.failure == "load-timeout"
        assert visit.error_detail is None

    def test_transient_failures_retried_up_to_bound(self):
        fetcher = _StaticFetcher(LoadTimeoutError("late"))
        crawler = Crawler(fetcher, retry_policy=RetryPolicy(max_retries=2))
        visit = crawler.visit("https://x.example")
        assert fetcher.calls == 3
        assert visit.retries == 2
        assert not visit.success
        # Two failed attempts + two backoffs accumulate into the duration.
        base = Crawler(_StaticFetcher(LoadTimeoutError("late"))) \
            .visit("https://x.example").duration_seconds
        expected = 3 * base + sum(RetryPolicy(max_retries=2)
                                  .backoff_schedule())
        assert visit.duration_seconds == pytest.approx(expected)

    def test_non_transient_failures_never_retried(self):
        for exc in (UnreachableError("dead"), ValueError("bug")):
            fetcher = _StaticFetcher(exc)
            crawler = Crawler(fetcher,
                              retry_policy=RetryPolicy(max_retries=5))
            visit = crawler.visit("https://x.example")
            assert fetcher.calls == 1
            assert visit.retries == 0

    def test_retry_recovers_injected_transient_failure(self, web):
        # Find a site whose first attempt draws an injected transient
        # failure but a retry succeeds.
        factory = injecting_factory(web, failure_rate=0.4, crash_rate=0.0)
        no_retry = CrawlerPool(web, workers=1, fetcher_factory=factory)
        with_retry = CrawlerPool(web, workers=1, fetcher_factory=factory,
                                 retry_policy=RetryPolicy(max_retries=2))
        before = no_retry.run(range(80))
        after = with_retry.run(range(80))
        recovered = [
            (b, a) for b, a in zip(before.visits, after.visits)
            if not b.success and b.failure in TRANSIENT_TAXONOMIES
            and a.success]
        assert recovered, "expected at least one retry-recovered visit"
        assert all(a.retries > 0 for _, a in recovered)
        assert after.successful_count > before.successful_count


class TestPoolResilience:
    """The ISSUE acceptance scenario: >= 20 % of visits crash/fail mid-pool
    (including non-CrawlError exceptions) and the run still completes,
    persists everything, resumes correctly, and stays deterministic."""

    RANKS = range(100)
    POLICY = RetryPolicy(max_retries=2)

    def _pool(self, web, workers, retry=True):
        return CrawlerPool(
            web, workers=workers,
            retry_policy=self.POLICY if retry else None,
            fetcher_factory=injecting_factory(web))

    def test_hostile_run_completes_and_persists_every_visit(self, web,
                                                            tmp_path):
        telemetry = CrawlTelemetry()
        with CrawlStore(tmp_path / "hostile.sqlite") as store:
            dataset = self._pool(web, 4, retry=False).run(
                self.RANKS, store=store, telemetry=telemetry)
            stored = store.stored_ranks()
        failed = dataset.attempted - dataset.successful_count
        assert dataset.attempted == len(self.RANKS)
        assert failed / dataset.attempted >= 0.20
        # Crashes (non-CrawlError) were part of the hostility and were
        # recorded, traceback included.
        crashed = [v for v in dataset.visits
                   if v.failure == "minor-crawler-error" and v.error_detail]
        assert any("InjectedCrashError" in v.error_detail for v in crashed)
        # Every attempted visit hit the store, successes and failures alike.
        assert stored == set(self.RANKS)
        assert telemetry.snapshot().completed == len(self.RANKS)

    def test_workers_and_resume_boundary_invariant(self, web, tmp_path):
        serial = self._pool(web, 1).run(self.RANKS)
        parallel = self._pool(web, 8).run(self.RANKS)
        assert serial.visits == parallel.visits

        # Simulate a crash after 40 sites, then resume the rest.
        path = tmp_path / "checkpoint.sqlite"
        with CrawlStore(path) as store:
            self._pool(web, 4).run(list(self.RANKS)[:40], store=store)
        with CrawlStore(path) as store:
            resumed = self._pool(web, 4).run(self.RANKS, store=store,
                                             resume=True)
            stored = store.stored_ranks()
        assert resumed.visits == serial.visits
        assert stored == set(self.RANKS)

    def test_determinism_without_retries_too(self, web):
        serial = self._pool(web, 1, retry=False).run(self.RANKS)
        parallel = self._pool(web, 8, retry=False).run(self.RANKS)
        assert serial.visits == parallel.visits

    def test_resume_requires_store(self, web):
        with pytest.raises(ValueError):
            CrawlerPool(web).run(range(5), resume=True)

    def test_resume_skips_already_stored_ranks(self, web, tmp_path):
        with CrawlStore(tmp_path / "c.sqlite") as store:
            first = CrawlerPool(web, workers=2).run(range(20), store=store)
            counting = CrawlTelemetry()
            again = CrawlerPool(web, workers=2).run(
                range(20), store=store, resume=True, telemetry=counting)
        assert again.visits == first.visits
        snap = counting.snapshot()
        assert snap.completed == 0 and snap.resumed == 20
        # Regression: resumed visits count toward completion — a fully
        # resumed run is done with an empty queue, not queued forever.
        assert snap.total == 20
        assert snap.done
        assert snap.queue_depth == 0

    def test_partially_resumed_run_converges(self, web, tmp_path):
        """Regression: queue depth and done must account for resumed
        visits (previously a resumed run reported a non-empty queue even
        after every remaining rank was crawled)."""
        with CrawlStore(tmp_path / "p.sqlite") as store:
            CrawlerPool(web, workers=2).run(range(8), store=store)
            telemetry = CrawlTelemetry()
            CrawlerPool(web, workers=2).run(
                range(20), store=store, resume=True, telemetry=telemetry)
        snap = telemetry.snapshot()
        assert snap.total == 20
        assert snap.resumed == 8 and snap.completed == 12
        assert snap.queue_depth == 0
        assert snap.done
        assert snap.progress_line().startswith("[20/20]")
        assert "visits      20/20" in snap.render()


class TestStoreThreadSafety:
    def test_worker_thread_writes(self, web, tmp_path):
        """Writes from many non-main threads — the exact pattern that used
        to raise sqlite3.ProgrammingError."""
        dataset = CrawlerPool(web, workers=1).run(range(24))
        errors = []
        with CrawlStore(tmp_path / "mt.sqlite") as store:
            def write(visit):
                try:
                    store.save_visit(visit)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
            threads = [threading.Thread(target=write, args=(visit,))
                       for visit in dataset.visits]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert store.stored_ranks() == set(range(24))

    def test_wal_mode_enabled(self, tmp_path):
        with CrawlStore(tmp_path / "wal.sqlite") as store:
            mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_migrates_pre_resilience_schema(self, tmp_path):
        import sqlite3
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript("""
            CREATE TABLE visits (
                rank INTEGER PRIMARY KEY,
                requested_url TEXT NOT NULL, final_url TEXT NOT NULL,
                success INTEGER NOT NULL, failure TEXT,
                top_level_document_count INTEGER NOT NULL,
                skipped_lazy_iframes INTEGER NOT NULL,
                iframe_load_failures INTEGER NOT NULL,
                duration_seconds REAL NOT NULL);
        """)
        conn.execute("INSERT INTO visits VALUES (3,'u','u',0,"
                     "'load-timeout',1,0,0,60.0)")
        conn.commit()
        conn.close()
        with CrawlStore(path) as store:
            loaded = store.load_dataset()
        assert loaded.visits[0].retries == 0
        assert loaded.visits[0].error_detail is None


class TestOrphanTolerance:
    def test_orphan_child_rows_skipped_with_counts(self, web, tmp_path,
                                                   caplog):
        path = tmp_path / "corrupt.sqlite"
        dataset = CrawlerPool(web, workers=1).run(range(10))
        victim = next(v for v in dataset.successful() if v.frames)
        with CrawlStore(path) as store:
            for visit in dataset.visits:
                store.save_visit(visit)
            # Simulate an interrupted save: child rows without their visit.
            store._conn.execute("DELETE FROM visits WHERE rank = ?",
                                (victim.rank,))
            store._conn.commit()
            with caplog.at_level(logging.WARNING,
                                 logger="repro.crawler.storage"):
                loaded = store.load_dataset()
            orphans = store.last_orphan_counts
        assert len(loaded.visits) == 9
        assert all(v.rank != victim.rank for v in loaded.visits)
        assert orphans.get("frames", 0) == len(victim.frames)
        assert orphans.get("calls", 0) == len(victim.calls)
        assert any("orphan" in record.message for record in caplog.records)

    def test_clean_store_reports_no_orphans(self, web, tmp_path):
        with CrawlStore(tmp_path / "clean.sqlite") as store:
            store.save_dataset(CrawlerPool(web, workers=1).run(range(5)))
            store.load_dataset()
            assert store.last_orphan_counts == {}


class TestRoundTrips:
    @pytest.fixture(scope="class")
    def hostile_dataset(self, web):
        return CrawlerPool(
            web, workers=4, retry_policy=RetryPolicy(max_retries=2),
            fetcher_factory=injecting_factory(web)).run(range(60))

    def test_sqlite_round_trip_exact(self, hostile_dataset, tmp_path):
        path = tmp_path / "rt.sqlite"
        with CrawlStore(path) as store:
            store.save_dataset(hostile_dataset)
        with CrawlStore(path) as store:
            loaded = store.load_dataset()
        assert loaded.visits == hostile_dataset.visits

    def test_sqlite_preserves_retry_and_error_fields(self, hostile_dataset,
                                                     tmp_path):
        assert any(v.retries for v in hostile_dataset.visits)
        assert any(v.error_detail for v in hostile_dataset.visits)
        path = tmp_path / "fields.sqlite"
        with CrawlStore(path) as store:
            store.save_dataset(hostile_dataset)
            loaded = store.load_dataset()
        assert [v.retries for v in loaded.visits] \
            == [v.retries for v in hostile_dataset.visits]
        assert [v.error_detail for v in loaded.visits] \
            == [v.error_detail for v in hostile_dataset.visits]

    def test_jsonl_round_trip_exact(self, hostile_dataset, tmp_path):
        path = tmp_path / "full.jsonl"
        count = export_jsonl(hostile_dataset.visits, path)
        assert count == len(hostile_dataset.visits)
        assert import_jsonl(path) == hostile_dataset.visits

    def test_jsonl_exports_previously_dropped_fields(self, hostile_dataset,
                                                     tmp_path):
        import json
        path = tmp_path / "fields.jsonl"
        export_jsonl(hostile_dataset.visits[:5], path)
        record = json.loads(path.read_text().splitlines()[0])
        for key in ("prompts", "scripts", "duration_seconds",
                    "skipped_lazy_iframes", "iframe_load_failures",
                    "top_level_document_count", "retries", "error_detail"):
            assert key in record
        scripted = next(v for v in hostile_dataset.visits if v.scripts)
        export_jsonl([scripted], path)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["scripts"][0]["source"] == scripted.scripts[0].source


class TestTelemetry:
    def test_counters_and_rates(self):
        ticks = iter([0.0, 10.0, 10.0, 10.0])
        telemetry = CrawlTelemetry(clock=lambda: next(ticks))
        telemetry.start(4)
        ok = SiteVisit(rank=0, requested_url="u", final_url="u",
                       success=True, duration_seconds=30.0, retries=1)
        bad = SiteVisit(rank=1, requested_url="u", final_url="u",
                        success=False, failure="load-timeout",
                        duration_seconds=60.0, retries=2)
        telemetry.record_visit(ok, worker="w0")
        telemetry.record_visit(bad, worker="w1")
        snap = telemetry.snapshot()
        assert snap.completed == 2 and snap.succeeded == 1
        assert snap.failed == 1
        assert snap.retries == 3
        assert snap.queue_depth == 2
        assert snap.failure_counts == {"load-timeout": 1}
        assert snap.visits_by_worker == {"w0": 1, "w1": 1}
        assert snap.sites_per_second == pytest.approx(0.2)
        assert snap.simulated_seconds_per_site == pytest.approx(45.0)
        assert not snap.done

    def test_render_contains_key_fields(self):
        telemetry = CrawlTelemetry()
        telemetry.start(2)
        telemetry.record_visit(
            SiteVisit(rank=0, requested_url="u", final_url="u",
                      success=False, failure="unreachable"), worker="w0")
        text = telemetry.render()
        assert "unreachable=1" in text
        assert "queue depth 1" in text
        assert "w0=1" in text
        line = telemetry.snapshot().progress_line()
        assert line.startswith("[1/2]")


class TestFaultInjectionStudy:
    def test_report_shape(self):
        report = fault_injection_study(150, workers=4)
        assert report.injected_failure_share \
            >= sum(report.baseline_failures.values()) / 150
        assert report.transient_classes_shrunk
        assert report.unreachable_unchanged
        assert report.retries_spent > 0
        rendered = report.render()
        assert "baseline" in rendered and "+retries" in rendered
        assert "(transient)" in rendered


class TestTaxonomyRegistry:
    def test_registry_covers_all_failure_modes(self):
        assert {mode.value for mode in FailureMode
                if mode is not FailureMode.NONE} \
            == set(EXCEPTION_BY_TAXONOMY)
        for taxonomy, exc_type in EXCEPTION_BY_TAXONOMY.items():
            assert exc_type.taxonomy == taxonomy

    def test_transient_subset(self):
        assert TRANSIENT_TAXONOMIES < set(EXCEPTION_BY_TAXONOMY)
        assert "unreachable" not in TRANSIENT_TAXONOMIES


class TestGracefulShutdown:
    """DESIGN.md §4g: SIGINT/SIGTERM mid-crawl flushes the checkpoint and
    leaves a store that ``resume=True`` completes to a byte-identical
    dataset, with the interruption visible in telemetry."""

    RANKS = list(range(24))

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sigterm_mid_crawl_then_resume(self, web, backend, tmp_path):
        import os
        import signal

        baseline = CrawlerPool(web, workers=2).run(self.RANKS)
        path = tmp_path / f"kill-{backend}.sqlite"
        killed = False

        def kill_once(done, total):
            nonlocal killed
            if not killed and done >= 2:
                killed = True
                os.kill(os.getpid(), signal.SIGTERM)

        telemetry = CrawlTelemetry()
        with CrawlStore(path) as store:
            pool = CrawlerPool(web, workers=2, backend=backend)
            partial = pool.run(self.RANKS, kill_once, store=store,
                               telemetry=telemetry, handle_signals=True)
            assert pool.stop_requested
            stored = store.stored_ranks()
        # The run stopped early, checkpointed what finished, and said so.
        assert killed
        assert len(partial.visits) < len(self.RANKS)
        assert stored == {visit.rank for visit in partial.visits}
        snap = telemetry.snapshot()
        assert snap.interrupted
        assert "interrupted yes" in snap.render()
        # The default handler is back once run() returns.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

        with CrawlStore(path) as store:
            resumed = CrawlerPool(web, workers=2, backend=backend).run(
                self.RANKS, store=store, resume=True)
        assert resumed.visits == baseline.visits

    def test_request_stop_is_programmatic_equivalent(self, web, tmp_path):
        telemetry = CrawlTelemetry()
        path = tmp_path / "stop.sqlite"
        with CrawlStore(path) as store:
            pool = CrawlerPool(web, workers=1, backend="serial")

            def stop_at(done, total):
                if done == 3:
                    pool.request_stop()

            partial = pool.run(self.RANKS, stop_at, store=store,
                               telemetry=telemetry)
        assert len(partial.visits) == 3
        assert telemetry.snapshot().interrupted
        with CrawlStore(path) as store:
            resumed = CrawlerPool(web, workers=1).run(
                self.RANKS, store=store, resume=True)
        assert resumed.visits == CrawlerPool(web).run(self.RANKS).visits

    def test_stop_flag_clears_between_runs(self, web):
        pool = CrawlerPool(web, workers=1, backend="serial")
        pool.request_stop()
        dataset = pool.run(range(3))
        assert len(dataset.visits) == 3

    @pytest.mark.parametrize("sig_name", ["SIGINT", "SIGTERM"])
    def test_signal_with_queued_and_running_process_chunks(
            self, web, sig_name, tmp_path):
        """A stop mid-process-crawl cancels *queued* chunks and drains
        *running* ones: the checkpoint holds exactly the drained chunks'
        ranks, nothing from a cancelled chunk, and resume completes
        byte-identically."""
        import glob
        import os
        import signal

        ranks = list(range(32))
        baseline = CrawlerPool(web, workers=2).run(ranks)
        # 16 two-rank chunks on 2 workers guarantees a deep queue: when
        # the signal lands, at most 2 chunks run and the rest are queued.
        pool = CrawlerPool(web, workers=2, backend="process",
                           chunk_schedule=[2] * 16)
        path = tmp_path / f"chunked-{sig_name}.sqlite"
        fired = False

        def kill_once(done, total):
            nonlocal fired
            if not fired and done >= 2:
                fired = True
                os.kill(os.getpid(), signal.Signals[sig_name])

        telemetry = CrawlTelemetry()
        with CrawlStore(path) as store:
            partial = pool.run(ranks, kill_once, store=store,
                               telemetry=telemetry, handle_signals=True)
            stored = store.stored_ranks()
        assert fired and pool.stop_requested
        # Something finished, but the cancelled queue never ran: the
        # store holds whole 2-rank chunks only, and strictly fewer than
        # all of them.
        assert 0 < len(stored) < len(ranks)
        assert stored == {visit.rank for visit in partial.visits}
        for start in range(0, len(ranks), 2):
            chunk = {start, start + 1}
            assert chunk <= stored or not (chunk & stored)
        assert telemetry.snapshot().interrupted
        # Drained-not-cancelled chunks were merged, not abandoned as
        # sidecar files.
        assert not glob.glob(str(tmp_path / "*.wchunk-*"))

        with CrawlStore(path) as store:
            resumed = CrawlerPool(web, workers=2, backend="process").run(
                ranks, store=store, resume=True)
        assert resumed.visits == baseline.visits


class TestQuarantine:
    """Integrity verification: corrupt rows are counted and quarantined,
    never fatal to load_dataset."""

    def _store_with_visits(self, web, tmp_path, count=8):
        path = tmp_path / "integrity.sqlite"
        store = CrawlStore(path)
        dataset = CrawlerPool(web, workers=1).run(range(count), store=store)
        return store, dataset

    def test_clean_store_verifies(self, web, tmp_path):
        store, _ = self._store_with_visits(web, tmp_path)
        with store:
            report = store.verify()
        assert report.ok
        assert report.verified_rows == 8 and report.legacy_rows == 0
        assert "0 corrupt" in report.render() or report.render()

    def test_legacy_null_checksum_is_tolerated(self, web, tmp_path):
        store, _ = self._store_with_visits(web, tmp_path)
        with store:
            store._conn.execute(
                "UPDATE visits SET checksum = NULL WHERE rank = 2")
            store._conn.commit()
            report = store.verify()
            loaded = store.load_dataset()
        assert report.ok and report.legacy_rows == 1
        assert len(loaded.visits) == 8

    def test_corrupt_child_rows_counted_not_fatal(self, web, tmp_path,
                                                  caplog):
        store, dataset = self._store_with_visits(web, tmp_path)
        with store:
            store._conn.execute(
                "UPDATE frames SET iframe_attributes = '[oops' "
                "WHERE rank = 4 AND frame_id = 0")
            store._conn.commit()
            with caplog.at_level(logging.WARNING):
                loaded = store.load_dataset()
            assert store.last_corrupt_counts.get("frames", 0) >= 1
            assert any("verify-store" in record.message
                       for record in caplog.records)
            # All eight visits survive; only the undecodable frame
            # row is skipped.
            assert {v.rank for v in loaded.visits} == set(range(8))
            repaired = store.verify(repair=True)
            assert [bad.rank for bad in repaired.corrupt] == [4]
            assert store.quarantine_rows()[0][0] == 4
            # Re-saving the visit clears the quarantine entry.
            store.save_visit(dataset.visits[4])
            assert store.quarantine_rows() == []
            assert store.verify().ok

    def test_repair_quarantined_rank_is_recrawled_on_resume(self, web,
                                                             tmp_path):
        # Unlike a poison-visit quarantine, a corrupt row says nothing
        # about the site itself: resume crawls the rank again.
        store, dataset = self._store_with_visits(web, tmp_path)
        with store:
            store._conn.execute(
                "UPDATE visits SET duration_seconds = duration_seconds + 1 "
                "WHERE rank = 3")
            store._conn.commit()
            store.verify(repair=True)
            assert 3 not in store.stored_ranks()
            resumed = CrawlerPool(web, workers=1).run(
                range(8), store=store, resume=True)
            assert store.quarantine_rows() == []
            assert store.verify().ok
        assert resumed.visits == dataset.visits

    def test_quarantine_payload_preserves_raw_rows(self, web, tmp_path):
        store, _ = self._store_with_visits(web, tmp_path)
        with store:
            store._conn.execute(
                "UPDATE visits SET duration_seconds = duration_seconds + 1 "
                "WHERE rank = 1")
            store._conn.commit()
            store.verify(repair=True)
            rows = store._conn.execute(
                "SELECT payload FROM quarantine WHERE rank = 1").fetchall()
        assert len(rows) == 1
        import json
        payload = json.loads(rows[0][0])
        assert payload["visits"][0][0] == 1  # rank column preserved


class TestJsonlHardening:
    def _export(self, web, tmp_path):
        dataset = CrawlerPool(web, workers=1).run(range(5))
        path = tmp_path / "visits.jsonl"
        assert export_jsonl(dataset.visits, path) == 5
        return dataset, path

    def test_round_trip_with_trailer(self, web, tmp_path):
        from repro.crawler.storage import JsonlStats

        dataset, path = self._export(web, tmp_path)
        stats = JsonlStats()
        visits = import_jsonl(path, stats=stats)
        assert visits == dataset.visits
        assert stats.imported == 5 and stats.skipped == 0
        assert stats.trailer_count == 5

    def test_malformed_line_raises_by_default(self, web, tmp_path):
        from repro.crawler.storage import JsonlImportError

        _, path = self._export(web, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = '{"rank": 2, "requested_url": '  # truncated JSON
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JsonlImportError, match="malformed record"):
            import_jsonl(path)

    def test_malformed_line_skips_with_counted_warning(self, web, tmp_path,
                                                       caplog):
        from repro.crawler.storage import JsonlStats

        dataset, path = self._export(web, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "not json at all"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stats = JsonlStats()
        with caplog.at_level(logging.WARNING):
            visits = import_jsonl(path, on_error="skip", stats=stats)
        assert stats.imported == 4 and stats.skipped == 1
        assert [v.rank for v in visits] == [0, 1, 3, 4]
        assert any("skipped 1 malformed" in record.message
                   for record in caplog.records)

    def test_truncated_export_detected_by_trailer(self, web, tmp_path):
        from repro.crawler.storage import JsonlImportError

        _, path = self._export(web, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        del lines[1]  # silently lose a record, keep the trailer
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JsonlImportError, match="truncated export"):
            import_jsonl(path)
        # skip mode downgrades the mismatch to a warning.
        assert len(import_jsonl(path, on_error="skip")) == 4

    def test_invalid_on_error_rejected(self, web, tmp_path):
        _, path = self._export(web, tmp_path)
        with pytest.raises(ValueError, match="on_error"):
            import_jsonl(path, on_error="ignore")

    def test_no_tmp_file_left_behind(self, web, tmp_path):
        self._export(web, tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
