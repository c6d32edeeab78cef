"""Which public calls each layer's wrappers time, and the per-layer metrics.

Every span name belongs to exactly one time metric, so the layer self
times of a phase plus its ``<phase>.unaccounted_s`` add up to the phase
wall time.  A workload reports every metric below; a layer it does not
exercise reads 0 (it did no work there).
"""

from __future__ import annotations

from spans import SpanRecorder, SpanTable, clock

#: span name -> per-layer time metric (self seconds)
SPAN_METRIC = {
    "synthweb.fetch": "synthweb.fetch_s",
    "synthweb.site": "synthweb.fetch_s",
    "browser.load": "browser.load_s",
    "browser.script": "browser.script_exec_s",
    "policy.eval": "policy.eval_s",
    "crawler.visit": "crawler.visit_s",
    "records.build": "records.build_s",
    "pool.run": "pool.wait_s",
    "storage.save": "storage.save_s",
    "storage.merge": "storage.merge_s",
    "storage.verify": "storage.verify_s",
    "storage.decode": "storage.decode_s",
    "storage.export": "storage.export_encode_s",
    "analysis.index": "analysis.index_s",
    "analysis.summarize": "analysis.aggregate_s",
    "drift.profile": "drift.profile_s",
    "drift.timeline": "drift.timeline_s",
    "drift.render": "drift.render_s",
    "service.parse": "service.parse_s",
    "service.cache_key": "service.cache_key_s",
    "service.cache": "service.cache_s",
    "service.ratelimit": "service.ratelimit_s",
    "service.handler.evaluate": "service.handler_s.evaluate",
    "service.handler.generate_header": "service.handler_s.generate_header",
    "service.handler.recommend": "service.handler_s.recommend",
    "service.handler.registry": "service.handler_s.registry",
    "service.render": "service.render_s",
}

#: Phases a traced run may have; each reports ``<phase>.unaccounted_s``.
PHASES = ("visit", "crawl", "verify", "analyze", "export", "drift", "serve")

#: per-layer metric -> unit, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    **{metric: "s" for metric in dict.fromkeys(SPAN_METRIC.values())},
    "synthweb.fetches": "count",
    "synthweb.site_calls_per_visit": "ratio",
    "browser.scripts_executed": "count",
    "policy.decisions": "count",
    "policy.memo_hit_rate": "ratio",
    "crawler.visits": "count",
    "pool.chunks": "count",
    "storage.merges": "count",
    "storage.bytes_per_visit": "bytes",
    "storage.rows_read": "count",
    "service.cache_hit_rate": "ratio",
    "service.cache_evictions": "count",
    "service.rate_limited": "count",
    **{f"{phase}.unaccounted_s": "s" for phase in PHASES},
    "trace.overhead": "ratio",
}


def per_layer_metrics(ledgers: "dict[str, dict]", counts: dict,
                      exhausted: "dict[str, int] | None" = None) -> dict:
    """Fold phase ledgers and the workload's own counts into the full
    per-layer metric set.  ``exhausted`` is the recorder's count of
    generators run to the end, whose last step yielded no row."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    calls: dict[str, int] = {}
    decisions = 0
    for phase, ledger in ledgers.items():
        values[f"{phase}.unaccounted_s"] = ledger["unaccounted_s"]
        for span, seconds in ledger["self_s"].items():
            values[SPAN_METRIC[span]] += seconds
        for span, count in ledger["calls"].items():
            calls[span] = calls.get(span, 0) + count
        # One decision per outermost engine call, however the engine's
        # public methods call one another.
        decisions += ledger["outer_calls"].get("policy.eval", 0)
    visits = calls.get("crawler.visit", 0)
    values["crawler.visits"] = visits
    values["synthweb.fetches"] = calls.get("synthweb.fetch", 0)
    values["synthweb.site_calls_per_visit"] = (
        calls.get("synthweb.site", 0) / visits if visits else 0.0)
    values["browser.scripts_executed"] = calls.get("browser.script", 0)
    values["policy.decisions"] = decisions
    values["storage.merges"] = calls.get("storage.merge", 0)
    values["storage.rows_read"] = (calls.get("storage.decode", 0)
                                   - (exhausted or {}).get("storage.decode", 0))
    values.update(counts)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


class TracedPhases:
    """Runs each phase bare, then under its wrappers, from the same state.

    Before both runs the program's process-wide parser caches are cleared
    and its warm worker pool is shut down, so neither run inherits the
    other's warmth; the bare run's wall time is the base of
    ``trace.overhead``.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.windows: "dict[str, tuple[float, float]]" = {}
        self.bare_s: "dict[str, float]" = {}

    @staticmethod
    def _cold() -> None:
        from repro.crawler.backends import shutdown_warm_pool
        from repro.policy.memo import clear_parser_caches

        shutdown_warm_pool()
        clear_parser_caches()

    def run(self, phase: str, wrap, call, *args):
        self._cold()
        start = clock()
        call(*args)
        self.bare_s[phase] = clock() - start
        self._cold()
        wrap(self.recorder)
        try:
            start = clock()
            result = call(*args)
            self.windows[phase] = (start, clock())
        finally:
            self.recorder.unwrap_all()
            self._cold()
        return result

    def ledgers(self) -> "dict[str, dict]":
        table = SpanTable.of(self.recorder)
        return {phase: table.ledger(window)
                for phase, window in self.windows.items()}

    def overhead(self) -> float:
        traced = sum(hi - lo for lo, hi in self.windows.values())
        return traced / sum(self.bare_s.values()) - 1.0


# -- wrapper sets --------------------------------------------------------------


def wrap_visit_layers(rec: SpanRecorder) -> None:
    """synthweb, browser, policy and crawler calls made by one visit."""
    import repro.crawler.crawler as crawler_mod
    from repro.browser.instrumentation import InstrumentedRuntime
    from repro.browser.page import PageLoader
    from repro.crawler.fetcher import SyntheticFetcher
    from repro.policy.engine import PermissionsPolicyEngine
    from repro.synthweb.generator import SyntheticWeb

    rec.wrap(SyntheticFetcher, "fetch", "synthweb.fetch")
    rec.wrap(SyntheticWeb, "site", "synthweb.site")
    rec.wrap(PageLoader, "load", "browser.load")
    rec.wrap(InstrumentedRuntime, "execute", "browser.script")
    for method in ("explain", "is_enabled", "allowed_features",
                   "can_delegate"):
        rec.wrap(PermissionsPolicyEngine, method, "policy.eval")
    rec.wrap(crawler_mod.Crawler, "visit", "crawler.visit")
    rec.wrap(crawler_mod, "visit_from_page", "records.build")


def wrap_pool_layers(rec: SpanRecorder) -> None:
    """Parent-side calls of a process-backend crawl."""
    from repro.crawler.pool import CrawlerPool
    from repro.crawler.storage import CrawlStore

    rec.wrap(CrawlerPool, "run", "pool.run")
    rec.wrap(CrawlStore, "save_visits", "storage.save")
    rec.wrap(CrawlStore, "merge_from", "storage.merge")


def wrap_read_layers(rec: SpanRecorder) -> None:
    """Store reads and the streaming analysis and drift passes over them."""
    import repro.analysis.drift as drift_mod
    import repro.analysis.summary as summary_mod
    import repro.crawler.storage as storage_mod
    from repro.analysis import drift_report
    from repro.analysis.index import IncrementalIndex

    rec.wrap(storage_mod.CrawlStore, "verify", "storage.verify")
    rec.wrap(storage_mod.CrawlStore, "iter_visits", "storage.decode")
    rec.wrap(storage_mod, "export_jsonl", "storage.export")
    rec.wrap(IncrementalIndex, "add", "analysis.index")
    rec.wrap(summary_mod, "summarize_streaming", "analysis.summarize")
    rec.wrap(drift_mod, "profile_store", "drift.profile")
    rec.wrap(drift_mod, "build_timeline", "drift.timeline")
    rec.wrap(drift_report, "render_timeline_text", "drift.render")


def wrap_service_layers(rec: SpanRecorder) -> None:
    """The policy service's request path, as the server module sees it."""
    import repro.service.server as server_mod
    from repro.policy.engine import PermissionsPolicyEngine
    from repro.service.adapters import ToolAdapters
    from repro.service.cache import ResponseCache
    from repro.service.http import HttpRequest
    from repro.service.ratelimit import ClientRateLimiter

    rec.wrap(server_mod, "read_request", "service.parse")
    rec.wrap(HttpRequest, "json", "service.parse")
    rec.wrap(server_mod, "request_key", "service.cache_key")
    rec.wrap(ResponseCache, "get", "service.cache")
    rec.wrap(ResponseCache, "put", "service.cache")
    rec.wrap(ClientRateLimiter, "admit", "service.ratelimit")
    rec.wrap(ToolAdapters, "evaluate", "service.handler.evaluate")
    rec.wrap(ToolAdapters, "generate_header",
             "service.handler.generate_header")
    rec.wrap(ToolAdapters, "recommend", "service.handler.recommend")
    rec.wrap(ToolAdapters, "registry_view", "service.handler.registry")
    rec.wrap(server_mod, "render_response", "service.render")
    rec.wrap(server_mod, "encode_json", "service.render")
    for method in ("explain", "is_enabled", "allowed_features",
                   "can_delegate"):
        rec.wrap(PermissionsPolicyEngine, method, "policy.eval")
