"""Crawling framework (the Playwright-pipeline equivalent).

* :mod:`repro.crawler.errors` — the paper's crawl-failure taxonomy;
* :mod:`repro.crawler.fetcher` — resolves URLs against a
  :class:`~repro.synthweb.generator.SyntheticWeb`;
* :mod:`repro.crawler.records` — the persisted measurement records;
* :mod:`repro.crawler.crawler` — one-site visit protocol (load wait,
  settle, lazy-iframe scrolling, final collection);
* :mod:`repro.crawler.interaction` — the interactive crawl used by the
  Appendix A.3 experiments;
* :mod:`repro.crawler.pool` — parallel crawl orchestration with
  checkpoint/resume;
* :mod:`repro.crawler.backends` — the process backend (contiguous rank
  chunks in worker processes) and picklable fetcher specs;
* :mod:`repro.crawler.supervisor` — self-healing supervision of the
  process backend: pool rebuilds, poison-visit quarantine, the chunk
  hang watchdog;
* :mod:`repro.crawler.chaos` — deterministic fault injection into
  worker processes for supervision drills;
* :mod:`repro.crawler.resilience` — retry policy + deterministic fault
  injection;
* :mod:`repro.crawler.telemetry` — the thread-safe crawl telemetry
  collector;
* :mod:`repro.crawler.storage` — SQLite persistence and JSONL
  export/import.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.crawler.backends": (
        "FaultInjectionSpec", "FetcherSpec", "SyntheticFetcherSpec",
        "chunk_ranks",
    ),
    "repro.crawler.chaos": ("ChaosPolicy",),
    "repro.crawler.crawler": ("CrawlConfig", "Crawler"),
    "repro.crawler.errors": (
        "CrawlError", "EphemeralContentError", "FinalUpdateTimeoutError",
        "IncompleteCollectionError", "LoadTimeoutError", "MinorCrawlerError",
        "UnreachableError",
    ),
    "repro.crawler.fetcher": ("SyntheticFetcher",),
    "repro.crawler.interaction": ("InteractionConfig", "InteractiveCrawler"),
    "repro.crawler.pool": ("CrawlDataset", "CrawlerPool"),
    "repro.crawler.records": (
        "CallRecord", "FrameRecord", "ScriptSourceRecord", "SiteVisit",
    ),
    "repro.crawler.resilience": (
        "FaultInjectingFetcher", "InjectedCrashError", "RetryPolicy",
    ),
    "repro.crawler.storage": ("CrawlStore",),
    "repro.crawler.supervisor": ("PoolCrashError", "SupervisorConfig"),
    "repro.crawler.telemetry": ("CrawlTelemetry", "TelemetrySnapshot"),
})
