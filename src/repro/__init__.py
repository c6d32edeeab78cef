"""Reproduction of "A Permissions Odyssey: A Systematic Study of Browser
Permissions on Modern Websites" (IMC '25).

The package reimplements, offline and from scratch, every system the paper
describes: the Permissions Policy specification engine, the permission
registry with browser-support data, a simulated browser with dynamic API
instrumentation, a Playwright-style crawling framework over a calibrated
synthetic web, the full measurement analysis pipeline (Tables 3-13,
Figures 1-4), and the developer tools of Section 6.3.

Quickstart::

    from repro import SyntheticWeb, CrawlerPool, summarize

    web = SyntheticWeb(5_000, seed=2024)      # the "top-5k" synthetic web
    dataset = CrawlerPool(web, workers=4).run()
    summary = summarize(dataset)
    for metric, paper, measured in summary.compare_to_paper():
        print(f"{metric}: paper {paper:.2%} vs measured {measured:.2%}")

See DESIGN.md for the module map and EXPERIMENTS.md for paper-vs-measured
results on every table and figure.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.delegation": ("DelegationAnalysis",),
    "repro.analysis.headers": ("HeaderAnalysis",),
    "repro.analysis.index": ("DatasetIndex",),
    "repro.analysis.overpermission": ("OverPermissionAnalysis",),
    "repro.analysis.summary": ("MeasurementSummary", "summarize"),
    "repro.analysis.usage": ("UsageAnalysis",),
    "repro.crawler.crawler": ("CrawlConfig", "Crawler"),
    "repro.crawler.fetcher": ("SyntheticFetcher",),
    "repro.crawler.pool": ("CrawlDataset", "CrawlerPool"),
    "repro.crawler.resilience": ("FaultInjectingFetcher", "RetryPolicy"),
    "repro.crawler.storage": ("CrawlStore",),
    "repro.crawler.telemetry": ("CrawlTelemetry",),
    "repro.policy.engine": ("PermissionsPolicyEngine", "PolicyFrame"),
    "repro.policy.header": ("parse_permissions_policy_header",),
    "repro.policy.linter": ("HeaderLinter",),
    "repro.registry.features": ("DEFAULT_REGISTRY", "PermissionRegistry"),
    "repro.registry.support": ("default_support_matrix",),
    "repro.synthweb.generator": ("SyntheticWeb",),
    "repro.tools.header_generator": ("HeaderGenerator", "HeaderPreset"),
    "repro.tools.poc": ("LocalSchemePoC",),
    "repro.tools.recommender": ("PolicyRecommender",),
    "repro.tools.support_site": ("SupportSiteReport",),
})
