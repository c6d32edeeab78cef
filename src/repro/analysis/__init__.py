"""Measurement analysis pipeline.

Consumes :class:`~repro.crawler.pool.CrawlDataset` records and reproduces
every aggregate of the paper's Section 4 and 5:

* :mod:`repro.analysis.parties` — first-/third-party classification;
* :mod:`repro.analysis.usage` — dynamic invocations, status checks and
  static detections (Tables 4, 5, 6);
* :mod:`repro.analysis.delegation` — embedded sites and ``allow``
  delegation (Tables 3, 7, 8 and the directive distribution);
* :mod:`repro.analysis.headers` — header adoption, directive strictness
  and misconfigurations (Figure 2, Table 9);
* :mod:`repro.analysis.overpermission` — unused delegated permissions
  (Tables 10/13, the LiveChat case study);
* :mod:`repro.analysis.summary` — the Section 4 headline numbers;
* :mod:`repro.analysis.categories` — purpose clustering of delegations
  (Section 4.2.1);
* :mod:`repro.analysis.proposals` — quantifying the Section 6.2 spec
  proposals (deny-all default, local-scheme fix exposure);
* :mod:`repro.analysis.fingerprinting` — the permission-list
  fingerprinting surface hypothesised in Section 4.1.1;
* :mod:`repro.analysis.report` — text rendering and paper-vs-measured
  comparison helpers;
* :mod:`repro.analysis.drift` — longitudinal crawl diffs and the N-era
  drift timeline (DESIGN.md §4i), rendered by
  :mod:`repro.analysis.drift_report`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.categories": ("DelegationPurpose", "purpose_clusters"),
    "repro.analysis.chains": (
        "NestedDelegationAnalysis", "rebuild_policy_frames",
    ),
    "repro.analysis.delegation": ("DelegationAnalysis",),
    "repro.analysis.drift": (
        "CrawlDiff", "DriftTimeline", "StoreMetrics", "build_timeline",
        "diff_stores", "profile_store",
    ),
    "repro.analysis.index": ("DatasetIndex", "VisitIndex", "as_index"),
    "repro.analysis.fingerprinting": ("fingerprint_surface",),
    "repro.analysis.landing_bias": (
        "LandingBiasReport", "measure_landing_bias",
    ),
    "repro.analysis.headers": ("HeaderAnalysis",),
    "repro.analysis.overpermission": ("OverPermissionAnalysis",),
    "repro.analysis.parties": ("Party", "classify_call_party"),
    "repro.analysis.proposals": (
        "evaluate_default_disallow_all", "local_scheme_attack_surface",
    ),
    "repro.analysis.prompts_analysis": ("PromptAnalysis",),
    "repro.analysis.ranks": ("RankBucketAnalysis",),
    "repro.analysis.summary": ("MeasurementSummary", "summarize"),
    "repro.analysis.usage": ("UsageAnalysis",),
    "repro.analysis.violations": ("ViolationAnalysis",),
})
