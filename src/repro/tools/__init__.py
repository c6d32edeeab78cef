"""Developer-facing tools (paper Section 6.3).

* :mod:`repro.tools.support_site` — the caniuse-style permission-support
  matrix report (Figure 3);
* :mod:`repro.tools.header_generator` — the ``Permissions-Policy`` header
  generator with disable-all / disable-powerful presets (Figure 4);
* :mod:`repro.tools.recommender` — the crawl-based least-privilege
  recommender that suggests a header and ``allow`` delegations from
  observed usage;
* :mod:`repro.tools.poc` — the local-scheme specification-issue proof of
  concept (Table 11).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tools.header_generator": ("HeaderGenerator", "HeaderPreset"),
    "repro.tools.poc": ("LocalSchemePoC", "PoCOutcome"),
    "repro.tools.recommender": ("PolicyRecommendation", "PolicyRecommender"),
    "repro.tools.site_generator": ("SiteGenerator",),
    "repro.tools.support_site": ("SupportSiteReport",),
    "repro.tools.widget_report": ("WidgetDossier", "WidgetReporter"),
})
