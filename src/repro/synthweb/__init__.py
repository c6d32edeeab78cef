"""Synthetic web ecosystem.

The paper measures the live top-1M websites; offline we substitute a
deterministic generator calibrated to the paper's published marginals
(DESIGN.md Section 2).  The subpackage is organised as:

* :mod:`repro.synthweb.distributions` — every number the paper reports, as
  constants, plus the generator rates derived from them;
* :mod:`repro.synthweb.profiles` — embedded-widget profiles (YouTube,
  LiveChat, DoubleClick, Stripe, … — Tables 3, 7, 10, 13);
* :mod:`repro.synthweb.scripts_gen` — script archetypes: the third-party
  tag managers, ads, push and fingerprinting scripts plus the static-only
  share/geolocation/video functionality (Tables 4–6);
* :mod:`repro.synthweb.generator` — assembles per-site specifications,
  deterministic in ``(seed, rank)``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.synthweb.distributions": (
        "GeneratorRates", "PAPER", "PaperMarginals",
    ),
    "repro.synthweb.eras": (
        "Era", "measure_era", "rates_for_era", "transition_curve",
    ),
    "repro.synthweb.generator": ("SiteSpec", "SyntheticWeb"),
    "repro.synthweb.profiles": ("WidgetProfile", "default_widget_profiles"),
})
