"""Permission registry substrate.

The paper (Section 6.3, Figure 3) maintains a curated list of browser
permissions together with their characteristics: whether a permission is
*policy-controlled* (governed by the Permissions Policy specification and
hence carrying a default allowlist), whether it is *powerful* (requiring
explicit user consent via a prompt), and which browsers support it.

This subpackage is the in-repo equivalent of that curated list:

* :mod:`repro.registry.features` — the permission catalogue (Appendix A.4 of
  the paper plus the additional permissions appearing in its result tables),
  modelled as immutable :class:`~repro.registry.features.Permission` records
  collected in a :class:`~repro.registry.features.PermissionRegistry`.
* :mod:`repro.registry.browsers` — a model of browser engines and releases.
* :mod:`repro.registry.support` — the per-browser/per-version support matrix
  with history queries (the backing data of the paper's Figure 3 site).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.registry.browsers": (
        "Browser", "BrowserEngine", "BrowserRelease", "CHROMIUM", "FIREFOX",
        "SAFARI", "default_releases",
    ),
    "repro.registry.features": (
        "DEFAULT_REGISTRY", "DefaultAllowlist", "Permission",
        "PermissionCategory", "PermissionRegistry", "UnknownPermissionError",
    ),
    "repro.registry.support": (
        "SupportEntry", "SupportMatrix", "SupportStatus",
        "default_support_matrix",
    ),
})
