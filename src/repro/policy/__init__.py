"""Permissions Policy engine.

A from-scratch implementation of the mechanisms the paper measures
(Sections 2 and 3):

* :mod:`repro.policy.origin` — origins, sites (eTLD+1) and local schemes;
* :mod:`repro.policy.structured` — the RFC 8941 structured-field parser the
  ``Permissions-Policy`` header syntax is built on;
* :mod:`repro.policy.allowlist` — allowlist values and matching;
* :mod:`repro.policy.header` — ``Permissions-Policy`` header parsing with
  the error taxonomy behind the paper's misconfiguration analysis (4.3.3);
* :mod:`repro.policy.feature_policy` — the legacy ``Feature-Policy`` syntax;
* :mod:`repro.policy.allow_attr` — the iframe ``allow`` attribute;
* :mod:`repro.policy.engine` — policy inheritance and
  ``is_feature_enabled``, including the local-scheme spec bug (Table 11);
* :mod:`repro.policy.csp` — the minimal CSP ``frame-src`` model that gates
  the local-scheme attack (Section 6.2);
* :mod:`repro.policy.linter` — syntax and semantic misconfiguration
  detection for deployed headers.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.policy.allow_attr": ("AllowAttribute", "parse_allow_attribute"),
    "repro.policy.allowlist": ("Allowlist", "AllowlistKeyword"),
    "repro.policy.engine": (
        "PermissionsPolicyEngine", "PolicyDecision", "PolicyFrame",
    ),
    "repro.policy.feature_policy": ("parse_feature_policy_header",),
    "repro.policy.header": (
        "HeaderParseError", "ParsedPolicyHeader",
        "parse_permissions_policy_header",
    ),
    "repro.policy.issues": ("ParseIssue",),
    "repro.policy.linter": ("HeaderLinter", "LintFinding", "LintSeverity"),
    "repro.policy.origin": ("LOCAL_SCHEMES", "Origin", "site_of"),
})
