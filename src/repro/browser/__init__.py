"""Browser substrate.

A simulated browser sufficient for the paper's measurement pipeline: frame
trees with response headers and iframe attributes, a script execution model
with call stacks, the permission-related Web API surface of Appendix A.4,
dynamic API instrumentation (Figure 1), and the permission prompt model.

* :mod:`repro.browser.scripts` — scripts: source text plus an operation
  list, with obfuscation / interaction-gating / dead-code variants;
* :mod:`repro.browser.api` — the instrumented API surface and helpers to
  build API calls;
* :mod:`repro.browser.instrumentation` — function wrapping that records
  invocations with stack traces before delegating to the original;
* :mod:`repro.browser.dom` — documents, iframe elements, frame trees;
* :mod:`repro.browser.page` — page loading: headers → policy → frames →
  script execution;
* :mod:`repro.browser.prompts` — the permission prompt decision model.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.browser.api": (
        "ApiKind", "ApiSpec", "APISurface", "DEFAULT_API_SURFACE",
        "allowed_features_call", "feature_policy_allows_call", "invoke_call",
        "query_call",
    ),
    "repro.browser.dom": ("Document", "FrameTree", "IframeElement"),
    "repro.browser.instrumentation": (
        "InstrumentedRuntime", "InvocationRecord", "WebAPIRuntime",
    ),
    "repro.browser.page": ("Page", "PageLoader"),
    "repro.browser.prompts": (
        "PermissionPrompt", "PromptModel", "PromptOutcome",
    ),
    "repro.browser.scripts": ("ApiCall", "Script"),
})
