"""Policy-as-a-service: the async HTTP layer over the developer tools.

The paper ships its developer artifacts — registry site (Fig. 3), header
generator (Fig. 4), least-privilege recommender (Section 6.3) — as web
services; this package is our production-shaped equivalent (ROADMAP item
1): a zero-dependency asyncio HTTP service exposing the existing library
tools, with the core engine untouched.

Routes: ``POST /evaluate``, ``POST /generate-header``,
``POST /recommend``, ``GET /registry`` (plus ``GET /healthz`` and
``GET /stats``).  See DESIGN.md §4j for the request path and docs/API.md
for payload shapes.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.adapters": ("ToolAdapters",),
    "repro.service.cache": (
        "ResponseCache", "canonical_request_text", "request_key",
    ),
    "repro.service.errors": ("ServiceError", "error_from_exception"),
    "repro.service.ratelimit": ("ClientRateLimiter", "RateLimitConfig"),
    "repro.service.server": ("PolicyService", "ServiceThread"),
})
