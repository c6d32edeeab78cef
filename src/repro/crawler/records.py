"""Measurement records.

These are the rows the paper's pipeline stores in its database after each
site visit (Section 3.1): per-frame response headers and iframe attributes,
per-call invocation records with stack traces, and the script sources the
static analysis scans.  Everything downstream — usage, delegation, header
and over-permission analysis — consumes only these records, so a crawl can
be persisted, reloaded and re-analysed without the browser substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.browser.api import ApiKind

if TYPE_CHECKING:  # pragma: no cover - the store read path loads no browser
    from repro.browser.page import Page


@dataclass(frozen=True)
class FrameRecord:
    """One frame (top-level document or iframe) of a visit."""

    frame_id: int
    url: str
    origin: str
    site: str
    parent_id: int | None
    depth: int
    is_local: bool
    headers: dict[str, str]
    #: Attributes of the container <iframe> element (Section 3.1.2's list);
    #: ``None`` for top-level documents.
    iframe_attributes: dict[str, str] | None

    @property
    def is_top_level(self) -> bool:
        return self.parent_id is None

    @property
    def allow_attribute(self) -> str | None:
        if self.iframe_attributes is None:
            return None
        return self.iframe_attributes.get("allow")

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())


@dataclass(frozen=True)
class CallRecord:
    """One recorded API invocation (Figure 1's ``save`` output)."""

    frame_id: int
    api: str
    kind: str                    # ApiKind value
    permissions: tuple[str, ...]
    args: tuple[str, ...]
    script_url: str | None       # None == inline/dynamic (first-party)
    allowed: bool

    @property
    def is_general(self) -> bool:
        return self.kind == ApiKind.GENERAL.value

    @property
    def is_status_check(self) -> bool:
        return self.kind == ApiKind.STATUS_CHECK.value

    @property
    def is_invoke(self) -> bool:
        return self.kind == ApiKind.INVOKE.value

    @property
    def uses_deprecated_feature_policy_api(self) -> bool:
        return "featurePolicy" in self.api


@dataclass(frozen=True)
class ScriptSourceRecord:
    """One script source collected for static analysis."""

    frame_id: int
    url: str | None
    source: str


@dataclass(frozen=True)
class PromptRecord:
    """One permission prompt the visit would have shown to a user.

    The crawler never answers prompts, but it records what fired: powerful
    permissions requested on page load without any gesture are the
    annoyance the prompt-UX literature the paper cites (Section 7) is
    about.
    """

    permission: str
    requesting_frame_id: int
    display_site: str
    text: str


@dataclass
class SiteVisit:
    """Everything one site visit produced (or the failure that ended it)."""

    rank: int
    requested_url: str
    final_url: str
    success: bool
    failure: str | None = None
    frames: list[FrameRecord] = field(default_factory=list)
    calls: list[CallRecord] = field(default_factory=list)
    scripts: list[ScriptSourceRecord] = field(default_factory=list)
    prompts: list[PromptRecord] = field(default_factory=list)
    top_level_document_count: int = 1
    skipped_lazy_iframes: int = 0
    iframe_load_failures: int = 0
    duration_seconds: float = 0.0
    #: Transient-failure retries performed before this final outcome.
    retries: int = 0
    #: Traceback text for unexpected (non-CrawlError) crashes — the paper's
    #: minor-crawler-error class; ``None`` for clean visits/failures.
    error_detail: str | None = None

    @property
    def top_frame(self) -> FrameRecord:
        for frame in self.frames:
            if frame.is_top_level:
                return frame
        raise ValueError("visit has no top-level frame")

    def frame_by_id(self, frame_id: int) -> FrameRecord:
        for frame in self.frames:
            if frame.frame_id == frame_id:
                return frame
        raise KeyError(frame_id)

    def embedded_frames(self) -> list[FrameRecord]:
        return [frame for frame in self.frames if not frame.is_top_level]

    def calls_in_frame(self, frame_id: int) -> list[CallRecord]:
        return [call for call in self.calls if call.frame_id == frame_id]


def visit_from_page(rank: int, requested_url: str, page: Page,
                    duration_seconds: float = 0.0) -> SiteVisit:
    """Convert a loaded :class:`~repro.browser.page.Page` into the stored
    record form."""
    visit = SiteVisit(
        rank=rank,
        requested_url=requested_url,
        final_url=page.url,
        success=True,
        top_level_document_count=page.top_level_document_count,
        skipped_lazy_iframes=page.skipped_lazy_iframes,
        iframe_load_failures=len(page.iframe_load_failures),
        duration_seconds=duration_seconds,
    )
    for document in page.frames:
        attrs = (document.container.attribute_dict()
                 if document.container is not None else None)
        visit.frames.append(FrameRecord(
            frame_id=document.frame_id,
            url=document.url,
            origin=document.origin.serialize(),
            site=document.site,
            parent_id=(document.parent.frame_id
                       if document.parent is not None else None),
            depth=document.depth,
            is_local=document.is_local_scheme,
            headers=dict(document.headers),
            iframe_attributes=attrs,
        ))
        for script in document.scripts:
            visit.scripts.append(ScriptSourceRecord(
                frame_id=document.frame_id, url=script.url,
                source=script.source))
    for prompt in page.prompts:
        visit.prompts.append(PromptRecord(
            permission=prompt.permission,
            requesting_frame_id=prompt.requesting_frame_id,
            display_site=prompt.display_site,
            text=prompt.text))
    for record in page.invocations:
        visit.calls.append(CallRecord(
            frame_id=record.frame_id,
            api=record.api,
            kind=record.kind.value,
            permissions=record.permissions,
            args=record.args,
            script_url=record.calling_script_url,
            allowed=record.allowed,
        ))
    return visit


def failed_visit(rank: int, url: str, taxonomy: str,
                 duration_seconds: float = 0.0,
                 error_detail: str | None = None) -> SiteVisit:
    return SiteVisit(rank=rank, requested_url=url, final_url=url,
                     success=False, failure=taxonomy,
                     duration_seconds=duration_seconds,
                     error_detail=error_detail)


def successful_visits(visits: Iterable[SiteVisit]) -> list[SiteVisit]:
    return [visit for visit in visits if visit.success]
