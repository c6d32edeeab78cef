"""On-disk integrity: per-visit checksums, verification and quarantine.

Forensic crawl pipelines treat their own artifacts as untrusted — disks
corrupt, processes die mid-write, and a million-site run cannot afford to
discover that at analysis time.  This module gives
:class:`~repro.crawler.storage.CrawlStore` the same property:

* every visit saved carries a CRC-32 checksum over its canonical record
  encoding (``zlib.crc32``, the same salt-free digest
  :mod:`repro.browser.scripts` uses, so checksums are identical across
  processes and runs);
* :meth:`CrawlStore.verify() <repro.crawler.storage.CrawlStore.verify>`
  recomputes the CRC of every stored payload and reports rows that no
  longer match (decoding a row only to tell a decode error from a
  mismatch), and every read path skips such rows;
* with ``repair=True`` the corrupt rows move into a ``quarantine`` table
  — preserved for forensics, out of the analysed dataset — so
  ``load_dataset`` keeps working with counted warnings instead of
  crashing.

The canonical encoding is the JSONL export dict serialized compactly with
ASCII escapes, in insertion order.  It is what the store keeps as each
visit's row payload and what exports write, so the checksum covers every
byte a reader decodes: a bit flip, a truncated value or a lost child
record all surface as a mismatch, found with one CRC per row and no
decoding.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, fields

from repro.crawler.records import (
    CallRecord,
    FrameRecord,
    PromptRecord,
    ScriptSourceRecord,
    SiteVisit,
)

#: Stable ``reason`` tags for corrupt rows (reports aggregate on these).
CHECKSUM_MISMATCH = "checksum-mismatch"
DECODE_ERROR = "decode-error"
MISSING_CHECKSUM = "missing-checksum"


def canonical_visit_bytes(visit: SiteVisit) -> bytes:
    """The canonical byte encoding of one visit record: its stored row
    payload and its export line.

    Compact separators and ASCII escapes make the bytes independent of
    locale and interpreter defaults.  Keys keep insertion order, so frame
    header maps decode in crawl order.
    """
    return json.dumps(_visit_to_dict(visit), separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def visit_checksum(visit: SiteVisit) -> int:
    """CRC-32 of the canonical encoding (unsigned, fits SQLite INTEGER)."""
    return zlib.crc32(canonical_visit_bytes(visit))


def _visit_to_dict(visit: SiteVisit) -> dict:
    return {
        "rank": visit.rank,
        "requested_url": visit.requested_url,
        "final_url": visit.final_url,
        "success": visit.success,
        "failure": visit.failure,
        "top_level_document_count": visit.top_level_document_count,
        "skipped_lazy_iframes": visit.skipped_lazy_iframes,
        "iframe_load_failures": visit.iframe_load_failures,
        "duration_seconds": visit.duration_seconds,
        "retries": visit.retries,
        "error_detail": visit.error_detail,
        "frames": [
            {"frame_id": f.frame_id, "url": f.url, "origin": f.origin,
             "site": f.site, "parent_id": f.parent_id, "depth": f.depth,
             "is_local": f.is_local, "headers": f.headers,
             "iframe_attributes": f.iframe_attributes}
            for f in visit.frames],
        "calls": [
            {"frame_id": c.frame_id, "api": c.api, "kind": c.kind,
             "permissions": list(c.permissions), "args": list(c.args),
             "script_url": c.script_url, "allowed": c.allowed}
            for c in visit.calls],
        "scripts": [
            {"frame_id": s.frame_id, "url": s.url, "source": s.source}
            for s in visit.scripts],
        "prompts": [
            {"permission": p.permission,
             "requesting_frame_id": p.requesting_frame_id,
             "display_site": p.display_site, "text": p.text}
            for p in visit.prompts],
    }


#: Field names of each frozen child record, as the encoder writes them.
_RECORD_FIELDS = {
    cls: frozenset(f.name for f in fields(cls))
    for cls in (FrameRecord, CallRecord, ScriptSourceRecord, PromptRecord)}


def _record(cls: type, values: dict):
    """Rebuild a frozen child record from its encoded fields.

    Decoding is the hot path of every store read, and a frozen
    dataclass's ``__init__`` pays an ``object.__setattr__`` per field, so
    the fields go straight into the instance dict instead.  The key set
    must match the record's fields exactly; anything else is malformed.
    """
    if values.keys() != _RECORD_FIELDS[cls]:
        raise ValueError(f"{cls.__name__} record with fields "
                         f"{sorted(values)}")
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record


def _call_record(values: dict) -> CallRecord:
    record = _record(CallRecord, values)
    record.__dict__["permissions"] = tuple(values["permissions"])
    record.__dict__["args"] = tuple(values["args"])
    return record


def _visit_from_dict(data: dict) -> SiteVisit:
    return SiteVisit(
        rank=data["rank"],
        requested_url=data["requested_url"],
        final_url=data["final_url"],
        success=data["success"],
        failure=data.get("failure"),
        top_level_document_count=data.get("top_level_document_count", 1),
        skipped_lazy_iframes=data.get("skipped_lazy_iframes", 0),
        iframe_load_failures=data.get("iframe_load_failures", 0),
        duration_seconds=data.get("duration_seconds", 0.0),
        retries=data.get("retries", 0),
        error_detail=data.get("error_detail"),
        frames=[_record(FrameRecord, f) for f in data.get("frames", ())],
        calls=[_call_record(c) for c in data.get("calls", ())],
        scripts=[_record(ScriptSourceRecord, s)
                 for s in data.get("scripts", ())],
        prompts=[_record(PromptRecord, p) for p in data.get("prompts", ())],
    )


@dataclass(frozen=True)
class CorruptRow:
    """One visit the store could not verify."""

    rank: int
    reason: str
    detail: str = ""


@dataclass
class VerifyReport:
    """Result of one :meth:`CrawlStore.verify` pass.

    ``legacy_rows`` counts rows written before checksums existed
    (schema < 3).  A v4 store has none: the one-way upgrade on open
    checksums them and counts them in its own report
    (:attr:`CrawlStore.upgrade_report
    <repro.crawler.storage.CrawlStore.upgrade_report>`).
    """

    path: str
    total_rows: int = 0
    verified_rows: int = 0
    legacy_rows: int = 0
    corrupt: list[CorruptRow] = field(default_factory=list)
    quarantined: int = 0
    #: Rows already sitting in the quarantine table before this pass.
    previously_quarantined: int = 0

    @property
    def ok(self) -> bool:
        """Whether every checksummed row verified (legacy rows tolerated)."""
        return not self.corrupt

    def corrupt_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.corrupt:
            counts[row.reason] = counts.get(row.reason, 0) + 1
        return counts

    def to_json(self) -> dict:
        """JSON-serializable form (the CI quarantine-report artifact)."""
        return {
            "path": self.path,
            "total_rows": self.total_rows,
            "verified_rows": self.verified_rows,
            "legacy_rows": self.legacy_rows,
            "corrupt_rows": len(self.corrupt),
            "corrupt_by_reason": self.corrupt_by_reason(),
            "quarantined": self.quarantined,
            "previously_quarantined": self.previously_quarantined,
            "ok": self.ok,
            "corrupt": [{"rank": row.rank, "reason": row.reason,
                         "detail": row.detail} for row in self.corrupt],
        }

    def render(self) -> str:
        """Human-readable report for ``repro verify-store``."""
        lines = [
            f"store       {self.path}",
            f"rows        {self.total_rows} total, "
            f"{self.verified_rows} verified, {self.legacy_rows} legacy "
            f"(no checksum)",
        ]
        if self.previously_quarantined:
            lines.append(f"quarantine  {self.previously_quarantined} rows "
                         f"already quarantined")
        if self.corrupt:
            reasons = ", ".join(f"{reason}={count}" for reason, count
                                in sorted(self.corrupt_by_reason().items()))
            lines.append(f"corrupt     {len(self.corrupt)} rows ({reasons})")
            for row in self.corrupt[:20]:
                lines.append(f"  rank {row.rank}: {row.reason}"
                             + (f" — {row.detail}" if row.detail else ""))
            if len(self.corrupt) > 20:
                lines.append(f"  ... and {len(self.corrupt) - 20} more")
            if self.quarantined:
                lines.append(f"repaired    {self.quarantined} rows moved "
                             f"to quarantine")
            else:
                lines.append("repaired    nothing (re-run with --repair to "
                             "quarantine)")
        else:
            lines.append("corrupt     0 rows — store verifies clean")
        return "\n".join(lines)
