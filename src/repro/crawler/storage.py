"""Crawl persistence: SQLite database plus JSONL export/import.

The paper's wrapper stores all collected data in a database immediately
after each site completes (Appendix A.2, C14).  :class:`CrawlStore`
reproduces that: one SQLite file whose ``visits`` table holds one row per
visit — its canonical encoding (:func:`~repro.crawler.integrity
.canonical_visit_bytes`) and that payload's CRC-32 — savable
incrementally from any thread behind a serialized writer lock, with WAL
enabled for concurrent readers, and loadable back into
:class:`~repro.crawler.pool.CrawlDataset` form so analyses can run
without re-crawling.

On-disk data is treated as untrusted (DESIGN.md §4g):

* every read path (:meth:`CrawlStore.iter_visits`, ``load_dataset``,
  ``load_visits``, ``stored_ranks``) checks each payload against its
  checksum and skips a mismatched row with a counted warning, so a
  corrupt visit is absent rather than silently altered, and resume
  re-crawls it;
* :meth:`CrawlStore.verify` compares every CRC without decoding and,
  with ``repair=True``, moves corrupt rows into a ``quarantine`` table;
* a schema-3 store (five normalized tables) is upgraded in place, one
  way, when it is opened.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.crawler.integrity import (
    CHECKSUM_MISMATCH,
    DECODE_ERROR,
    CorruptRow,
    VerifyReport,
    _visit_from_dict,
    _visit_to_dict,
    canonical_visit_bytes,
)
from repro.obs import metrics as _metrics
from repro.crawler.records import (
    CallRecord,
    FrameRecord,
    PromptRecord,
    ScriptSourceRecord,
    SiteVisit,
)

if TYPE_CHECKING:  # pragma: no cover - the store read path loads no crawler
    from repro.crawler.pool import CrawlDataset

logger = logging.getLogger(__name__)

#: Version of the on-disk layout below.  Bump on any change to tables,
#: columns or row encoding; the measurement cache
#: (:mod:`repro.experiments.runner`) keys its manifests on this value so
#: stale checkpoints are re-crawled instead of misread.
SCHEMA_VERSION = 4

#: Maximum parameters per ``IN (...)`` clause; SQLite's default variable
#: limit is 999, so stay comfortably below it.
_SQL_IN_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS visits (
    rank INTEGER PRIMARY KEY,
    payload BLOB NOT NULL,
    checksum INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    rank INTEGER NOT NULL,
    reason TEXT NOT NULL,
    detail TEXT NOT NULL,
    payload TEXT
);
"""


def _safe_text(text: str, limit: int = 200) -> str:
    """Clip and ASCII-escape untrusted text destined for reports/SQLite."""
    text = text.encode("ascii", "backslashreplace").decode("ascii")
    if len(text) > limit:
        text = text[:limit] + f"... ({len(text)} chars)"
    return text


def _payload_bytes(value: object) -> bytes:
    """A stored payload as bytes.  SQLite's dynamic typing lets an UPDATE
    turn the BLOB into TEXT (or anything else); the CRC then decides."""
    if isinstance(value, bytes):
        return value
    return str(value).encode("utf-8", "surrogatepass")


def _checked(rows: Iterable[tuple], corrupt: Counter
             ) -> Iterator[tuple[int, bytes]]:
    """``(rank, payload)`` of the rows whose payload matches its CRC;
    mismatches are counted, never decoded."""
    for rank, payload, checksum in rows:
        payload = _payload_bytes(payload)
        if zlib.crc32(payload) == checksum:
            yield rank, payload
        else:
            corrupt[CHECKSUM_MISMATCH] += 1


def _decoded(pairs: Iterable[tuple[int, bytes]], corrupt: Counter
             ) -> Iterator[SiteVisit]:
    for _, payload in pairs:
        try:
            visit = _visit_from_dict(json.loads(payload))
        except Exception:
            corrupt[DECODE_ERROR] += 1
            continue
        yield visit


def encode_rows(visits: Iterable[SiteVisit]
                ) -> list[tuple[int, bytes, int]]:
    """``(rank, payload, checksum)`` store rows of ``visits``: each
    payload is :func:`~repro.crawler.integrity.canonical_visit_bytes`,
    each checksum its CRC-32."""
    rows = []
    for visit in visits:
        payload = canonical_visit_bytes(visit)
        rows.append((visit.rank, payload, zlib.crc32(payload)))
    return rows


class CrawlStore:
    """SQLite-backed persistence for crawl datasets.

    One store owns one connection, opened with
    ``check_same_thread=False`` and guarded by a serialized writer lock,
    so pool worker threads can call :meth:`save_visit` directly as each
    site completes.  The journal runs in WAL mode so readers (another
    process tailing the checkpoint) never block the writers.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # NORMAL is the canonical WAL pairing: commits stop fsyncing the
        # WAL (only checkpoints sync), which at crawl scale cuts the store
        # stage's cost several-fold.  Crash safety is unchanged for the
        # failure mode the resume contract covers — a killed *process*
        # loses nothing — and even an OS-level power loss can only drop
        # the most recent commits, never corrupt the file; verify() and
        # the per-visit checksums catch anything torn.
        self._conn.execute("PRAGMA synchronous=NORMAL")
        #: What the schema-3 upgrade found when this open converted the
        #: store (``None`` when it was already current): rows verified,
        #: legacy (pre-checksum) rows checksummed as they stood, and
        #: corrupt rows moved to ``quarantine`` with their v3 reason.
        self.upgrade_report: "VerifyReport | None" = None
        if _has_v3_layout(self._conn):
            self.upgrade_report = _upgrade_v3(self._conn, self.path)
        self._conn.executescript(_SCHEMA)
        #: Rows the most recent read skipped, by reason
        #: (``checksum-mismatch`` / ``decode-error``).
        self.last_corrupt_counts: dict[str, int] = {}

    def flush(self) -> None:
        """Commit and checkpoint the WAL into the main database file.

        Called on graceful shutdown so a subsequently copied/inspected
        database file is complete even if the ``-wal`` sidecar is lost.
        """
        with self._lock:
            self._conn.commit()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "CrawlStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing ---------------------------------------------------------------

    def save_visit(self, visit: SiteVisit) -> None:
        """Persist one visit (incremental, mirroring C14).  Thread-safe."""
        self.write_rows(encode_rows([visit]))

    def save_visits(self, visits: Iterable[SiteVisit], *,
                    chunk_size: int = 256) -> int:
        """Persist many visits with one transaction per ``chunk_size`` chunk.

        The batched counterpart of :meth:`save_visit` — same row encoding,
        same checksum, same quarantine/supersede semantics — with one
        commit per chunk instead of a commit per visit.  This is the
        pool's hot path at scale; per-visit commits dominate the store
        stage otherwise.  Accepts any iterable (including a generator, so a
        whole shard can stream through).  Thread-safe.  Returns the number
        of visits written.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        total = 0
        chunk: list[SiteVisit] = []
        for visit in visits:
            chunk.append(visit)
            if len(chunk) >= chunk_size:
                total += self.write_rows(encode_rows(chunk))
                chunk = []
        if chunk:
            total += self.write_rows(encode_rows(chunk))
        return total

    def write_rows(self, rows: "Sequence[tuple[int, bytes, int]]") -> int:
        """Write :func:`encode_rows` rows inside a single transaction.

        The write half of every save: the process backend's workers encode
        their chunks (:func:`encode_rows` dominates a save's CPU cost and
        needs no connection state) and the parent writes the rows here.
        A written rank supersedes its row and any quarantined wreckage.
        A failing write rolls its transaction back and raises; earlier
        commits stay.  Thread-safe.  Returns the number of rows written.

        When metrics are on, the writer thread's *CPU* time inside the
        lock is recorded in the ``store.write_seconds`` histogram
        (:func:`time.thread_time`, not wall clock), so lock waits and
        other threads' compute are never charged to the store.
        """
        with self._lock:
            start = time.thread_time() if _metrics.COUNTING else 0.0
            with self._conn as conn:
                conn.executemany("DELETE FROM quarantine WHERE rank = ?",
                                 [(row[0],) for row in rows])
                conn.executemany(
                    "INSERT OR REPLACE INTO visits (rank, payload, checksum) "
                    "VALUES (?,?,?)", rows)
            if _metrics.COUNTING:
                _metrics.REGISTRY.histogram("store.write_seconds").observe(
                    time.thread_time() - start)
        if _metrics.COUNTING and rows:
            _metrics.REGISTRY.counter("store.visits_saved").inc(len(rows))
        return len(rows)

    def save_dataset(self, dataset: CrawlDataset) -> None:
        self.save_visits(dataset.visits)

    # -- reading ----------------------------------------------------------------

    def _finish_read(self, corrupt: Counter,
                     loaded: "int | None" = None) -> None:
        """Publish one read's skipped rows (counts, metrics, a warning)."""
        self.last_corrupt_counts = dict(corrupt)
        if _metrics.COUNTING:
            registry = _metrics.REGISTRY
            if loaded is not None:
                registry.counter("store.visits_loaded").inc(loaded)
            if corrupt:
                registry.counter("store.corrupt_rows").inc(
                    sum(corrupt.values()))
        if corrupt:
            detail = ", ".join(f"{reason}={count}" for reason, count
                               in sorted(corrupt.items()))
            logger.warning(
                "skipped rows that failed their checksum or decode (%s) "
                "in %s — run `repro verify-store --repair` to quarantine "
                "them", detail, self.path)

    def stored_ranks(self) -> set[int]:
        """Ranks whose stored payload matches its checksum — the
        checkpoint/resume frontier.  A corrupt row is left out (counted in
        :attr:`last_corrupt_counts`), so resume re-crawls it."""
        corrupt: Counter = Counter()
        with self._lock:
            ranks = {rank for rank, _ in _checked(self._conn.execute(
                "SELECT rank, payload, checksum FROM visits"), corrupt)}
        self._finish_read(corrupt)
        return ranks

    def outcome_counts(self, ranks: "Iterable[int]") -> Counter:
        """Visit outcomes of the given stored ranks: ``None`` counts
        successes, any other key is a failure taxonomy.  Read with
        ``json_extract`` inside SQLite, without decoding a visit; callers
        pass ranks :meth:`stored_ranks` has already checksummed."""
        wanted = sorted(set(ranks))
        outcomes: Counter = Counter()
        with self._lock:
            for start in range(0, len(wanted), _SQL_IN_CHUNK):
                chunk = wanted[start:start + _SQL_IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                for success, failure in self._conn.execute(
                        "SELECT json_extract(CAST(payload AS TEXT), "
                        "'$.success'), json_extract(CAST(payload AS TEXT), "
                        f"'$.failure') FROM visits WHERE rank IN ({marks})",
                        chunk):
                    outcomes[None if success
                             else failure or "unknown"] += 1
        return outcomes

    def load_dataset(self) -> CrawlDataset:
        """Load everything back into dataset form.

        Rows whose payload fails its checksum (or, checksum intact, fails
        to decode) are skipped and counted in :attr:`last_corrupt_counts`
        with a logged warning, so analysis of a damaged store never
        crashes and never sees an altered visit — run
        ``repro verify-store --repair`` to quarantine them properly.
        """
        from repro.crawler.pool import CrawlDataset
        return CrawlDataset(visits=list(self.iter_visits()))

    def _walk(self, corrupt: Counter, batch_size: int,
              min_rank: "int | None", max_rank: "int | None"
              ) -> Iterator[tuple[int, bytes]]:
        """Checksummed ``(rank, payload)`` rows in rank order, fetched by
        keyset pagination (``WHERE rank > last``) ``batch_size`` at a time.
        The writer lock is taken per batch, not across the walk."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        clauses: list[str] = []
        params: list[int] = []
        if min_rank is not None:
            clauses.append("rank >= ?")
            params.append(min_rank)
        if max_rank is not None:
            clauses.append("rank <= ?")
            params.append(max_rank)
        last_rank: "int | None" = None
        while True:
            where = list(clauses)
            if last_rank is not None:
                where.append("rank > ?")
            sql = ("SELECT rank, payload, checksum FROM visits"
                   + (f" WHERE {' AND '.join(where)}" if where else "")
                   + " ORDER BY rank LIMIT ?")
            args = (*params, *(() if last_rank is None else (last_rank,)),
                    batch_size)
            with self._lock:
                rows = self._conn.execute(sql, args).fetchall()
            if not rows:
                return
            last_rank = rows[-1][0]
            yield from _checked(rows, corrupt)

    def iter_payloads(self, *, batch_size: int = _SQL_IN_CHUNK,
                      min_rank: "int | None" = None,
                      max_rank: "int | None" = None
                      ) -> Iterator[tuple[int, bytes]]:
        """Stream ``(rank, canonical payload bytes)`` in rank order, every
        row checked against its CRC and never decoded — what
        :func:`export_jsonl` writes verbatim.  Skipped rows are counted in
        :attr:`last_corrupt_counts` once the iterator is exhausted."""
        corrupt: Counter = Counter()
        loaded = 0
        for pair in self._walk(corrupt, batch_size, min_rank, max_rank):
            yield pair
            loaded += 1
        self._finish_read(corrupt, loaded)

    def iter_visits(self, *, batch_size: int = _SQL_IN_CHUNK,
                    min_rank: "int | None" = None,
                    max_rank: "int | None" = None
                    ) -> Iterator[SiteVisit]:
        """Stream stored visits in rank order with bounded memory.

        Yields exactly what :meth:`load_dataset` would return, but only
        ``batch_size`` rows are resident at a time; each costs one CRC
        and one ``json.loads``.  Corrupt rows are skipped and counted as
        in :meth:`load_dataset`; :attr:`last_corrupt_counts` is populated
        when the iterator is exhausted.

        ``min_rank`` / ``max_rank`` bound the walk to an inclusive rank
        span — the process-parallel summarize streams one contiguous span
        per worker through this.
        """
        corrupt: Counter = Counter()
        loaded = 0
        for visit in _decoded(self._walk(corrupt, batch_size, min_rank,
                                         max_rank), corrupt):
            yield visit
            loaded += 1
        self._finish_read(corrupt, loaded)

    def load_visits(self, ranks: "Iterable[int]") -> list[SiteVisit]:
        """Load only the given ranks — the targeted resume query.

        Unlike :meth:`load_dataset` this never materialises the whole
        checkpoint; ranks not present in the store (or whose row fails its
        checksum) are skipped.  Returns visits sorted by rank.
        """
        wanted = sorted(set(ranks))
        corrupt: Counter = Counter()
        visits: list[SiteVisit] = []
        for start in range(0, len(wanted), _SQL_IN_CHUNK):
            chunk = wanted[start:start + _SQL_IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            with self._lock:
                rows = self._conn.execute(
                    "SELECT rank, payload, checksum FROM visits "
                    f"WHERE rank IN ({marks}) ORDER BY rank",
                    chunk).fetchall()
            visits.extend(_decoded(_checked(rows, corrupt), corrupt))
        self._finish_read(corrupt, len(visits))
        return visits

    def merge_from(self, other: "CrawlStore", *,
                   chunk_size: int = 256) -> int:
        """Merge every visit of ``other`` into this store.

        Fast path: ``other``'s rows are copied verbatim inside SQLite via
        ``ATTACH`` + ``INSERT ... SELECT`` — no Python-side decode or
        re-encode.  A row's payload *is* its canonical encoding, so the
        copy is byte-for-byte what re-saving the visits would produce,
        checksums included.  Ranks present in both stores are superseded
        by ``other``'s copy, mirroring :meth:`save_visit`'s INSERT OR
        REPLACE semantics.  If ATTACH fails (e.g. the target's SQLite
        build restricts it), the merge falls back to streaming ``other``
        through :meth:`save_visits` in ``chunk_size`` batches.  Returns
        the number of visits merged.
        """
        if self.path.resolve() == Path(other.path).resolve():
            raise ValueError("cannot merge a store into itself")
        try:
            return self._merge_attached(other)
        except sqlite3.Error:
            logger.warning("ATTACH merge from %s failed; falling back to "
                           "the streaming merge", other.path, exc_info=True)
            return self.save_visits(other.iter_visits(),
                                    chunk_size=chunk_size)

    def _merge_attached(self, other: "CrawlStore") -> int:
        other.flush()  # checkpoint src so a fresh reader sees every row
        with self._lock:
            start = time.thread_time() if _metrics.COUNTING else 0.0
            conn = self._conn
            conn.commit()  # ATTACH is illegal inside a transaction
            conn.execute("ATTACH DATABASE ? AS merge_src",
                         (str(other.path),))
            try:
                count = conn.execute(
                    "SELECT COUNT(*) FROM merge_src.visits").fetchone()[0]
                conn.execute("DELETE FROM quarantine WHERE rank IN "
                             "(SELECT rank FROM merge_src.visits)")
                conn.execute(
                    "INSERT OR REPLACE INTO visits (rank, payload, checksum) "
                    "SELECT rank, payload, checksum FROM merge_src.visits "
                    "ORDER BY rank")
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
            finally:
                conn.execute("DETACH DATABASE merge_src")
            if _metrics.COUNTING:
                _metrics.REGISTRY.histogram("store.write_seconds").observe(
                    time.thread_time() - start)
        if _metrics.COUNTING and count:
            _metrics.REGISTRY.counter("store.visits_saved").inc(count)
        return count

    # -- integrity ---------------------------------------------------------------

    def verify(self, *, repair: bool = False) -> VerifyReport:
        """Check every stored payload against its checksum.

        Returns a :class:`~repro.crawler.integrity.VerifyReport`.  Rows
        stream through one CRC each and are not decoded; only a row that
        fails its CRC is parsed, to tell a ``decode-error`` (unparseable
        payload) from a ``checksum-mismatch``.  With ``repair=True``
        corrupt rows are moved into the ``quarantine`` table — their raw
        row preserved there as a JSON payload for forensics — so later
        reads see a clean store.
        """
        report = VerifyReport(path=str(self.path))
        with self._lock:
            conn = self._conn
            row = conn.execute("SELECT COUNT(*) FROM quarantine").fetchone()
            report.previously_quarantined = int(row[0])
            for rank, payload, checksum in conn.execute(
                    "SELECT rank, payload, checksum FROM visits "
                    "ORDER BY rank"):
                report.total_rows += 1
                payload = _payload_bytes(payload)
                actual = zlib.crc32(payload)
                if actual == checksum:
                    report.verified_rows += 1
                    continue
                try:
                    json.loads(payload)
                except Exception as exc:
                    report.corrupt.append(CorruptRow(
                        rank, DECODE_ERROR,
                        _safe_text(f"{type(exc).__name__}: {exc}")))
                else:
                    report.corrupt.append(CorruptRow(
                        rank, CHECKSUM_MISMATCH,
                        f"stored {checksum}, recomputed {actual}"))
            if repair and report.corrupt:
                for bad in report.corrupt:
                    self._quarantine_rank(bad)
                conn.commit()
                report.quarantined = len(report.corrupt)
        if _metrics.COUNTING:
            registry = _metrics.REGISTRY
            if report.corrupt:
                registry.counter("store.corrupt_rows").inc(
                    len(report.corrupt))
            if report.quarantined:
                registry.counter("store.quarantined_rows").inc(
                    report.quarantined)
        return report

    def _quarantine_rank(self, bad: CorruptRow) -> None:
        """Move one corrupt rank out of the live table (caller commits)."""
        conn = self._conn
        rows = [[rank, _payload_bytes(payload).decode("latin-1"), checksum]
                for rank, payload, checksum in conn.execute(
                    "SELECT rank, payload, checksum FROM visits "
                    "WHERE rank = ?", (bad.rank,))]
        conn.execute(
            "INSERT INTO quarantine (rank, reason, detail, payload) "
            "VALUES (?,?,?,?)",
            (bad.rank, bad.reason, _safe_text(bad.detail),
             json.dumps({"visits": rows}, default=repr)))
        conn.execute("DELETE FROM visits WHERE rank = ?", (bad.rank,))

    def quarantine_rank(self, rank: int, *, reason: str,
                        detail: str = "") -> None:
        """Quarantine a rank directly (no corrupt row required).

        The crawl supervisor's poison-visit path: a rank whose visit
        repeatedly kills or hangs worker processes is recorded here —
        same table and semantics as :meth:`verify`'s repair quarantine —
        and any live row it may have is dropped, so the dataset equals
        a crawl that never attempted the rank.  A later
        :meth:`save_visit` of the rank supersedes the entry, like any
        other quarantined rank.  Thread-safe.
        """
        with self._lock:
            conn = self._conn
            conn.execute("DELETE FROM quarantine WHERE rank = ?", (rank,))
            conn.execute(
                "INSERT INTO quarantine (rank, reason, detail, payload) "
                "VALUES (?,?,?,?)",
                (rank, reason, _safe_text(detail), None))
            conn.execute("DELETE FROM visits WHERE rank = ?", (rank,))
            conn.commit()
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("store.quarantined_rows").inc()

    def quarantine_rows(self) -> list[tuple[int, str, str]]:
        """``(rank, reason, detail)`` for every quarantined row."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT rank, reason, detail FROM quarantine ORDER BY rank"
            ).fetchall()
        return [(int(rank), reason, detail) for rank, reason, detail in rows]


# -- schema 3 -> 4 upgrade -----------------------------------------------------
#
# Schema 3 spread a visit over five normalized tables and checksummed a
# sorted-key JSON encoding.  The upgrade decodes each v3 visit, checks it
# against its v3 checksum, and rewrites it as one payload row; a corrupt
# visit goes to quarantine with the reason v3 verify() would have given.

_V3_TABLES = ("visits", "frames", "calls", "scripts", "prompts")

#: Columns added to the v3 ``visits`` table after it first shipped, with
#: the value an older row reads as.
_V3_LATE_COLUMNS = {"retries": "0", "error_detail": "NULL",
                    "checksum": "NULL"}

#: ``(table, columns, row -> record)``; the table name is also the
#: :class:`SiteVisit` attribute its records go to.
_V3_CHILDREN = (
    ("frames", "frame_id, url, origin, site, parent_id, depth, is_local, "
     "headers, iframe_attributes",
     lambda r: FrameRecord(
         frame_id=r[1], url=r[2], origin=r[3], site=r[4], parent_id=r[5],
         depth=r[6], is_local=bool(r[7]), headers=json.loads(r[8]),
         iframe_attributes=(json.loads(r[9]) if r[9] is not None
                            else None))),
    ("calls", "frame_id, api, kind, permissions, args, script_url, allowed",
     lambda r: CallRecord(
         frame_id=r[1], api=r[2], kind=r[3],
         permissions=tuple(json.loads(r[4])), args=tuple(json.loads(r[5])),
         script_url=r[6], allowed=bool(r[7]))),
    ("scripts", "frame_id, url, source",
     lambda r: ScriptSourceRecord(frame_id=r[1], url=r[2], source=r[3])),
    ("prompts", "frame_id, permission, display_site, text",
     lambda r: PromptRecord(permission=r[2], requesting_frame_id=r[1],
                            display_site=r[3], text=r[4])),
)


def _has_v3_layout(conn: sqlite3.Connection) -> bool:
    columns = {row[1] for row in conn.execute("PRAGMA table_info(visits)")}
    return "requested_url" in columns


def _v3_checksum(visit: SiteVisit) -> int:
    return zlib.crc32(json.dumps(
        _visit_to_dict(visit), sort_keys=True, separators=(",", ":"),
        ensure_ascii=True).encode("ascii"))


def _upgrade_v3(conn: sqlite3.Connection,
                path: Path) -> "VerifyReport | None":
    """Rewrite a schema-3 store as v4 in one transaction; see above.
    Returns ``None`` when another connection upgraded it first."""
    report = VerifyReport(path=str(path))
    conn.execute("BEGIN IMMEDIATE")
    try:
        if not _has_v3_layout(conn):
            conn.rollback()
            return None
        conn.execute("ALTER TABLE visits RENAME TO visits_v3")
        # executescript() would COMMIT first; run the DDL statement by
        # statement so the whole upgrade stays one transaction.
        for statement in _SCHEMA.split(";"):
            if statement.strip():
                conn.execute(statement)
        present = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        columns = {row[1] for row in
                   conn.execute("PRAGMA table_info(visits_v3)")}
        late = ", ".join(name if name in columns else default
                         for name, default in _V3_LATE_COLUMNS.items())
        visit_rows = conn.execute(
            "SELECT rank, requested_url, final_url, success, failure, "
            "top_level_document_count, skipped_lazy_iframes, "
            f"iframe_load_failures, duration_seconds, {late} "
            "FROM visits_v3 ORDER BY rank").fetchall()
        for start in range(0, len(visit_rows), _SQL_IN_CHUNK):
            _upgrade_v3_batch(conn, visit_rows[start:start + _SQL_IN_CHUNK],
                              present, report)
        conn.execute("DROP TABLE visits_v3")
        for table in _V3_TABLES[1:]:
            conn.execute(f"DROP TABLE IF EXISTS {table}")  # noqa: S608
        conn.commit()
    except BaseException:
        conn.rollback()
        raise
    logger.warning(
        "upgraded %s from schema 3 to %d: %d rows, %d verified, %d legacy "
        "(checksummed as stored), %d corrupt moved to quarantine", path,
        SCHEMA_VERSION, report.total_rows, report.verified_rows,
        report.legacy_rows, report.quarantined)
    return report


def _upgrade_v3_batch(conn: sqlite3.Connection, visit_rows: list,
                      present: set, report: VerifyReport) -> None:
    visits: dict[int, SiteVisit] = {}
    errors: dict[int, str] = {}
    stored = {row[0]: row[-1] for row in visit_rows}
    for row in visit_rows:
        visits[row[0]] = SiteVisit(
            rank=row[0], requested_url=row[1], final_url=row[2],
            success=bool(row[3]), failure=row[4],
            top_level_document_count=row[5], skipped_lazy_iframes=row[6],
            iframe_load_failures=row[7], duration_seconds=row[8],
            retries=row[9], error_detail=row[10])
    marks = ",".join("?" * len(stored))
    for table, columns, build in _V3_CHILDREN:
        if table not in present:
            continue
        # rowid order within one rank is the visit's record order.
        for child in conn.execute(
                f"SELECT rank, {columns} FROM {table} "  # noqa: S608
                f"WHERE rank IN ({marks}) ORDER BY rowid", tuple(stored)):
            visit = visits.get(child[0])
            if visit is None:
                continue
            try:
                getattr(visit, table).append(build(child))
            except Exception as exc:
                errors.setdefault(child[0], f"{table}: "
                                  f"{type(exc).__name__}: {exc}")
    for rank in sorted(stored):
        report.total_rows += 1
        detail = errors.get(rank)
        reason = DECODE_ERROR
        if detail is None:
            if stored[rank] is None:
                report.legacy_rows += 1
            elif (actual := _v3_checksum(visits[rank])) != stored[rank]:
                reason = CHECKSUM_MISMATCH
                detail = f"stored {stored[rank]}, recomputed {actual}"
            else:
                report.verified_rows += 1
        if detail is None:
            conn.execute("INSERT INTO visits (rank, payload, checksum) "
                         "VALUES (?,?,?)", encode_rows([visits[rank]])[0])
            continue
        raw = {}
        for table in _V3_TABLES:
            source = "visits_v3" if table == "visits" else table
            if source in present:
                raw[table] = [list(r) for r in conn.execute(
                    f"SELECT * FROM {source} WHERE rank = ?",  # noqa: S608
                    (rank,))]
        bad = CorruptRow(rank, reason, _safe_text(detail))
        report.corrupt.append(bad)
        conn.execute(
            "INSERT INTO quarantine (rank, reason, detail, payload) "
            "VALUES (?,?,?,?)",
            (rank, reason, bad.detail, json.dumps(raw, default=repr)))
        report.quarantined += 1


def merge_stores(target: "str | Path", shards: "Iterable[str | Path]", *,
                 chunk_size: int = 256) -> int:
    """Merge the store files of independent crawls into ``target``, in the
    order given.

    Crawls of disjoint rank ranges merge deterministically regardless of
    order: every reader walks the merged store ``ORDER BY rank``.  The target is
    flushed (WAL checkpointed) after the merge.  Returns the total number
    of visits merged.
    """
    total = 0
    with CrawlStore(target) as store:
        for shard_path in shards:
            with CrawlStore(shard_path) as shard:
                total += store.merge_from(shard, chunk_size=chunk_size)
        store.flush()
    return total


class JsonlImportError(ValueError):
    """A JSONL import failed: a malformed line (in ``on_error="raise"``
    mode) or a count-trailer mismatch indicating truncation."""


#: Key of the final export line carrying the expected record count.
_TRAILER_KEY = "__repro_jsonl_trailer__"

#: Valid values for the importers' ``on_error`` argument.
JSONL_ON_ERROR = ("raise", "skip")


@dataclass
class JsonlStats:
    """Out-parameter for :func:`import_jsonl` / :func:`iter_jsonl`:
    what happened during one import pass."""

    imported: int = 0
    skipped: int = 0
    #: Count declared by the export trailer, or ``None`` for legacy
    #: exports written before the trailer existed.
    trailer_count: "int | None" = None


def export_jsonl(source: "Iterable[SiteVisit] | CrawlStore",
                 path: "str | Path") -> int:
    """Export visits as JSON lines; returns the number written.

    Each line is a visit's canonical encoding
    (:func:`~repro.crawler.integrity.canonical_visit_bytes`): the *full*
    record — frames, calls, scripts with sources, prompts, durations,
    retry and error metadata — so :func:`import_jsonl` round-trips
    exactly what the SQLite store holds.  Given a :class:`CrawlStore`,
    the stored payload bytes are written verbatim in rank order (each
    checked against its CRC, none decoded); given visits, they are
    encoded.  Both give the same bytes for the same visits.

    The file is written to a ``.tmp`` sibling and atomically renamed into
    place (the same pattern the measurement cache uses), so a crash
    mid-export never leaves a half-written file under the real name.  The
    last line is a count trailer the importer verifies, so silent
    truncation *after* a completed export is also detectable.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(source, CrawlStore):
        lines = (payload for _, payload in source.iter_payloads())
    else:
        lines = (canonical_visit_bytes(visit) for visit in source)
    count = 0
    with open(tmp, "wb") as handle:
        for line in lines:
            handle.write(line)
            handle.write(b"\n")
            count += 1
        handle.write(json.dumps({_TRAILER_KEY: {"count": count}},
                                separators=(",", ":")).encode("ascii")
                     + b"\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return count


def import_jsonl(path: "str | Path", *, on_error: str = "raise",
                 stats: "JsonlStats | None" = None) -> list[SiteVisit]:
    """Inverse of :func:`export_jsonl`: rebuild the visit records.

    Reads the compact lines :func:`export_jsonl` writes and the spaced
    ``json.dumps`` lines of exports made before schema 4 alike.

    Args:
        path: The JSONL file.
        on_error: ``"raise"`` (default) raises :class:`JsonlImportError`
            on the first malformed line or on a count-trailer mismatch;
            ``"skip"`` drops malformed lines with a counted warning and
            keeps going — the CLI import path uses this.
        stats: Optional :class:`JsonlStats` filled in with
            imported/skipped counts for caller-side reporting.
    """
    return list(iter_jsonl(path, on_error=on_error, stats=stats))


def iter_jsonl(path: "str | Path", *, on_error: str = "raise",
               stats: "JsonlStats | None" = None) -> Iterator[SiteVisit]:
    """Streaming variant of :func:`import_jsonl` for very large exports."""
    if on_error not in JSONL_ON_ERROR:
        raise ValueError(
            f"on_error must be one of {JSONL_ON_ERROR}, got {on_error!r}")
    if stats is None:
        stats = JsonlStats()
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if isinstance(data, dict) and _TRAILER_KEY in data:
                    stats.trailer_count = int(data[_TRAILER_KEY]["count"])
                    continue
                visit = _visit_from_dict(data)
            except Exception as exc:
                if on_error == "raise":
                    raise JsonlImportError(
                        f"{path}:{lineno}: malformed record "
                        f"({type(exc).__name__}: {_safe_text(str(exc))})"
                    ) from exc
                stats.skipped += 1
                continue
            stats.imported += 1
            yield visit
    if stats.skipped:
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("store.jsonl_skipped").inc(
                stats.skipped)
        logger.warning("skipped %d malformed JSONL line(s) in %s",
                       stats.skipped, path)
    if (stats.trailer_count is not None
            and stats.trailer_count != stats.imported + stats.skipped):
        message = (f"{path}: trailer declares {stats.trailer_count} "
                   f"records but {stats.imported + stats.skipped} were "
                   f"read — truncated export?")
        if on_error == "raise":
            raise JsonlImportError(message)
        logger.warning("%s", message)
