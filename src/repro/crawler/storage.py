"""Crawl persistence: SQLite database plus JSONL export/import.

The paper's wrapper stores all collected data in a database immediately
after each site completes (Appendix A.2, C14).  :class:`CrawlStore`
reproduces that: one SQLite file with ``visits``, ``frames``, ``calls``,
``scripts`` and ``prompts`` tables, savable incrementally from any thread
behind a serialized writer lock, with WAL enabled for concurrent readers, and
loadable back into :class:`~repro.crawler.pool.CrawlDataset` form so
analyses can run without re-crawling.

On-disk data is treated as untrusted (DESIGN.md §4g):

* every visit row carries a CRC-32 over its canonical record encoding
  (:mod:`repro.crawler.integrity`), written at save time;
* :meth:`CrawlStore.verify` recomputes all checksums and, with
  ``repair=True``, moves corrupt rows into a ``quarantine`` table;
* loading tolerates partially written or corrupt databases: orphan child
  rows *and* rows that fail to decode are skipped with counted warnings
  so checkpoint/resume (and analysis of a damaged store) never crashes.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.crawler.integrity import (
    CHECKSUM_MISMATCH,
    DECODE_ERROR,
    CorruptRow,
    VerifyReport,
    visit_checksum,
)
from repro.crawler.pool import CrawlDataset
from repro.obs import metrics as _metrics
from repro.crawler.records import (
    CallRecord,
    FrameRecord,
    PromptRecord,
    ScriptSourceRecord,
    SiteVisit,
)

logger = logging.getLogger(__name__)

#: Version of the on-disk layout below.  Bump on any change to tables,
#: columns or row encoding; the measurement cache
#: (:mod:`repro.experiments.runner`) keys its manifests on this value so
#: stale checkpoints are re-crawled instead of misread.
SCHEMA_VERSION = 3

#: Maximum parameters per ``IN (...)`` clause; SQLite's default variable
#: limit is 999, so stay comfortably below it.
_SQL_IN_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS visits (
    rank INTEGER PRIMARY KEY,
    requested_url TEXT NOT NULL,
    final_url TEXT NOT NULL,
    success INTEGER NOT NULL,
    failure TEXT,
    top_level_document_count INTEGER NOT NULL,
    skipped_lazy_iframes INTEGER NOT NULL,
    iframe_load_failures INTEGER NOT NULL,
    duration_seconds REAL NOT NULL,
    retries INTEGER NOT NULL DEFAULT 0,
    error_detail TEXT,
    checksum INTEGER
);
CREATE TABLE IF NOT EXISTS frames (
    rank INTEGER NOT NULL,
    frame_id INTEGER NOT NULL,
    url TEXT NOT NULL,
    origin TEXT NOT NULL,
    site TEXT NOT NULL,
    parent_id INTEGER,
    depth INTEGER NOT NULL,
    is_local INTEGER NOT NULL,
    headers TEXT NOT NULL,
    iframe_attributes TEXT,
    PRIMARY KEY (rank, frame_id)
);
CREATE TABLE IF NOT EXISTS calls (
    rank INTEGER NOT NULL,
    frame_id INTEGER NOT NULL,
    api TEXT NOT NULL,
    kind TEXT NOT NULL,
    permissions TEXT NOT NULL,
    args TEXT NOT NULL,
    script_url TEXT,
    allowed INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS scripts (
    rank INTEGER NOT NULL,
    frame_id INTEGER NOT NULL,
    url TEXT,
    source TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS prompts (
    rank INTEGER NOT NULL,
    frame_id INTEGER NOT NULL,
    permission TEXT NOT NULL,
    display_site TEXT NOT NULL,
    text TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    rank INTEGER NOT NULL,
    reason TEXT NOT NULL,
    detail TEXT NOT NULL,
    payload TEXT
);
CREATE INDEX IF NOT EXISTS idx_calls_rank ON calls(rank);
CREATE INDEX IF NOT EXISTS idx_frames_rank ON frames(rank);
CREATE INDEX IF NOT EXISTS idx_scripts_rank ON scripts(rank);
CREATE INDEX IF NOT EXISTS idx_prompts_rank ON prompts(rank);
"""

_VISIT_COLUMNS = ("rank, requested_url, final_url, success, failure, "
                  "top_level_document_count, skipped_lazy_iframes, "
                  "iframe_load_failures, duration_seconds, retries, "
                  "error_detail")


def _visit_from_row(row: tuple) -> SiteVisit:
    return SiteVisit(
        rank=row[0], requested_url=row[1], final_url=row[2],
        success=bool(row[3]), failure=row[4],
        top_level_document_count=row[5],
        skipped_lazy_iframes=row[6],
        iframe_load_failures=row[7], duration_seconds=row[8],
        retries=row[9], error_detail=row[10])


def _frame_from_row(row: tuple) -> FrameRecord:
    return FrameRecord(
        frame_id=row[1], url=row[2], origin=row[3], site=row[4],
        parent_id=row[5], depth=row[6], is_local=bool(row[7]),
        headers=json.loads(row[8]),
        iframe_attributes=(json.loads(row[9])
                           if row[9] is not None else None))


def _call_from_row(row: tuple) -> CallRecord:
    return CallRecord(
        frame_id=row[1], api=row[2], kind=row[3],
        permissions=tuple(json.loads(row[4])),
        args=tuple(json.loads(row[5])),
        script_url=row[6], allowed=bool(row[7]))


def _script_from_row(row: tuple) -> ScriptSourceRecord:
    return ScriptSourceRecord(frame_id=row[1], url=row[2], source=row[3])


def _prompt_from_row(row: tuple) -> PromptRecord:
    return PromptRecord(
        permission=row[2], requesting_frame_id=row[1],
        display_site=row[3], text=row[4])

#: Columns added after the original schema shipped; existing checkpoint
#: databases are migrated in place on open.
_VISITS_MIGRATIONS = (
    ("retries", "INTEGER NOT NULL DEFAULT 0"),
    ("error_detail", "TEXT"),
    # Schema 3: rows written before this migration keep a NULL checksum
    # and show up as "legacy" (not corrupt) in verify() reports.
    ("checksum", "INTEGER"),
)


def _safe_text(text: str, limit: int = 200) -> str:
    """Clip and ASCII-escape untrusted text destined for reports/SQLite."""
    text = text.encode("ascii", "backslashreplace").decode("ascii")
    if len(text) > limit:
        text = text[:limit] + f"... ({len(text)} chars)"
    return text


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
        self._conn.executescript(_SCHEMA)
        self._migrate()
        #: Orphan child rows skipped by the most recent
        #: :meth:`load_dataset` call, per table.
        self.last_orphan_counts: dict[str, int] = {}
        #: Rows that failed to decode during the most recent
        #: :meth:`load_dataset` / :meth:`load_visits` call, per table.
        self.last_corrupt_counts: dict[str, int] = {}

    def _migrate(self) -> None:
        columns = {row[1] for row in
                   self._conn.execute("PRAGMA table_info(visits)")}
        for name, spec in _VISITS_MIGRATIONS:
            if name not in columns:
                self._conn.execute(
                    f"ALTER TABLE visits ADD COLUMN {name} {spec}")
        self._conn.commit()

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
        checksum = visit_checksum(visit)
        with self._lock:
            conn = self._conn
            conn.execute(
                f"INSERT OR REPLACE INTO visits ({_VISIT_COLUMNS}, checksum) "
                "VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
                (visit.rank, visit.requested_url, visit.final_url,
                 int(visit.success), visit.failure,
                 visit.top_level_document_count, visit.skipped_lazy_iframes,
                 visit.iframe_load_failures, visit.duration_seconds,
                 visit.retries, visit.error_detail, checksum))
            # A freshly saved rank supersedes any quarantined wreckage.
            conn.execute("DELETE FROM quarantine WHERE rank = ?",
                         (visit.rank,))
            conn.execute("DELETE FROM frames WHERE rank = ?", (visit.rank,))
            conn.execute("DELETE FROM calls WHERE rank = ?", (visit.rank,))
            conn.execute("DELETE FROM scripts WHERE rank = ?", (visit.rank,))
            conn.execute("DELETE FROM prompts WHERE rank = ?", (visit.rank,))
            conn.executemany(
                "INSERT INTO frames VALUES (?,?,?,?,?,?,?,?,?,?)",
                [(visit.rank, f.frame_id, f.url, f.origin, f.site, f.parent_id,
                  f.depth, int(f.is_local), json.dumps(f.headers),
                  json.dumps(f.iframe_attributes)
                  if f.iframe_attributes is not None else None)
                 for f in visit.frames])
            conn.executemany(
                "INSERT INTO calls VALUES (?,?,?,?,?,?,?,?)",
                [(visit.rank, c.frame_id, c.api, c.kind,
                  json.dumps(list(c.permissions)), json.dumps(list(c.args)),
                  c.script_url, int(c.allowed))
                 for c in visit.calls])
            conn.executemany(
                "INSERT INTO scripts VALUES (?,?,?,?)",
                [(visit.rank, s.frame_id, s.url, s.source)
                 for s in visit.scripts])
            conn.executemany(
                "INSERT INTO prompts VALUES (?,?,?,?,?)",
                [(visit.rank, p.requesting_frame_id, p.permission,
                  p.display_site, p.text)
                 for p in visit.prompts])
            conn.commit()
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("store.visits_saved").inc()

    def save_visits(self, visits: Iterable[SiteVisit], *,
                    chunk_size: int = 256) -> int:
        """Persist many visits with one transaction per ``chunk_size`` chunk.

        The batched counterpart of :meth:`save_visit` — same row encoding,
        same checksum, same quarantine/supersede semantics — but child rows
        are written with one ``executemany`` per table per chunk and a
        single commit per chunk instead of a commit per visit.  This is the
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
                self._save_chunk(chunk)
                total += len(chunk)
                chunk = []
        if chunk:
            self._save_chunk(chunk)
            total += len(chunk)
        if _metrics.COUNTING and total:
            _metrics.REGISTRY.counter("store.visits_saved").inc(total)
        return total

    def _save_chunk(self, chunk: list[SiteVisit]) -> None:
        """Write one chunk of visits inside a single transaction.

        Child rows of each visit stay contiguous in the ``executemany``
        argument lists, so rowid order within one rank still equals
        insertion order — the invariant :meth:`_attach_children` relies on.

        Checksums and row encoding (the ``json.dumps``-heavy argument
        lists) happen *before* the writer lock is taken: they dominate the
        save's CPU cost and need no connection state, so under a threaded
        pool several workers encode concurrently while only the SQLite
        calls themselves serialize.

        When metrics are on, the writer thread's *CPU* time inside the
        lock is recorded in the ``store.write_seconds`` histogram
        (:func:`time.thread_time`, not wall clock): under a threaded pool
        the GIL regularly deschedules the writer mid-section, so wall
        clock would charge crawl compute — and, timed outside the lock,
        lock-wait once per blocked worker — to the store.  Thread CPU time
        is exactly the work the store itself costs.
        """
        checksums = [visit_checksum(visit) for visit in chunk]
        rank_params = [(visit.rank,) for visit in chunk]
        visit_rows = [
            (visit.rank, visit.requested_url, visit.final_url,
             int(visit.success), visit.failure,
             visit.top_level_document_count, visit.skipped_lazy_iframes,
             visit.iframe_load_failures, visit.duration_seconds,
             visit.retries, visit.error_detail, checksum)
            for visit, checksum in zip(chunk, checksums)]
        frame_rows = [
            (visit.rank, f.frame_id, f.url, f.origin, f.site,
             f.parent_id, f.depth, int(f.is_local),
             json.dumps(f.headers),
             json.dumps(f.iframe_attributes)
             if f.iframe_attributes is not None else None)
            for visit in chunk for f in visit.frames]
        call_rows = [
            (visit.rank, c.frame_id, c.api, c.kind,
             json.dumps(list(c.permissions)), json.dumps(list(c.args)),
             c.script_url, int(c.allowed))
            for visit in chunk for c in visit.calls]
        script_rows = [
            (visit.rank, s.frame_id, s.url, s.source)
            for visit in chunk for s in visit.scripts]
        prompt_rows = [
            (visit.rank, p.requesting_frame_id, p.permission,
             p.display_site, p.text)
            for visit in chunk for p in visit.prompts]
        with self._lock:
            start = time.thread_time() if _metrics.COUNTING else 0.0
            conn = self._conn
            for table in ("quarantine", "frames", "calls", "scripts",
                          "prompts"):
                conn.executemany(
                    f"DELETE FROM {table} WHERE rank = ?",  # noqa: S608
                    rank_params)
            conn.executemany(
                f"INSERT OR REPLACE INTO visits ({_VISIT_COLUMNS}, checksum) "
                "VALUES (?,?,?,?,?,?,?,?,?,?,?,?)", visit_rows)
            conn.executemany(
                "INSERT INTO frames VALUES (?,?,?,?,?,?,?,?,?,?)", frame_rows)
            conn.executemany(
                "INSERT INTO calls VALUES (?,?,?,?,?,?,?,?)", call_rows)
            conn.executemany(
                "INSERT INTO scripts VALUES (?,?,?,?)", script_rows)
            conn.executemany(
                "INSERT INTO prompts VALUES (?,?,?,?,?)", prompt_rows)
            conn.commit()
            if _metrics.COUNTING:
                _metrics.REGISTRY.histogram("store.write_seconds").observe(
                    time.thread_time() - start)

    def save_dataset(self, dataset: CrawlDataset) -> None:
        self.save_visits(dataset.visits)

    # -- reading ----------------------------------------------------------------

    def stored_ranks(self) -> set[int]:
        """Ranks already persisted — the checkpoint/resume frontier."""
        with self._lock:
            return {row[0] for row in
                    self._conn.execute("SELECT rank FROM visits")}

    def stored_checksums(self) -> "dict[int, int | None]":
        """Stored row checksums by rank, in rank order (``None`` marks a
        pre-checksum legacy row).  Cheap — no payload decoding — so the
        process backend can report chunk checksums without re-encoding
        every visit."""
        with self._lock:
            return {row[0]: row[1] for row in self._conn.execute(
                "SELECT rank, checksum FROM visits ORDER BY rank")}

    def load_dataset(self) -> CrawlDataset:
        """Load everything back into dataset form.

        Child rows whose rank has no ``visits`` row (a partially written or
        corrupt checkpoint) are skipped and counted in
        :attr:`last_orphan_counts` with a logged warning, so resuming from
        an interrupted save never crashes.  Rows that fail to *decode*
        (bit-flipped JSON, truncated values) are likewise skipped and
        counted in :attr:`last_corrupt_counts` — run
        ``repro verify-store --repair`` to quarantine them properly.
        """
        dataset = CrawlDataset()
        orphans: Counter = Counter()
        corrupt: Counter = Counter()
        with self._lock:
            conn = self._conn
            for row in conn.execute(
                    f"SELECT {_VISIT_COLUMNS} FROM visits ORDER BY rank"):
                try:
                    dataset.visits.append(_visit_from_row(row))
                except Exception:
                    corrupt["visits"] += 1
            by_rank = {visit.rank: visit for visit in dataset.visits}
            self._attach_children(by_rank, orphans, corrupt=corrupt)
        self.last_orphan_counts = dict(orphans)
        self.last_corrupt_counts = dict(corrupt)
        if _metrics.COUNTING:
            registry = _metrics.REGISTRY
            registry.counter("store.visits_loaded").inc(len(dataset.visits))
            registry.gauge("store.orphan_rows").set(sum(orphans.values()))
            if corrupt:
                registry.counter("store.corrupt_rows").inc(
                    sum(corrupt.values()))
        if orphans:
            detail = ", ".join(f"{table}={count}" for table, count
                               in sorted(orphans.items()))
            logger.warning(
                "skipped orphan rows without a visits entry (%s) in %s "
                "— partially written checkpoint?", detail, self.path)
        self._warn_corrupt(corrupt)
        return dataset

    def _warn_corrupt(self, corrupt: Counter) -> None:
        if not corrupt:
            return
        detail = ", ".join(f"{table}={count}" for table, count
                           in sorted(corrupt.items()))
        logger.warning(
            "skipped rows that failed to decode (%s) in %s — run "
            "`repro verify-store --repair` to quarantine them",
            detail, self.path)

    def _attach_children(self, by_rank: dict[int, SiteVisit],
                         orphans: Counter,
                         where: str = "", params: tuple = (),
                         corrupt: "Counter | None" = None,
                         corrupt_ranks: "dict[int, str] | None" = None
                         ) -> None:
        """Attach frame/call/script/prompt rows to their visits.

        ``ORDER BY rowid`` restores per-visit record order: ``save_visit``
        writes each visit's child rows contiguously, so rowid order within
        one rank equals insertion order even when chunks were saved
        out of rank order.

        With ``corrupt`` given, rows that fail to decode are skipped and
        counted per table instead of raising; ``corrupt_ranks`` (used by
        :meth:`verify`) additionally records which rank each decode
        failure belongs to.
        """
        conn = self._conn
        tables = (
            ("frames", "SELECT rank, frame_id, url, origin, site, parent_id, "
             "depth, is_local, headers, iframe_attributes FROM frames",
             _frame_from_row, lambda visit: visit.frames),
            ("calls", "SELECT rank, frame_id, api, kind, permissions, args, "
             "script_url, allowed FROM calls",
             _call_from_row, lambda visit: visit.calls),
            ("scripts", "SELECT rank, frame_id, url, source FROM scripts",
             _script_from_row, lambda visit: visit.scripts),
            ("prompts", "SELECT rank, frame_id, permission, display_site, "
             "text FROM prompts",
             _prompt_from_row, lambda visit: visit.prompts),
        )
        for table, select, from_row, records_of in tables:
            for row in conn.execute(f"{select}{where} ORDER BY rowid",
                                    params):
                visit = by_rank.get(row[0])
                if visit is None:
                    orphans[table] += 1
                    continue
                try:
                    record = from_row(row)
                except Exception as exc:
                    if corrupt is None:
                        raise
                    corrupt[table] += 1
                    if (corrupt_ranks is not None
                            and row[0] not in corrupt_ranks):
                        corrupt_ranks[row[0]] = _safe_text(
                            f"{table}: {type(exc).__name__}: {exc}")
                    continue
                records_of(visit).append(record)

    def iter_visits(self, *, batch_size: int = _SQL_IN_CHUNK,
                    min_rank: "int | None" = None,
                    max_rank: "int | None" = None
                    ) -> Iterator[SiteVisit]:
        """Stream stored visits in rank order with bounded memory.

        Yields exactly what :meth:`load_dataset` would return, but only
        ``batch_size`` visits (plus their child rows) are resident at a
        time: the visits table is walked with keyset pagination
        (``WHERE rank > last``) and children are attached per batch.  The
        writer lock is taken per batch, not across the whole iteration, so
        concurrent writers are never starved.  Orphan and corrupt rows are
        skipped and counted exactly as in :meth:`load_dataset`;
        :attr:`last_orphan_counts` / :attr:`last_corrupt_counts` are
        populated when the iterator is exhausted.

        ``min_rank`` / ``max_rank`` bound the walk to an inclusive rank
        span — the process-parallel summarize streams one contiguous span
        per worker through this.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        orphans: Counter = Counter()
        corrupt: Counter = Counter()
        last_rank: "int | None" = None
        loaded = 0
        while True:
            with self._lock:
                conn = self._conn
                clauses: list[str] = []
                params: list[int] = []
                if last_rank is not None:
                    clauses.append("rank > ?")
                    params.append(last_rank)
                elif min_rank is not None:
                    clauses.append("rank >= ?")
                    params.append(min_rank)
                if max_rank is not None:
                    clauses.append("rank <= ?")
                    params.append(max_rank)
                where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
                rows = conn.execute(
                    f"SELECT {_VISIT_COLUMNS} FROM visits{where} "
                    "ORDER BY rank LIMIT ?",
                    (*params, batch_size)).fetchall()
                if not rows:
                    break
                last_rank = rows[-1][0]
                by_rank: dict[int, SiteVisit] = {}
                for row in rows:
                    try:
                        by_rank[row[0]] = _visit_from_row(row)
                    except Exception:
                        corrupt["visits"] += 1
                ranks = sorted(by_rank)
                for start in range(0, len(ranks), _SQL_IN_CHUNK):
                    chunk = ranks[start:start + _SQL_IN_CHUNK]
                    marks = ",".join("?" * len(chunk))
                    self._attach_children(
                        by_rank, orphans, f" WHERE rank IN ({marks})",
                        tuple(chunk), corrupt=corrupt)
            for rank in ranks:
                yield by_rank[rank]
                loaded += 1
        self.last_orphan_counts = dict(orphans)
        self.last_corrupt_counts = dict(corrupt)
        if _metrics.COUNTING:
            registry = _metrics.REGISTRY
            registry.counter("store.visits_loaded").inc(loaded)
            if corrupt:
                registry.counter("store.corrupt_rows").inc(
                    sum(corrupt.values()))
        if orphans:
            detail = ", ".join(f"{table}={count}" for table, count
                               in sorted(orphans.items()))
            logger.warning(
                "skipped orphan rows without a visits entry (%s) in %s "
                "— partially written checkpoint?", detail, self.path)
        self._warn_corrupt(corrupt)

    #: Explicit column lists for the ATTACH merge: ``SELECT *`` would
    #: depend on physical column order, which differs between a freshly
    #: created table and one that grew columns via ALTER TABLE migrations.
    _MERGE_CHILD_COLUMNS = {
        "frames": "rank, frame_id, url, origin, site, parent_id, depth, "
                  "is_local, headers, iframe_attributes",
        "calls": "rank, frame_id, api, kind, permissions, args, "
                 "script_url, allowed",
        "scripts": "rank, frame_id, url, source",
        "prompts": "rank, frame_id, permission, display_site, text",
    }

    def merge_from(self, other: "CrawlStore", *,
                   chunk_size: int = 256) -> int:
        """Merge every visit of ``other`` into this store.

        Fast path: ``other``'s rows are copied verbatim inside SQLite via
        ``ATTACH`` + ``INSERT ... SELECT`` — no Python-side decode or
        re-encode, which is what lets the process backend's per-chunk
        merge stay a small slice of the store stage.  Sidecar rows were
        written by this same encoder, so a verbatim copy is byte-for-byte what re-saving
        the visits would produce (checksums included); child rows are
        copied ``ORDER BY rowid`` so per-rank contiguity (the
        :meth:`_attach_children` invariant) survives, and child rows whose
        rank has no ``visits`` row are left behind, matching the streaming
        path's orphan cleansing.  Ranks present in both stores are
        superseded by ``other``'s copy, mirroring :meth:`save_visit`'s
        INSERT OR REPLACE semantics.  If ATTACH fails (e.g. the target's
        SQLite build restricts it), the merge falls back to streaming
        ``other`` through :meth:`save_visits` in ``chunk_size`` batches.
        Returns the number of visits merged.
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
                for table in ("quarantine", "frames", "calls", "scripts",
                              "prompts"):
                    conn.execute(
                        f"DELETE FROM {table} WHERE rank IN "  # noqa: S608
                        "(SELECT rank FROM merge_src.visits)")
                conn.execute(
                    f"INSERT OR REPLACE INTO visits ({_VISIT_COLUMNS}, "
                    f"checksum) SELECT {_VISIT_COLUMNS}, checksum "
                    "FROM merge_src.visits ORDER BY rank")
                for table, columns in self._MERGE_CHILD_COLUMNS.items():
                    conn.execute(
                        f"INSERT INTO {table} ({columns}) "  # noqa: S608
                        f"SELECT {columns} FROM merge_src.{table} "
                        "WHERE rank IN (SELECT rank FROM merge_src.visits) "
                        "ORDER BY rowid")
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
            finally:
                conn.execute("DETACH DATABASE merge_src")
            if _metrics.COUNTING:
                # Separate histogram from save_visits' store.write_seconds:
                # with shard-local worker writes the row encoding happens in
                # worker processes (overlapping crawl compute), so merge
                # cost is the only store work on the parent's critical path
                # and the scale harness accounts for the two separately.
                _metrics.REGISTRY.histogram("store.merge_seconds").observe(
                    time.thread_time() - start)
        if _metrics.COUNTING and count:
            _metrics.REGISTRY.counter("store.visits_saved").inc(count)
        return count

    def load_visits(self, ranks: "Iterable[int]") -> list[SiteVisit]:
        """Load only the given ranks — the targeted resume query.

        Unlike :meth:`load_dataset` this never materialises the whole
        checkpoint; ranks not present in the store are silently skipped.
        Returns visits sorted by rank.
        """
        wanted = sorted(set(ranks))
        by_rank: dict[int, SiteVisit] = {}
        orphans: Counter = Counter()
        corrupt: Counter = Counter()
        with self._lock:
            conn = self._conn
            for start in range(0, len(wanted), _SQL_IN_CHUNK):
                chunk = wanted[start:start + _SQL_IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                where = f" WHERE rank IN ({marks})"
                for row in conn.execute(
                        f"SELECT {_VISIT_COLUMNS} FROM visits{where}",
                        chunk):
                    try:
                        by_rank[row[0]] = _visit_from_row(row)
                    except Exception:
                        corrupt["visits"] += 1
                self._attach_children(by_rank, orphans, where, tuple(chunk),
                                      corrupt=corrupt)
        self.last_corrupt_counts = dict(corrupt)
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("store.visits_loaded").inc(len(by_rank))
            if corrupt:
                _metrics.REGISTRY.counter("store.corrupt_rows").inc(
                    sum(corrupt.values()))
        self._warn_corrupt(corrupt)
        return [by_rank[rank] for rank in wanted if rank in by_rank]

    # -- SQL-side aggregates ------------------------------------------------------
    #
    # For very large stored crawls it is wasteful to load every record back
    # into Python just to compute adoption counts; these run the headline
    # aggregations inside SQLite and must agree with the in-memory analyses
    # (tested in tests/test_crawler.py).

    def count_successful(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM visits WHERE success = 1").fetchone()
        return int(row[0])

    def count_header_sites(self, header: str = "permissions-policy") -> int:
        """Websites whose top-level document sends ``header``.

        Matches on the JSON *keys* of the stored header map (names are
        persisted lowercased).  A plain ``LIKE '%"name"%'`` would
        false-positive whenever a hostile header *value* contains the
        quoted header name — the PR 5 adversarial corpus produces exactly
        that — so the substring match survives only as a prefilter in the
        fallback path for SQLite builds without the JSON1 extension,
        where each candidate row is re-checked against its parsed keys
        (``json.dumps`` always emits the quoted key, so the prefilter is
        provably a superset)."""
        name = header.lower()
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM frames "
                    "WHERE parent_id IS NULL AND EXISTS ("
                    "SELECT 1 FROM json_each(frames.headers) "
                    "WHERE json_each.key = ?)", (name,)
                ).fetchone()
                return int(row[0])
            except sqlite3.OperationalError:
                rows = self._conn.execute(
                    "SELECT headers FROM frames "
                    "WHERE parent_id IS NULL AND headers LIKE ?",
                    (f'%"{name}"%',)
                ).fetchall()
        count = 0
        for (raw,) in rows:
            try:
                parsed = json.loads(raw)
            except (TypeError, ValueError):
                continue
            if isinstance(parsed, dict) and name in parsed:
                count += 1
        return count

    def count_delegating_sites(self) -> int:
        """Websites with at least one direct iframe carrying an allow
        attribute (a superset of true delegation: 'none' opt-outs are
        resolved by the Python analysis, not in SQL)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(DISTINCT rank) FROM frames "
                'WHERE depth = 1 AND iframe_attributes LIKE \'%"allow"%\''
            ).fetchone()
        return int(row[0])

    def top_embedded_sites(self, limit: int = 10) -> list[tuple[str, int]]:
        """Table 3 in SQL: external embedded sites by distinct websites."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT f.site, COUNT(DISTINCT f.rank) AS websites "
                "FROM frames f "
                "JOIN frames top ON top.rank = f.rank AND top.parent_id IS NULL "
                "WHERE f.depth = 1 AND f.is_local = 0 AND f.site != '' "
                "AND f.site != top.site "
                "GROUP BY f.site ORDER BY websites DESC LIMIT ?", (limit,)
            ).fetchall()
        return [(site, int(count)) for site, count in rows]

    def failure_counts(self) -> dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT failure, COUNT(*) FROM visits "
                "WHERE success = 0 GROUP BY failure").fetchall()
        return {failure: int(count) for failure, count in rows}

    # -- integrity ---------------------------------------------------------------

    def verify(self, *, repair: bool = False) -> VerifyReport:
        """Recompute every visit checksum against the stored rows.

        Returns a :class:`~repro.crawler.integrity.VerifyReport`.  Rows
        written before the checksum column existed count as ``legacy``
        (unverifiable, not corrupt).  With ``repair=True`` corrupt rows
        are moved into the ``quarantine`` table — their raw values are
        preserved there as a JSON payload for forensics — so subsequent
        :meth:`load_dataset` calls see a clean store.
        """
        report = VerifyReport(path=str(self.path))
        corrupt_ranks: dict[int, str] = {}
        with self._lock:
            conn = self._conn
            row = conn.execute("SELECT COUNT(*) FROM quarantine").fetchone()
            report.previously_quarantined = int(row[0])
            by_rank: dict[int, SiteVisit] = {}
            checksums: dict[int, "int | None"] = {}
            for row in conn.execute(
                    f"SELECT {_VISIT_COLUMNS}, checksum FROM visits "
                    "ORDER BY rank"):
                report.total_rows += 1
                try:
                    by_rank[row[0]] = _visit_from_row(row)
                    checksums[row[0]] = row[-1]
                except Exception as exc:
                    corrupt_ranks[row[0]] = _safe_text(
                        f"visits: {type(exc).__name__}: {exc}")
            self._attach_children(by_rank, Counter(), corrupt=Counter(),
                                  corrupt_ranks=corrupt_ranks)
            for rank in sorted(by_rank):
                detail = corrupt_ranks.get(rank)
                if detail is not None:
                    continue  # reported below, once, as a decode error
                stored = checksums[rank]
                if stored is None:
                    report.legacy_rows += 1
                    continue
                actual = visit_checksum(by_rank[rank])
                if actual == stored:
                    report.verified_rows += 1
                else:
                    report.corrupt.append(CorruptRow(
                        rank, CHECKSUM_MISMATCH,
                        f"stored {stored}, recomputed {actual}"))
            for rank, detail in corrupt_ranks.items():
                report.corrupt.append(CorruptRow(rank, DECODE_ERROR, detail))
            report.corrupt.sort(key=lambda bad: bad.rank)
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
        """Move one corrupt rank out of the live tables (caller commits)."""
        conn = self._conn
        payload: dict[str, list] = {}
        for table in ("visits", "frames", "calls", "scripts", "prompts"):
            try:
                rows = conn.execute(
                    f"SELECT * FROM {table} WHERE rank = ?",  # noqa: S608
                    (bad.rank,)).fetchall()
                payload[table] = [list(row) for row in rows]
            except Exception:  # pragma: no cover - row too broken to read
                payload[table] = []
        try:
            payload_json = json.dumps(payload, ensure_ascii=True,
                                      default=repr)
        except Exception:  # pragma: no cover - unserializable wreckage
            payload_json = None
        conn.execute(
            "INSERT INTO quarantine (rank, reason, detail, payload) "
            "VALUES (?,?,?,?)",
            (bad.rank, bad.reason, _safe_text(bad.detail), payload_json))
        for table in ("visits", "frames", "calls", "scripts", "prompts"):
            conn.execute(f"DELETE FROM {table} WHERE rank = ?",  # noqa: S608
                         (bad.rank,))

    def quarantine_rank(self, rank: int, *, reason: str,
                        detail: str = "") -> None:
        """Quarantine a rank directly (no corrupt row required).

        The crawl supervisor's poison-visit path: a rank whose visit
        repeatedly kills or hangs worker processes is recorded here —
        same table and semantics as :meth:`verify`'s repair quarantine —
        and any live rows it may have are dropped, so the dataset equals
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
            for table in ("visits", "frames", "calls", "scripts",
                          "prompts"):
                conn.execute(
                    f"DELETE FROM {table} WHERE rank = ?",  # noqa: S608
                    (rank,))
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


def export_jsonl(visits: Iterable[SiteVisit], path: "str | Path") -> int:
    """Export visits as JSON lines; returns the number written.

    The export carries the *full* record — frames, calls, scripts with
    sources, prompts, durations, retry and error metadata — so
    :func:`import_jsonl` round-trips exactly what the SQLite store holds.

    The file is written to a ``.tmp`` sibling and atomically renamed into
    place (the same pattern the measurement cache uses), so a crash
    mid-export never leaves a half-written file under the real name.  The
    last line is a count trailer the importer verifies, so silent
    truncation *after* a completed export is also detectable.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    count = 0
    with open(tmp, "w", encoding="utf-8") as handle:
        for visit in visits:
            handle.write(json.dumps(_visit_to_dict(visit)) + "\n")
            count += 1
        handle.write(json.dumps({_TRAILER_KEY: {"count": count}}) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return count


def import_jsonl(path: "str | Path", *, on_error: str = "raise",
                 stats: "JsonlStats | None" = None) -> list[SiteVisit]:
    """Inverse of :func:`export_jsonl`: rebuild the visit records.

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


def _visit_from_dict(data: dict) -> SiteVisit:
    visit = SiteVisit(
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
    )
    for f in data.get("frames", ()):
        visit.frames.append(FrameRecord(
            frame_id=f["frame_id"], url=f["url"], origin=f["origin"],
            site=f["site"], parent_id=f["parent_id"], depth=f["depth"],
            is_local=f["is_local"], headers=f["headers"],
            iframe_attributes=f["iframe_attributes"]))
    for c in data.get("calls", ()):
        visit.calls.append(CallRecord(
            frame_id=c["frame_id"], api=c["api"], kind=c["kind"],
            permissions=tuple(c["permissions"]), args=tuple(c["args"]),
            script_url=c["script_url"], allowed=c["allowed"]))
    for s in data.get("scripts", ()):
        visit.scripts.append(ScriptSourceRecord(
            frame_id=s["frame_id"], url=s["url"], source=s["source"]))
    for p in data.get("prompts", ()):
        visit.prompts.append(PromptRecord(
            permission=p["permission"],
            requesting_frame_id=p["requesting_frame_id"],
            display_site=p["display_site"], text=p["text"]))
    return visit
