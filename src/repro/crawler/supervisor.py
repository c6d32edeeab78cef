"""Self-healing supervision for the process crawl backend (DESIGN.md §4k).

The process backend's failure domain is the whole executor: one worker
dying of an OOM kill or segfault breaks the :class:`ProcessPoolExecutor`
and, before this module, the run — every in-flight chunk was lost.  The
supervisor turns those events into bounded, deterministic recovery:

* **Crash recovery.**  Each ``BrokenProcessPool`` costs one *rebuild*
  from a per-run budget (``max_pool_rebuilds``); the warm pool is torn
  down and rebuilt, crashed workers' half-written ``.wchunk-*`` sidecars
  are swept, and lost chunks are resubmitted.  Sites are pure functions
  of ``(seed, rank)``, so a replayed chunk produces byte-identical rows —
  recovery cannot change the dataset.

* **Poison bisection.**  A bare ``BrokenProcessPool`` cannot say *which*
  in-flight chunk killed the worker, so every lost chunk takes a
  *strike*.  A chunk reaching :attr:`SupervisorConfig.suspect_strikes`
  is put on **probation**: the backend drains the pipeline and re-runs
  it alone, making attribution exact — a crash now proves guilt, a clean
  pass exonerates the chunk (strikes cleared; innocent bystanders that
  merely shared a doomed pool never get quarantined).  A guilty
  multi-rank chunk is bisected and its halves probe in isolation, so
  each crash halves the suspect span; a guilty single-rank chunk is
  *quarantined*: recorded in the store's ``quarantine`` table (the PR-5
  corrupt-row mechanism) under the ``poison-visit`` taxonomy, and the
  rest of the run proceeds without it.  Isolating one poison rank out of
  a chunk of *n* costs about ``suspect_strikes + log2(n)`` rebuilds.

* **Hang watchdog.**  Chunk deadlines derive from the adaptive
  scheduler's observed rate (``watchdog_factor ×`` the expected chunk
  duration, floored while no rate is known).  An over-deadline chunk has
  its workers killed — deliberately breaking the pool so the hang joins
  the one crash-recovery path — and is the only chunk that takes a
  strike for it; innocent in-flight chunks requeue strike-free.

* **Merge retry.**  A ``sqlite3.OperationalError`` while folding a chunk
  sidecar into the main store is retried (the sidecar is still on disk);
  a chunk whose merge keeps failing is recrawled through the same strike
  machinery, without spending the rebuild budget (the pool is fine).

The class here is deliberately pure bookkeeping — no executor handles, no
filesystem, injectable clock — so the strike/bisection/budget logic is
unit-testable without spawning a single process.  The backend
(:func:`repro.crawler.backends.crawl_in_processes`) owns the actual pool
teardown, sidecar sweep and resubmission.

Every process run is supervised.  The default budget is 0 rebuilds, so
an unconfigured run fails on the first crash or watchdog hang — but with
swept sidecars, a torn-down warm pool and a retried merge.  When the
budget runs out, :class:`PoolCrashError` surfaces with the full event
history, so nine-day runs fail with a story instead of a bare
``BrokenProcessPool``; it subclasses ``BrokenProcessPool`` so callers
catch one exception type.
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.obs import metrics as _metrics

#: Quarantine-table reason / telemetry taxonomy for a rank whose visit
#: repeatedly kills or hangs worker processes.  Unlike the Section 4
#: visit-failure taxonomies this never appears on a visit row — the visit
#: never completes — it marks the rank's absence from the dataset.
POISON_VISIT = "poison-visit"


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for the process-backend crawl supervisor.

    The defaults suit paper-scale crawls; tests and drills shrink the
    watchdog numbers.  ``max_pool_rebuilds`` should leave headroom for
    bisection: isolating a poison rank from a chunk of *n* costs about
    ``suspect_strikes + log2(n)`` rebuilds on top of one per transient
    crash.
    """

    #: Pool rebuilds allowed per run before :class:`PoolCrashError`.
    max_pool_rebuilds: int = 8
    #: Chunk losses before a multi-rank chunk is bisected and before a
    #: single-rank chunk is quarantined as poison.
    suspect_strikes: int = 2
    #: Chunk deadline = ``watchdog_factor`` × the scheduler-expected
    #: chunk duration (observed rate), floored by
    #: ``watchdog_floor_seconds`` — generous so adaptive-rate noise and
    #: cold workers never trip it.
    watchdog_factor: float = 10.0
    #: Deadline floor, and the whole deadline while no rate is measured.
    watchdog_floor_seconds: float = 30.0
    #: How often the dispatch loop wakes to check deadlines.  ``0``
    #: disables the watchdog (crash recovery still works).
    watchdog_poll_seconds: float = 0.25
    #: Attempts per chunk-sidecar merge (>= 1; 1 disables the retry).
    merge_attempts: int = 2

    def __post_init__(self) -> None:
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.suspect_strikes < 1:
            raise ValueError("suspect_strikes must be >= 1")
        if self.watchdog_factor <= 0:
            raise ValueError("watchdog_factor must be > 0")
        if self.watchdog_floor_seconds <= 0:
            raise ValueError("watchdog_floor_seconds must be > 0")
        if self.watchdog_poll_seconds < 0:
            raise ValueError("watchdog_poll_seconds must be >= 0")
        if self.merge_attempts < 1:
            raise ValueError("merge_attempts must be >= 1")

    @property
    def watchdog_enabled(self) -> bool:
        return self.watchdog_poll_seconds > 0


class PoolCrashError(BrokenProcessPool):
    """The crash budget ran out; carries the supervisor's telemetry.

    Raised by :meth:`ChunkSupervisor.on_pool_crash` when one more rebuild
    would exceed ``max_pool_rebuilds``.  The run's checkpoint store holds
    every chunk merged before the final crash, so ``resume=True``
    completes it (injected once-only faults do not refire).
    """

    def __init__(self, *, rebuilds: int, max_pool_rebuilds: int,
                 lost_ranks: Sequence[int],
                 quarantined_ranks: Sequence[int],
                 events: Sequence[dict]) -> None:
        self.rebuilds = rebuilds
        self.max_pool_rebuilds = max_pool_rebuilds
        self.lost_ranks = tuple(lost_ranks)
        self.quarantined_ranks = tuple(quarantined_ranks)
        self.events = tuple(events)
        lost = ", ".join(str(rank) for rank in self.lost_ranks[:8])
        if len(self.lost_ranks) > 8:
            lost += ", ..."
        super().__init__(
            f"crawl worker pool crashed {rebuilds} time(s), exceeding the "
            f"rebuild budget of {max_pool_rebuilds}; {len(self.lost_ranks)} "
            f"rank(s) in flight ({lost}) — the checkpoint store holds all "
            f"merged chunks, rerun with resume=True")


@dataclass(frozen=True)
class RecoveryPlan:
    """What the backend must do after a pool crash (or merge failure)."""

    #: Rank tuples to resubmit, in order (bisected halves stay contiguous).
    requeue: tuple[tuple[int, ...], ...]
    #: ``(rank, detail)`` pairs to quarantine as ``poison-visit``.
    quarantine: tuple[tuple[int, str], ...]
    #: Rank tuples to re-run *in isolation* (pipeline drained, one at a
    #: time) so the next crash or clean pass attributes guilt exactly.
    probation: tuple[tuple[int, ...], ...] = ()


class ChunkSupervisor:
    """Pure strike/bisection/budget bookkeeping for one run.

    The backend reports chunk lifecycle events (`note_submitted`,
    `note_finished`) and failures (`on_pool_crash`, `on_merge_failure`);
    the supervisor answers with a :class:`RecoveryPlan` and keeps the
    counters that become ``pool.last_supervisor_stats`` and the
    ``supervisor.*`` metrics.

    Strikes are keyed by the chunk's rank tuple, not its submission
    index, so a resubmitted chunk keeps its record across attempts.
    Everything is deterministic given the event sequence — the clock only
    feeds watchdog deadlines, never the recovery decisions.
    """

    def __init__(self, config: SupervisorConfig, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        self._clock = clock
        self._strikes: dict[tuple[int, ...], int] = {}
        self._submitted_at: dict[int, float] = {}
        self.rebuilds = 0
        self.requeued_chunks = 0
        self.requeued_ranks = 0
        self.bisections = 0
        self.exonerations = 0
        self.watchdog_hangs = 0
        self.merge_retries = 0
        self.quarantined: list[tuple[int, str]] = []
        self.events: list[dict] = []

    # -- chunk lifecycle ----------------------------------------------------

    def note_submitted(self, chunk_index: int) -> None:
        self._submitted_at[chunk_index] = self._clock()

    def note_finished(self, chunk_index: int) -> None:
        self._submitted_at.pop(chunk_index, None)

    def note_merge_retry(self) -> None:
        self.merge_retries += 1
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("supervisor.merge_retries").inc()

    # -- watchdog -----------------------------------------------------------

    def deadline_seconds(self, size: int,
                         observed_rate: "float | None") -> float:
        """The hang deadline for a chunk of ``size`` ranks."""
        floor = self.config.watchdog_floor_seconds
        if not observed_rate or observed_rate <= 0:
            return floor
        return max(floor, self.config.watchdog_factor * size / observed_rate)

    def overdue(self, chunks: "dict[int, int]",
                observed_rate: "float | None") -> list[int]:
        """Indices of in-flight chunks past their deadline.

        ``chunks`` maps chunk index → rank count for everything currently
        submitted; indices the supervisor never saw submit are ignored.
        """
        if not self.config.watchdog_enabled:
            return []
        now = self._clock()
        late = []
        for index, size in chunks.items():
            started = self._submitted_at.get(index)
            if started is None:
                continue
            if now - started > self.deadline_seconds(size, observed_rate):
                late.append(index)
        return sorted(late)

    # -- failure handling ---------------------------------------------------

    def on_pool_crash(self, lost: "Sequence[tuple[int, ...]]", *,
                      cause: str,
                      suspects: "Sequence[tuple[int, ...]] | None" = None,
                      certain: bool = False) -> RecoveryPlan:
        """One pool crash: spend a rebuild, plan requeues and quarantines.

        ``lost`` is every chunk (as its rank tuple) that was in flight;
        ``suspects`` limits which of them take a strike (the watchdog
        knows exactly which chunk hung — a bare ``BrokenProcessPool``
        cannot attribute, so all lost chunks are suspect).  With
        ``certain=True`` the crash happened while a probation chunk ran
        alone, which *proves* its guilt: a multi-rank chunk bisects into
        probation halves, a single rank is quarantined on the spot.
        Raises :class:`PoolCrashError` when the budget is spent.
        """
        self.rebuilds += 1
        if cause == "hang":
            self.watchdog_hangs += 1
        if _metrics.COUNTING:
            _metrics.REGISTRY.counter("supervisor.pool_rebuilds").inc()
            if cause == "hang":
                _metrics.REGISTRY.counter("supervisor.watchdog_hangs").inc()
        if self.rebuilds > self.config.max_pool_rebuilds:
            raise PoolCrashError(
                rebuilds=self.rebuilds,
                max_pool_rebuilds=self.config.max_pool_rebuilds,
                lost_ranks=sorted(rank for ranks in lost for rank in ranks),
                quarantined_ranks=[rank for rank, _ in self.quarantined],
                events=self.events + [{
                    "event": "budget-exhausted", "cause": cause,
                    "chunks_lost": len(lost)}])
        suspect_set = (set(lost) if suspects is None
                       else {tuple(ranks) for ranks in suspects})
        plan = self._plan(lost, cause=cause, suspect_set=suspect_set,
                          certain=certain)
        self.events.append({
            "event": "pool-rebuild", "cause": cause, "rebuild": self.rebuilds,
            "chunks_lost": len(lost),
            "ranks_requeued": sum(len(ranks) for ranks in plan.requeue),
            "probation": [list(ranks) for ranks in plan.probation],
            "quarantined": [rank for rank, _ in plan.quarantine]})
        return plan

    def on_merge_failure(self, ranks: "tuple[int, ...]", *,
                         detail: str) -> RecoveryPlan:
        """A chunk sidecar merge failed past its retries: recrawl the
        chunk through the strike machinery.  No rebuild is spent — the
        worker pool is healthy."""
        plan = self._plan([ranks], cause="merge-failure",
                          suspect_set={tuple(ranks)})
        self.events.append({
            "event": "merge-failure", "detail": detail,
            "ranks_requeued": sum(len(r) for r in plan.requeue),
            "probation": [list(r) for r in plan.probation],
            "quarantined": [rank for rank, _ in plan.quarantine]})
        return plan

    def exonerate(self, ranks: "tuple[int, ...]") -> None:
        """A probation chunk completed cleanly in isolation: it was an
        innocent bystander of some other chunk's crash — clear its
        record."""
        ranks = tuple(ranks)
        if self._strikes.pop(ranks, None) is not None:
            self.exonerations += 1
            self.events.append({"event": "exonerated",
                                "ranks": list(ranks)})
            if _metrics.COUNTING:
                _metrics.REGISTRY.counter("supervisor.exonerated").inc()

    def _plan(self, lost: "Sequence[tuple[int, ...]]", *, cause: str,
              suspect_set: "set[tuple[int, ...]]",
              certain: bool = False) -> RecoveryPlan:
        requeue: list[tuple[int, ...]] = []
        quarantine: list[tuple[int, str]] = []
        probation: list[tuple[int, ...]] = []
        for ranks in lost:
            ranks = tuple(ranks)
            if ranks in suspect_set:
                strikes = self._strikes.pop(ranks, 0) + 1
            else:
                strikes = self._strikes.get(ranks, 0)
            guilty = certain and ranks in suspect_set
            if guilty and len(ranks) > 1:
                # Proven guilty in isolation: bisect, and probe each half
                # in isolation too, halving the suspect span per crash.
                mid = len(ranks) // 2
                self.bisections += 1
                if _metrics.COUNTING:
                    _metrics.REGISTRY.counter("supervisor.bisections").inc()
                for half in (ranks[:mid], ranks[mid:]):
                    self._strikes[half] = strikes
                    probation.append(half)
            elif guilty:
                detail = (f"worker {cause} in isolation "
                          f"({strikes} strike(s)) at rank {ranks[0]}")
                quarantine.append((ranks[0], detail))
                self.quarantined.append((ranks[0], detail))
                if _metrics.COUNTING:
                    _metrics.REGISTRY.counter(
                        "supervisor.poison_quarantined").inc()
            elif (ranks in suspect_set
                    and strikes >= self.config.suspect_strikes):
                # Suspicion threshold reached, but guilt unproven (other
                # chunks shared the doomed pool): probe in isolation
                # rather than punish a possible bystander.
                self._strikes[ranks] = strikes
                probation.append(ranks)
            else:
                if ranks in suspect_set:
                    self._strikes[ranks] = strikes
                requeue.append(ranks)
        self.requeued_chunks += len(requeue) + len(probation)
        self.requeued_ranks += (sum(len(ranks) for ranks in requeue)
                                + sum(len(ranks) for ranks in probation))
        if _metrics.COUNTING and (requeue or probation):
            _metrics.REGISTRY.counter("supervisor.requeued_ranks").inc(
                sum(len(ranks) for ranks in requeue)
                + sum(len(ranks) for ranks in probation))
        return RecoveryPlan(requeue=tuple(requeue),
                            quarantine=tuple(quarantine),
                            probation=tuple(probation))

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict:
        """The run's supervision summary (``pool.last_supervisor_stats``)."""
        return {
            "rebuilds": self.rebuilds,
            "max_pool_rebuilds": self.config.max_pool_rebuilds,
            "requeued_chunks": self.requeued_chunks,
            "requeued_ranks": self.requeued_ranks,
            "bisections": self.bisections,
            "exonerations": self.exonerations,
            "watchdog_hangs": self.watchdog_hangs,
            "merge_retries": self.merge_retries,
            "quarantined_ranks": sorted(
                rank for rank, _ in self.quarantined),
            "events": list(self.events),
        }
