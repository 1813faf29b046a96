"""MaintenanceScheduler: where and when cache-update rounds execute.

The paper runs window maintenance off the query path; until this layer the
reproduction ran every round *synchronously inside the commit stage*, so the
query that filled a window stalled behind decide+apply under the GC lock.
The engine's strict decide/apply split (pure
:class:`~repro.core.policies.plan.MaintenancePlan` → row-level deltas) makes
the decoupling mechanical, and this module provides it as a pluggable
policy — ``config.maintenance_mode`` selects one of three schedulers:

``sync`` (default)
    :class:`SyncMaintenanceScheduler` — the round runs inline on the
    committing thread, under the GC lock it already holds.  Deterministic,
    and exactly the pre-scheduler behaviour.

``background``
    :class:`BackgroundMaintenanceScheduler` — the drained window is handed
    to a dedicated worker thread.  ``decide()`` runs entirely off the query
    path; ``apply()`` runs phased (store delta under the store lock, GCindex
    delta as one double-buffered batch that lookups never block on, and only
    the small statistics-row delta briefly under the GC lock).  The
    committing query returns immediately: its ``maintenance_time_s`` is 0
    and the round's :class:`~repro.core.policies.plan.MaintenanceReport`
    appears asynchronously.  Plans may legitimately differ from ``sync``
    when hits land between the window fill and the worker's decide.

``barrier``
    :class:`BarrierMaintenanceScheduler` — the deterministic test mode:
    rounds still execute on the worker thread (so *zero* decide-phase work
    runs on the query thread — the scheduler counters prove it), but the
    submitting query blocks until the round completes.  No hit can
    interleave with a round, so the plan stream is byte-identical to
    ``sync`` — the equivalence the scheduler benchmark pins on all
    scenarios.

Every applied plan is appended to the scheduler's
:class:`~repro.core.policies.journal.PlanJournal` (the per-shard audit log /
replication feed), and schedulers expose :meth:`~MaintenanceScheduler.drain`
so caches can guarantee **drain-before-snapshot** and **drain-on-close**:
pending plans are applied in full, never half-persisted.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from ...analysis.runtime import make_lock
from ...exceptions import CacheError
from ..stores import WindowEntry
from .engine import MaintenanceEngine
from .journal import PlanJournal
from .plan import MaintenanceReport

__all__ = [
    "SCHEDULER_MODES",
    "SchedulerCounters",
    "MaintenanceScheduler",
    "SyncMaintenanceScheduler",
    "BackgroundMaintenanceScheduler",
    "BarrierMaintenanceScheduler",
    "create_scheduler",
]

#: Valid ``config.maintenance_mode`` values, in documentation order.
SCHEDULER_MODES: Tuple[str, ...] = ("sync", "background", "barrier")


@dataclass
class SchedulerCounters:
    """Deterministic accounting of where maintenance rounds executed.

    ``inline_rounds`` counts rounds run on the thread that submitted them
    (the query/commit thread); ``worker_rounds`` counts rounds run on the
    scheduler's worker thread.  ``decide_thread_idents`` records the thread
    idents that executed decide+apply — the background benchmark asserts the
    query thread's ident never appears there, i.e. zero decide-phase ops on
    the query path.

    ``tasks`` / ``inline_tasks`` / ``worker_tasks`` /
    ``task_thread_idents`` account for *storage-maintenance tasks* submitted
    through :meth:`MaintenanceScheduler.submit_task` (arena compaction) the
    same way — the compaction tests pin "no compaction work on the query
    thread" on them in background mode.
    """

    rounds: int = 0
    inline_rounds: int = 0
    worker_rounds: int = 0
    decide_thread_idents: Set[int] = field(default_factory=set)
    tasks: int = 0
    inline_tasks: int = 0
    worker_tasks: int = 0
    task_thread_idents: Set[int] = field(default_factory=set)


class MaintenanceScheduler:
    """Common machinery: round execution, reports, journal, counters.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.policies.engine.MaintenanceEngine` executing
        decide/apply.
    gc_lock:
        The owning cache's GC lock, threaded into the engine's apply phase
        that mutates commit-shared structures.  ``None`` for standalone
        (single-threaded) use.
    journal:
        The :class:`~repro.core.policies.journal.PlanJournal` receiving every
        applied plan; a fresh in-memory journal is created when omitted.
    """

    #: Registry name of the scheduler (``config.maintenance_mode``).
    mode: str = "abstract"

    def __init__(
        self,
        engine: MaintenanceEngine,
        gc_lock: Optional[threading.RLock] = None,
        journal: Optional[PlanJournal] = None,
    ) -> None:
        self._engine = engine
        self._gc_lock = gc_lock
        self._journal = journal if journal is not None else PlanJournal()
        self._reports: List[MaintenanceReport] = []
        self._state_lock = make_lock("scheduler.state")
        self._total_maintenance_s = 0.0
        self.counters = SchedulerCounters()

    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> MaintenanceEngine:
        """The maintenance engine running the decide/apply rounds."""
        return self._engine

    @property
    def journal(self) -> PlanJournal:
        """The append-only journal of every plan this scheduler applied."""
        return self._journal

    @property
    def reports(self) -> List[MaintenanceReport]:
        """Reports of every completed round so far (application order)."""
        with self._state_lock:
            return list(self._reports)

    @property
    def total_maintenance_s(self) -> float:
        """Cumulative wall-clock seconds spent executing rounds."""
        with self._state_lock:
            return self._total_maintenance_s

    # ------------------------------------------------------------------ #
    def _round_lock(self) -> Optional[threading.RLock]:
        """The lock the engine's commit-shared apply phase should take."""
        return self._gc_lock

    def _execute_round(
        self,
        window_entries: Sequence[WindowEntry],
        current_serial: int,
        inline: bool,
        sampled: Sequence[float],
        drain_s: float,
    ) -> MaintenanceReport:
        """Run decide+apply for one drained window and record everything.

        ``elapsed_s`` is ``drain_s`` (the submitter's window drain, never a
        background round's queue wait) plus decide, apply and the append.
        """
        started = time.perf_counter()
        plan, index_ops, backend_row_ops, hit_events = self._engine.run(
            window_entries, current_serial, lock=self._round_lock(), sampled=sampled
        )
        # Journal the round as a complete replayable frame: the plan, the
        # admitted window entries (the rows a replica must install) and the
        # hit events the round consumed.
        by_serial = {entry.serial: entry for entry in window_entries}
        self._journal.append(
            plan,
            admitted_entries=tuple(
                by_serial[serial] for serial in plan.admitted_serials
            ),
            hits=hit_events,
        )
        elapsed = drain_s + time.perf_counter() - started
        report = MaintenanceReport(
            window_queries=len(window_entries),
            admitted_serials=plan.admitted_serials,
            rejected_serials=plan.rejected_serials,
            evicted_serials=plan.evicted_serials,
            cache_size_after=len(self._engine.cache_store),
            elapsed_s=elapsed,
            index_ops=index_ops,
            backend_row_ops=backend_row_ops,
            plan=plan,
        )
        with self._state_lock:
            self._reports.append(report)
            self._total_maintenance_s += elapsed
            self.counters.rounds += 1
            if inline:
                self.counters.inline_rounds += 1
            else:
                self.counters.worker_rounds += 1
            self.counters.decide_thread_idents.add(threading.get_ident())
        return report

    def _execute_task(self, task: Callable[[], None], inline: bool) -> None:
        """Run one storage-maintenance task and account for where it ran.

        The task executes *before* the state lock is taken (tasks do their
        own locking — arena compaction runs under the backend lock — and
        nesting it inside ``scheduler.state`` would invert the lock ranks).
        """
        task()
        with self._state_lock:
            self.counters.tasks += 1
            if inline:
                self.counters.inline_tasks += 1
            else:
                self.counters.worker_tasks += 1
            self.counters.task_thread_idents.add(threading.get_ident())

    # ------------------------------------------------------------------ #
    # The scheduling contract.
    # ------------------------------------------------------------------ #
    def submit(
        self,
        window_entries: Sequence[WindowEntry],
        current_serial: int,
        sampled: Sequence[float] = (),
        drain_s: float = 0.0,
    ) -> Optional[MaintenanceReport]:
        """Schedule one round for a drained window.

        ``sampled`` (admission calibration samples) and ``drain_s`` ride with the round.
        Returns the completed report when the round ran to completion before
        returning (``sync``/``barrier``), else ``None`` (``background``).
        """
        raise NotImplementedError

    def submit_task(self, task: Callable[[], None]) -> None:
        """Schedule one storage-maintenance task (e.g. arena compaction).

        Tasks follow the scheduler's round placement: ``sync`` runs them
        inline on the submitting thread, ``background`` hands them to the
        worker thread (off the query path), ``barrier`` runs them on the
        worker and waits.  :meth:`drain` covers pending tasks exactly like
        pending rounds.
        """
        self._execute_task(task, inline=True)

    def drain(self) -> None:
        """Block until every submitted round has been applied.

        Callers must **not** hold the GC lock: a pending background round
        needs it briefly to finish its apply.
        """

    def idle(self) -> bool:
        """``True`` when no submitted round is queued or in flight.

        A non-blocking probe (safe under the GC lock, unlike :meth:`drain`):
        the quiesce loops in ``snapshot_state``/``restore`` use it to detect
        a round submitted between their drain and their lock acquisition.
        """
        return True

    def close(self) -> None:
        """Drain pending rounds and release scheduler resources."""
        self.drain()
        self._journal.close()


class SyncMaintenanceScheduler(MaintenanceScheduler):
    """Inline scheduling: the pre-scheduler behaviour, byte for byte."""

    mode = "sync"

    def submit(
        self,
        window_entries: Sequence[WindowEntry],
        current_serial: int,
        sampled: Sequence[float] = (),
        drain_s: float = 0.0,
    ) -> Optional[MaintenanceReport]:
        # The submitter is the committing thread and already holds the GC
        # lock (re-entrant), so taking it again in the apply phase is free.
        return self._execute_round(
            window_entries, current_serial, inline=True, sampled=sampled, drain_s=drain_s
        )


class BackgroundMaintenanceScheduler(MaintenanceScheduler):
    """Worker-thread scheduling: maintenance fully off the query path."""

    mode = "background"

    #: Seconds to wait for the worker thread to exit on close.
    JOIN_TIMEOUT_S = 30.0

    def __init__(
        self,
        engine: MaintenanceEngine,
        gc_lock: Optional[threading.RLock] = None,
        journal: Optional[PlanJournal] = None,
    ) -> None:
        super().__init__(engine, gc_lock=gc_lock, journal=journal)
        # Queue items: None (shutdown sentinel), a (window, serial, sampled,
        # drain_s) round, or a callable storage-maintenance task.
        self._queue: "queue.Queue[Union[None, Tuple[List[WindowEntry], int, List[float], float], Callable[[], None]]]" = (
            queue.Queue()
        )
        self._worker: Optional[threading.Thread] = None
        self._worker_lock = make_lock("scheduler.worker")
        self._failure: Optional[BaseException] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    def _ensure_worker_locked(self) -> None:
        """Start the worker if needed.  Caller holds ``_worker_lock``."""
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop,
                name="gc-maintenance",
                daemon=True,
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            task = self._queue.get()
            try:
                if task is None:
                    return
                if callable(task):
                    self._execute_task(task, inline=False)
                    continue
                window_entries, current_serial, sampled, drain_s = task
                self._execute_round(window_entries, current_serial, False, sampled, drain_s)
            except BaseException as exc:  # noqa: BLE001 - surfaced on drain
                self._failure = exc
            finally:
                self._queue.task_done()

    def _raise_pending_failure(self) -> None:
        failure, self._failure = self._failure, None
        if failure is not None:
            raise CacheError(
                f"background maintenance round failed: {failure!r}"
            ) from failure

    # ------------------------------------------------------------------ #
    def submit(
        self,
        window_entries: Sequence[WindowEntry],
        current_serial: int,
        sampled: Sequence[float] = (),
        drain_s: float = 0.0,
    ) -> Optional[MaintenanceReport]:
        self._raise_pending_failure()
        # The closed-check, worker start and enqueue form one critical
        # section against close(): a round can never land on the queue
        # after close() decided the worker's shutdown sentinel was final
        # (which would silently drop the round and hang the next drain).
        with self._worker_lock:
            if self._closed:
                raise CacheError("maintenance scheduler is closed")
            self._ensure_worker_locked()
            self._queue.put((list(window_entries), current_serial, list(sampled), drain_s))
        return None

    def submit_task(self, task: Callable[[], None]) -> None:
        self._raise_pending_failure()
        # Same critical section as submit(): never enqueue after close().
        with self._worker_lock:
            if self._closed:
                raise CacheError("maintenance scheduler is closed")
            self._ensure_worker_locked()
            self._queue.put(task)

    def drain(self) -> None:
        self._queue.join()
        self._raise_pending_failure()

    def idle(self) -> bool:
        with self._queue.all_tasks_done:
            return self._queue.unfinished_tasks == 0

    def close(self) -> None:
        with self._worker_lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        if worker is not None and worker.is_alive():
            # Finish pending rounds (drain-on-close), then stop the worker.
            self._queue.join()
            self._queue.put(None)
            worker.join(timeout=self.JOIN_TIMEOUT_S)
        self._journal.close()
        self._raise_pending_failure()


class BarrierMaintenanceScheduler(BackgroundMaintenanceScheduler):
    """Worker-thread scheduling with a completion barrier per round.

    Decide still runs on the worker (never on the query thread), but the
    submitter waits for the round, so no hit can interleave between window
    fill and decide — plans and counters are byte-identical to ``sync``.
    """

    mode = "barrier"

    def _round_lock(self) -> Optional[threading.RLock]:
        # The submitting thread is parked inside ``submit`` *holding the GC
        # lock* (it is the commit stage); the worker taking it again would
        # deadlock.  The barrier itself provides the mutual exclusion: no
        # other thread can commit while the submitter holds the lock.
        return None

    def submit(
        self,
        window_entries: Sequence[WindowEntry],
        current_serial: int,
        sampled: Sequence[float] = (),
        drain_s: float = 0.0,
    ) -> Optional[MaintenanceReport]:
        super().submit(window_entries, current_serial, sampled, drain_s)
        self._queue.join()
        self._raise_pending_failure()
        with self._state_lock:
            return self._reports[-1] if self._reports else None

    def submit_task(self, task: Callable[[], None]) -> None:
        # Tasks keep the barrier semantics: run on the worker, wait here.
        super().submit_task(task)
        self._queue.join()
        self._raise_pending_failure()


_SCHEDULERS = {
    SyncMaintenanceScheduler.mode: SyncMaintenanceScheduler,
    BackgroundMaintenanceScheduler.mode: BackgroundMaintenanceScheduler,
    BarrierMaintenanceScheduler.mode: BarrierMaintenanceScheduler,
}


def create_scheduler(
    mode: str,
    engine: MaintenanceEngine,
    gc_lock: Optional[threading.RLock] = None,
    journal: Optional[PlanJournal] = None,
) -> MaintenanceScheduler:
    """Build the scheduler ``config.maintenance_mode`` names."""
    try:
        factory = _SCHEDULERS[mode.lower()]
    except KeyError:
        raise CacheError(
            f"unknown maintenance mode {mode!r}; "
            f"valid modes: {', '.join(SCHEDULER_MODES)}"
        ) from None
    return factory(engine, gc_lock=gc_lock, journal=journal)
