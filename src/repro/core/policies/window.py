"""Window Manager: batched cache updates with admission control (§6.2).

New queries are not inserted into the cache one by one.  They accumulate in
the Window; every ``window_size`` *requests* the Window Manager drains it and
hands the batch (even an empty one) to a
:class:`~repro.core.policies.scheduler.MaintenanceScheduler`.  Exact hits and
repeats of a waiting structure only count, so the cache never holds two
copies of one query.  The scheduler decides *where* the round executes:

* ``sync`` — inline on the committing thread (the seed's behaviour);
* ``background`` — on a worker thread, off the query path (the paper's
  separate maintenance thread): decide runs free of the GC lock, apply runs
  phased so lookups keep reading the published GCindex snapshot;
* ``barrier`` — on the worker thread, but the committing query waits: the
  deterministic test mode whose plan stream is byte-identical to ``sync``.

Each round runs the engine's decide/apply split:

1. the admission controller filters the window queries (cache pollution
   avoidance),
2. the replacement policy — through the Statistics Manager's incremental
   selection over the cached queries' rows — selects the victims needed to
   make room,
3. the resulting :class:`~repro.core.policies.plan.MaintenancePlan` is
   applied as row-level deltas to the cache store, the GCindex and the
   statistics rows (evicted rows go, admitted queries start theirs), and
   appended to the scheduler's plan journal.

A window query has no statistics row: nothing credits it before it is
cached, so its statistics are derived from its entry when needed.

The window *drain* always happens on the commit path (so the window store
can never overflow); only decide/apply move off it.  Maintenance wall-clock
cost is accounted separately (the "overhead" series of Figure 10) and not
charged to query response time.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from ...graphs.graph import Graph
from ..statistics import StatisticsManager
from ..stores import CacheStore, WindowEntry, WindowStore
from .admission import AdmissionController
from .engine import MaintenanceEngine
from .plan import MaintenanceReport
from .replacement import ReplacementPolicy
from .scheduler import MaintenanceScheduler, SyncMaintenanceScheduler

if TYPE_CHECKING:  # pragma: no cover - type-only (see the ftv/methods
    # import-cycle note in repro.core.policies.engine)
    from ..query_index import QueryGraphIndex

__all__ = ["WindowManager"]


class WindowManager:
    """Feeds the Window and submits maintenance rounds when it fills.

    Either pass a ready-made ``engine`` or the parts to build one from
    (``statistics``, which carries the replacement policy, ``index`` and
    optionally ``admission``).  ``scheduler`` selects where rounds execute;
    omitting it yields a
    :class:`~repro.core.policies.scheduler.SyncMaintenanceScheduler` over
    the engine (the seed's inline behaviour).
    """

    def __init__(
        self,
        cache_store: CacheStore,
        window_store: WindowStore,
        statistics: StatisticsManager,
        index: Optional["QueryGraphIndex"] = None,
        admission: Optional[AdmissionController] = None,
        engine: Optional[MaintenanceEngine] = None,
        scheduler: Optional[MaintenanceScheduler] = None,
    ) -> None:
        if engine is None and scheduler is not None:
            engine = scheduler.engine
        if engine is None:
            if index is None:
                raise ValueError("WindowManager needs either an engine or an index")
            engine = MaintenanceEngine(
                cache_store=cache_store,
                statistics=statistics,
                index=index,
                admission=admission,
            )
        if scheduler is None:
            scheduler = SyncMaintenanceScheduler(engine)
        self._engine = engine
        self._scheduler = scheduler
        self._cache_store = cache_store
        self._window_store = window_store
        # Requests since the last round; the structures waiting in the window
        # (keyed like the Mfilter memo: Graph and PackedGraphView hash alike);
        # the expensiveness of the requests that did not become entries.
        self._requests = 0
        self._structures: Set[Graph] = set()
        self._sampled: List[float] = []

    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> MaintenanceEngine:
        """The maintenance engine running the decide/apply rounds."""
        return self._engine

    @property
    def scheduler(self) -> MaintenanceScheduler:
        """The scheduler deciding where maintenance rounds execute."""
        return self._scheduler

    @property
    def reports(self) -> List[MaintenanceReport]:
        """Reports of every completed cache-update round so far."""
        return self._scheduler.reports

    @property
    def total_maintenance_s(self) -> float:
        """Cumulative wall-clock time spent on cache maintenance."""
        return self._scheduler.total_maintenance_s

    @property
    def policy(self) -> ReplacementPolicy:
        """The replacement policy in use."""
        return self._engine.policy

    @property
    def admission(self) -> AdmissionController:
        """The admission controller in use."""
        return self._engine.admission

    def window_entries(self) -> List[WindowEntry]:
        """Current window contents (ordered by serial), without draining."""
        return self._window_store.entries()

    def state_record(self) -> Dict[str, Any]:
        """Requests since the last round and their calibration samples."""
        return {"window_requests": self._requests, "window_sampled": list(self._sampled)}

    def resync(self, record: Optional[Dict[str, Any]] = None) -> None:
        """Adopt a :meth:`state_record` (default: one request per entry) after
        the window store's contents were replaced wholesale."""
        entries = self._window_store.entries()
        record = record or {}
        self._structures = {entry.query for entry in entries}
        self._requests = int(record.get("window_requests", len(entries)))
        self._sampled = [float(score) for score in record.get("window_sampled", ())]

    # ------------------------------------------------------------------ #
    def add_query(self, entry: WindowEntry) -> Optional[MaintenanceReport]:
        """Commit one executed request that is not a credited exact hit;
        submit maintenance on every ``window_size``-th request.

        A new structure joins the window; a repeat of a waiting structure
        only counts, like :meth:`add_hit`.  Returns the round's report when
        the scheduler completed it before returning (``sync``/``barrier``).
        """
        if entry.query in self._structures:
            return self.add_hit(entry.serial, entry.expensiveness)
        self._structures.add(entry.query)
        self._window_store.add(entry)
        return self._count(entry.serial)

    def add_hit(self, serial: int, expensiveness: float) -> Optional[MaintenanceReport]:
        """Count a request that joins no window (an exact hit credited to its
        cached entry): its expensiveness goes to the round's admission
        calibration.  Returns what :meth:`add_query` returns."""
        self._sampled.append(expensiveness)
        return self._count(serial)

    def _count(self, serial: int) -> Optional[MaintenanceReport]:
        self._requests += 1
        if self._requests >= self._window_store.capacity:
            return self.run_maintenance(current_serial=serial)
        return None

    # ------------------------------------------------------------------ #
    def run_maintenance(self, current_serial: int) -> Optional[MaintenanceReport]:
        """Drain the window and submit one round to the scheduler.

        The drain stays on the calling thread (the window store can never
        overflow while a round is pending), timed into the round's
        ``elapsed_s``; the scheduler decides whether decide/apply run
        inline, behind a barrier, or asynchronously (in which case ``None``
        is returned and the report appears in :attr:`reports` once
        applied).  An empty drain is still a round: its frame journals the
        hit events of a window made only of hits.
        """
        started = time.perf_counter()
        window_entries = self._window_store.drain()
        sampled, self._sampled = self._sampled, []
        self._structures.clear()
        self._requests = 0
        drain_s = time.perf_counter() - started
        return self._scheduler.submit(window_entries, current_serial, sampled, drain_s)
