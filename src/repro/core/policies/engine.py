"""MaintenanceEngine: the unified, incremental cache-maintenance subsystem.

The paper's §6 maintenance machinery — the Window, admission control (§6.2)
and the replacement policies (§6.3) — used to run as stop-the-world work:
every window fill re-scored the whole cache, rewrote the whole cache store
and rebuilt the whole GCindex.  The engine replaces that with a clean
**decide/apply split** over **deltas**:

* :meth:`decide` consumes the drained window and emits a pure, serializable
  :class:`~repro.core.policies.plan.MaintenancePlan` (admitted / rejected /
  evicted serials plus the policy rationale) without touching any state
  beyond the admission controller's own calibration;
* :meth:`apply` executes a plan as row-level deltas: the admitted entries'
  statistics rows start, the storage half runs (the backend deletes/inserts
  exactly the evicted/admitted rows, the GCindex publishes the same delta
  once), then the evicted entries' rows go — O(window) work per round,
  whatever the cache size;
* :meth:`replay` runs journaled frames through the same steps: the rows per
  frame, the storage half once, for the net delta.

Each cached query has one statistics row, kept by the
:class:`~repro.core.statistics.StatisticsManager`, which also selects the
victims over those rows.  The per-hit :meth:`on_hit` hook applies a hit to
it once.  An admitted entry's row starts empty, ``CachedQueryStats(serial)``
— a window query is never credited, so nothing is lost by giving it no row
until then.
The row exists before the store and GCindex publish the entry, and an
evicted row outlives its entry's publication, so a query committing during
a background apply never credits a cached entry without a row.  A full sort
of copies of the rows of the cache store's serials survives as
:meth:`oracle_victims`, the reference oracle the benchmarks pin the
selection against.  Setting ``cross_check=True`` makes every round score
both over the rows as one hold of their lock saw them and record any
divergence — the maintenance benchmark's correctness harness.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..statistics import CachedQueryStats, StatisticsManager
from ..stores import CacheEntry, CacheStore, WindowEntry
from .adaptive import AdaptiveAdmissionController
from .admission import AdmissionController
from .journal import decode_hits
from .plan import MaintenancePlan
from .registry import admission_from_record
from .replacement import ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only (query_index pulls the ftv
    # package, which must not be imported before repro.methods; see the
    # ftv/methods import cycle note in repro.methods.registry)
    from ..query_index import QueryGraphIndex
    from ..replication import ReplicationFrame

__all__ = ["MaintenanceEngine"]


class MaintenanceEngine:
    """Decide/apply maintenance over one cache's stores, index and statistics.

    Parameters
    ----------
    cache_store, statistics, index:
        The shared state the apply step mutates (the decide step only reads
        it).
    admission:
        The admission controller (disabled by default).
    cross_check:
        When ``True``, every eviction decision also runs the full-rescore
        oracle and divergences are appended to :attr:`oracle_mismatches`
        (used by the maintenance benchmark; off in production — it
        reintroduces the O(cache) scan the engine exists to avoid).
    """

    def __init__(
        self,
        cache_store: CacheStore,
        statistics: StatisticsManager,
        index: "QueryGraphIndex",
        admission: Optional[AdmissionController] = None,
        cross_check: bool = False,
    ) -> None:
        self._cache_store = cache_store
        self._statistics = statistics
        self._index = index
        self._policy = statistics.policy
        self._admission = admission or AdmissionController(enabled=False)
        # Estimated sub-iso cost alleviated by cache hits since the last
        # maintenance round — the live feedback signal for the adaptive
        # admission controller's hill climb (persisted in the state record
        # so a mid-window snapshot does not lose the partial window).
        self._window_cost_saving = 0.0
        # Hit events observed since the last round, in order.  Each round
        # drains this buffer into its journal frame, so a replica (or crash
        # recovery) can replay the exact statistics evolution.
        # Persisted in the state record: a mid-window snapshot's pending
        # hits are exactly the prefix of the next frame already absorbed.
        self._hit_events: List[Tuple[int, int, float, float, bool]] = []
        self.cross_check = cross_check
        #: ``(current_serial, victims, oracle_victims)`` triples for
        #: every cross-checked round that diverged (empty = proven identical).
        self.oracle_mismatches: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
        #: Test hook: when set, :meth:`apply` invokes it with the plan while
        #: the round's GCindex delta is still *unpublished* — a "held apply".
        #: The concurrency tests park the background worker here to prove
        #: that lookups served meanwhile read the previous index snapshot.
        self.apply_hold_hook: Optional[Callable[[MaintenancePlan], None]] = None

    # ------------------------------------------------------------------ #
    @property
    def cache_store(self) -> CacheStore:
        """The cache store this engine maintains (exposed for the scheduler)."""
        return self._cache_store

    @property
    def policy(self) -> ReplacementPolicy:
        """The replacement policy in use."""
        return self._policy

    @property
    def admission(self) -> AdmissionController:
        """The admission controller in use."""
        return self._admission

    # ------------------------------------------------------------------ #
    # Decide: window -> pure plan.
    # ------------------------------------------------------------------ #
    def decide(
        self,
        window_entries: Sequence[WindowEntry],
        current_serial: int,
        sampled: Sequence[float] = (),
    ) -> MaintenancePlan:
        """Produce the maintenance plan for one drained window.

        Pure with respect to cache state: only the admission controller's
        calibration advances (it observes the window — its entries plus the
        ``sampled`` expensiveness of its credited requests — as in the paper).
        Rejection is computed per *serial* — a set membership test, not the
        seed's O(window²) identity-by-equality scan — so a serial is
        rejected iff no entry carrying it was admitted.
        """
        self._admission.observe_window(window_entries, sampled)
        admitted = self._admission.filter_admitted(window_entries)
        if len(admitted) > self._cache_store.capacity:
            # Windows larger than the cache itself: only the most recent
            # admitted queries can possibly fit.
            admitted = admitted[-self._cache_store.capacity:]
        admitted_serials = {entry.serial for entry in admitted}
        rejected = tuple(
            entry.serial
            for entry in window_entries
            if entry.serial not in admitted_serials
        )

        free_slots = self._cache_store.free_slots()
        evict_count = max(0, len(admitted) - free_slots)
        # The oracle scores copies taken under the selection's own hold of
        # the rows' lock: no commit's hit lands between the two.  The store
        # does not change during a decide.
        audit = self._cache_store.serials() if self.cross_check and evict_count else ()
        selection = self._statistics.select_victims(evict_count, current_serial, audit)
        if audit:
            oracle = tuple(self.oracle_victims(evict_count, current_serial, selection.copies))
            if oracle != selection.victims:
                self.oracle_mismatches.append((current_serial, selection.victims, oracle))

        return MaintenancePlan(
            current_serial=current_serial,
            window_serials=tuple(entry.serial for entry in window_entries),
            admitted_serials=tuple(entry.serial for entry in admitted),
            rejected_serials=rejected,
            evicted_serials=selection.victims,
            policy=selection.policy,
            policy_delegate=selection.delegate,
            admission_threshold=self._admission.threshold,
            victim_utilities=selection.victim_utilities,
        )

    def oracle_victims(
        self,
        evict_count: int,
        current_serial: int,
        rows: Optional[Sequence[CachedQueryStats]] = None,
    ) -> List[int]:
        """Reference oracle: the policy's full sort over copies of the rows of
        the cache store's serials, in the store's order (``rows``: such copies,
        already taken).

        The population comes from the store, not from the rows: a missing row
        raises :class:`~repro.exceptions.CacheError`, and a leftover row or a
        row order that differs from the store's shows up as a mismatch.
        O(cache) copies plus a full sort — kept only to verify the
        incremental selection, never on the production path.
        """
        if rows is None:
            rows = [self._statistics.snapshot(serial) for serial in self._cache_store.serials()]
        return self._policy.select_victims(rows, evict_count, current_serial)

    # ------------------------------------------------------------------ #
    # Apply: plan -> row-level deltas.
    # ------------------------------------------------------------------ #
    def apply(
        self,
        plan: MaintenancePlan,
        window_entries: Sequence[WindowEntry],
        lock: Optional[threading.RLock] = None,
    ) -> Tuple[int, int]:
        """Execute a plan against the stores, the index and the statistics.

        Returns ``(index_ops, backend_row_ops)`` — the mutation counts this
        apply performed, measured from the index/backend op counters; both
        are bounded by the window size, never the cache size.

        The apply is phased so a background scheduler can run it while
        queries are being served:

        1. the admitted entries' **statistics rows** start, under ``lock``
           (the cache's GC lock, which the commit path holds for its hits);
        2. the **store delta** executes atomically under the store's own
           lock (readers see pre- or post-delta, never a torn mix);
        3. the **GCindex delta** publishes once, through
           :meth:`~repro.core.query_index.QueryGraphIndex.apply_delta` —
           lookups keep reading the previous snapshot and never block;
        4. the evicted entries' rows go, under ``lock``.

        A query committing between the steps credits only entries the store
        holds, and each of those has a row, so no hit is lost — and the
        journal's replay, which applies a frame's rows before the next
        frame's hits, counts the same hits.  ``lock=None`` skips the locking
        (single-threaded callers, or a barrier scheduler whose submitter
        already holds the GC lock while it waits).
        """
        by_serial = {entry.serial: entry for entry in window_entries}
        admitted = [by_serial[serial] for serial in plan.admitted_serials]
        guard = lock if lock is not None else nullcontext()

        index_before = self._index.op_counts.incremental_ops
        rows_before = self._cache_store.backend.op_counts.row_ops

        with guard:  # repro: lock[gc]
            self._start_rows(admitted)
        additions = [CacheEntry(e.serial, e.query, e.answer_ids) for e in admitted]
        self._apply_storage(additions, plan.evicted_serials, plan)
        with guard:  # repro: lock[gc]
            self._drop_rows(plan.evicted_serials)

        return (
            self._index.op_counts.incremental_ops - index_before,
            self._cache_store.backend.op_counts.row_ops - rows_before,
        )

    def _apply_storage(
        self, additions: Sequence[CacheEntry], evicted: Sequence[int], plan=None
    ) -> None:
        """The storage half: the store delta, then the GCindex delta as one
        publication.  ``plan`` is what :attr:`apply_hold_hook` receives while
        the index delta is still unpublished."""
        self._cache_store.apply_delta(additions, evicted)
        hook = self.apply_hold_hook
        self._index.apply_delta(
            ((entry.serial, entry.query) for entry in additions),
            evicted,
            None if plan is None or hook is None else lambda: hook(plan),
        )

    def _start_rows(self, admitted: Sequence[WindowEntry]) -> None:  # repro: holds[gc]
        """Each ``admitted`` entry (in plan order) starts its row."""
        for entry in admitted:
            self._statistics.add(CachedQueryStats(entry.serial))

    def _drop_rows(self, evicted: Sequence[int]) -> None:  # repro: holds[gc]
        """The ``evicted`` entries' rows go."""
        for serial in evicted:
            self._statistics.remove(serial)

    def run(
        self,
        window_entries: Sequence[WindowEntry],
        current_serial: int,
        lock: Optional[threading.RLock] = None,
        sampled: Sequence[float] = (),
    ) -> Tuple[MaintenancePlan, int, int, Tuple[Tuple[int, int, float, float, bool], ...]]:
        """Decide and apply one round; returns the plan, the apply ops and
        the hit events the round consumed.

        An adaptive admission controller also receives the window's estimated
        cost saving (accumulated by :meth:`on_hit`) as its hill-climb
        feedback, so ``admission_kind="adaptive"`` tunes its threshold live
        instead of waiting for an external monitoring loop (windows span a
        fixed number of requests, so totals rank them like averages).
        ``lock`` is threaded through to :meth:`apply` (and guards the
        adaptive feedback, which reads the hit-accumulated saving).

        The returned hit events are the buffered :meth:`on_hit` calls since
        the previous round — the scheduler journals them with the plan so
        the round is a complete replayable frame.  Events and saving are
        taken together when the round starts: a hit a background round
        overlaps belongs to the next window, in both.
        """
        with lock if lock is not None else nullcontext():  # repro: lock[gc]
            hit_events, self._hit_events = self._hit_events, []
            saving, self._window_cost_saving = self._window_cost_saving, 0.0
        plan = self.decide(window_entries, current_serial, sampled)
        index_ops, backend_row_ops = self.apply(plan, window_entries, lock=lock)
        if isinstance(self._admission, AdaptiveAdmissionController):
            with lock if lock is not None else nullcontext():  # repro: lock[gc]
                self._admission.record_window_saving(saving)
        return plan, index_ops, backend_row_ops, tuple(hit_events)

    # ------------------------------------------------------------------ #
    # Replay: journaled frames -> the net delta, no re-deciding.
    # ------------------------------------------------------------------ #
    def replay(
        self, frames: Iterable["ReplicationFrame"], lock: Optional[threading.RLock] = None
    ) -> None:
        """Apply a sequence of journaled frames as the primary applied them.

        The **sanctioned delta path** for replicas and crash recovery
        (analyzer rule REPRO008); nothing is re-decided and the admission
        calibration is untouched.  Frame by frame, under ``lock``: hits, then
        the rows :meth:`apply` starts and drops — a frame's hits only
        reference serials cached before its round, so every boundary matches
        the primary's.  The storage half runs once, for the net delta: an
        entry admitted and evicted within ``frames`` never reaches the store
        or the GCindex, survivors are added in admission order, and evicted
        older entries are removed in the same GCindex delta.  Entries arrive
        checked, with a :class:`~repro.graphs.io.ParsedGraph` query; only
        survivors become Graphs.  ``frames`` is consumed once.
        """
        guard = lock if lock is not None else nullcontext()
        survivors: Dict[int, WindowEntry] = {}
        evicted: List[int] = []
        for frame in frames:
            with guard:  # repro: lock[gc]
                for hit in frame.hits:
                    self._statistics.record_hit(*hit)
                self._start_rows(frame.entries)
                self._drop_rows(frame.plan.evicted_serials)
                # Mirror run(): the primary took its window saving with this
                # frame's hits, so a replayed boundary matches it exactly.
                self._window_cost_saving = 0.0
            for serial in frame.plan.evicted_serials:
                if survivors.pop(serial, None) is None:
                    evicted.append(serial)
            for entry in frame.entries:
                survivors[entry.serial] = entry
        self._apply_storage(
            [CacheEntry(e.serial, e.query.build(), e.answer_ids) for e in survivors.values()],
            evicted,
        )

    def take_pending_hits(self) -> List[Tuple[int, int, float, float, bool]]:
        """Drain the pending hit buffer: a mid-window snapshot's absorbed hits,
        which recovery skips as the prefix of the first replayed frame."""
        pending, self._hit_events = self._hit_events, []
        return pending

    # ------------------------------------------------------------------ #
    # Statistics-monitor hook (the per-hit incremental update).
    # ------------------------------------------------------------------ #
    def on_hit(
        self,
        serial: int,
        benefiting_serial: int,
        cs_reduction: float,
        cost_reduction: float,
        special: bool = False,
    ) -> None:
        """Apply a cache hit to the cached query's row (and re-key it), then
        buffer it for the round's frame."""
        event = (serial, benefiting_serial, cs_reduction, cost_reduction, special)
        self._statistics.record_hit(*event)
        self._window_cost_saving += cost_reduction
        self._hit_events.append(event)

    # ------------------------------------------------------------------ #
    # Persistable state (part of the shard's state record).
    # ------------------------------------------------------------------ #
    def state_record(self) -> Dict[str, Any]:
        """JSON-compatible record of the engine's own state.

        The selection's lazy heap is *not* serialized: it keys the per-entry
        statistics rows the snapshot already carries, so the restore path
        re-keys it (:meth:`StatisticsManager.rebuild`) from those rows.
        """
        return {
            "admission": self._admission.state_record(),
            "policy": {"name": self._policy.name},
            "window_cost_saving": self._window_cost_saving,
            "pending_hits": [list(event) for event in self._hit_events],
        }

    def restore_state(self, record: Optional[Dict[str, Any]]) -> None:
        """Adopt a persisted engine state (``None``/empty = keep defaults)."""
        if not record:
            return
        admission_record = record.get("admission")
        if admission_record:
            self._admission = admission_from_record(admission_record)
        self._window_cost_saving = float(record.get("window_cost_saving", 0.0))
        self._hit_events = list(decode_hits(record.get("pending_hits", ())))
