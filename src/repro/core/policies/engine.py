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
* :meth:`apply` executes a plan as row-level deltas: the cache store's
  backend deletes/inserts exactly the evicted/admitted rows
  (:meth:`~repro.core.stores.CacheStore.apply_delta`), the GCindex is
  updated through its existing ``add``/``remove`` instead of a rebuild, and
  the incremental utility heap mirrors the same delta — O(window) work per
  round, independent of the cache size.

Victim selection runs on the :class:`~repro.core.policies.heap.UtilityHeap`
(incrementally maintained by the per-hit :meth:`on_hit` hook); the seed's
full-snapshot re-scoring survives as :meth:`oracle_victims`, the reference
oracle the benchmarks pin the heap against.  Setting ``cross_check=True``
makes every round run both paths and record any divergence — the maintenance
benchmark's correctness harness.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..statistics import CachedQueryStats, StatisticsManager
from ..stores import CacheEntry, CacheStore, WindowEntry
from .adaptive import AdaptiveAdmissionController
from .admission import AdmissionController
from .heap import UtilityHeap
from .plan import MaintenancePlan
from .registry import admission_from_record
from .replacement import ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only (query_index pulls the ftv
    # package, which must not be imported before repro.methods; see the
    # ftv/methods import cycle note in repro.methods.registry)
    from ..query_index import QueryGraphIndex

__all__ = ["MaintenanceEngine"]


class MaintenanceEngine:
    """Decide/apply maintenance over one cache's stores, index and statistics.

    Parameters
    ----------
    cache_store, statistics, index:
        The shared state the apply step mutates (the decide step only reads
        it).
    policy:
        The replacement policy; scored incrementally through the utility
        heap, with the full-snapshot oracle kept for cross-checking.
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
        policy: ReplacementPolicy,
        admission: Optional[AdmissionController] = None,
        cross_check: bool = False,
    ) -> None:
        self._cache_store = cache_store
        self._statistics = statistics
        self._index = index
        self._policy = policy
        self._admission = admission or AdmissionController(enabled=False)
        self._heap = UtilityHeap(policy)
        # Estimated sub-iso cost alleviated by cache hits since the last
        # maintenance round — the live feedback signal for the adaptive
        # admission controller's hill climb (persisted in the state record
        # so a mid-window snapshot does not lose the partial window).
        self._window_cost_saving = 0.0
        # Hit events observed since the last round, in order.  Each round
        # drains this buffer into its journal frame, so a replica (or crash
        # recovery) can replay the exact statistics/heap evolution.
        # Persisted in the state record: a mid-window snapshot's pending
        # hits are exactly the prefix of the next frame already absorbed.
        self._hit_events: List[Tuple[int, int, float, float, bool]] = []
        self.cross_check = cross_check
        #: ``(current_serial, heap_victims, oracle_victims)`` triples for
        #: every cross-checked round that diverged (empty = proven identical).
        self.oracle_mismatches: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
        #: Test hook: when set, :meth:`apply` invokes it with the plan while
        #: the round's GCindex batch is still *unpublished* — a "held apply".
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

    @property
    def heap(self) -> UtilityHeap:
        """The incremental utility heap (exposed for inspection and tests)."""
        return self._heap

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
        selection = self._heap.select_victims(evict_count, current_serial)
        if self.cross_check and evict_count > 0:
            oracle = tuple(self.oracle_victims(evict_count, current_serial))
            if oracle != selection.victims:
                self.oracle_mismatches.append(
                    (current_serial, selection.victims, oracle)
                )

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

    def oracle_victims(self, evict_count: int, current_serial: int) -> List[int]:
        """Reference oracle: full-snapshot re-scoring, as the seed did it.

        O(cache) statistics-store reads plus a full sort — kept only to
        verify the incremental heap, never on the production path.
        """
        snapshots = self._statistics.snapshots(self._cache_store.serials())
        return self._policy.select_victims(snapshots, evict_count, current_serial)

    # ------------------------------------------------------------------ #
    # Apply: plan -> row-level deltas.
    # ------------------------------------------------------------------ #
    def apply(
        self,
        plan: MaintenancePlan,
        window_entries: Sequence[WindowEntry],
        lock: Optional[threading.RLock] = None,
    ) -> Tuple[int, int]:
        """Execute a plan against the stores, the index and the heap.

        Returns ``(index_ops, backend_row_ops)`` — the mutation counts this
        apply performed, measured from the index/backend op counters; both
        are bounded by the window size, never the cache size.

        The apply is phased so a background scheduler can run it while
        queries are being served:

        1. the **store delta** executes atomically under the store's own
           lock (readers see pre- or post-delta, never a torn mix);
        2. the **GCindex delta** runs as one
           :meth:`~repro.core.query_index.QueryGraphIndex.batch` — lookups
           keep reading the previously published snapshot and never block;
        3. the **heap/statistics delta** runs under ``lock`` (the cache's
           GC lock) because the commit path mutates the same structures on
           every hit — this is the only section that can briefly hold up a
           committing query.  ``None`` skips the locking (single-threaded
           callers, or a barrier scheduler whose submitter already holds
           the GC lock while it waits).
        """
        by_serial = {entry.serial: entry for entry in window_entries}
        additions = [
            CacheEntry(
                serial=serial,
                query=by_serial[serial].query,
                answer_ids=by_serial[serial].answer_ids,
            )
            for serial in plan.admitted_serials
        ]

        index_before = self._index.op_counts.incremental_ops
        rows_before = self._cache_store.backend.op_counts.row_ops

        self._cache_store.apply_delta(additions, plan.evicted_serials)
        with self._index.batch():
            for serial in plan.evicted_serials:
                self._index.remove(serial)
            for entry in additions:
                self._index.add(entry.serial, entry.query)
            if self.apply_hold_hook is not None:
                self.apply_hold_hook(plan)
        with lock if lock is not None else nullcontext():  # repro: lock[gc]
            for serial in plan.evicted_serials:
                self._heap.remove(serial)
                self._statistics.forget_query(serial)
            for entry in additions:
                # Seed the heap from the statistics store (registered when
                # the query joined the window), so both views start identical.
                self._heap.add(self._statistics.snapshot(entry.serial))
            for serial in plan.rejected_serials:
                self._statistics.forget_query(serial)

        return (
            self._index.op_counts.incremental_ops - index_before,
            self._cache_store.backend.op_counts.row_ops - rows_before,
        )

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
        the round is a complete replayable frame.
        """
        with lock if lock is not None else nullcontext():  # repro: lock[gc]
            hit_events, self._hit_events = self._hit_events, []
        plan = self.decide(window_entries, current_serial, sampled)
        index_ops, backend_row_ops = self.apply(plan, window_entries, lock=lock)
        with lock if lock is not None else nullcontext():  # repro: lock[gc]
            if isinstance(self._admission, AdaptiveAdmissionController):
                self._admission.record_window_saving(self._window_cost_saving)
            self._window_cost_saving = 0.0
        return plan, index_ops, backend_row_ops, tuple(hit_events)

    # ------------------------------------------------------------------ #
    # Replay: journaled frame -> same deltas, no re-deciding.
    # ------------------------------------------------------------------ #
    def replay(
        self,
        plan: MaintenancePlan,
        admitted_entries: Sequence[WindowEntry],
        hits: Sequence[Tuple[int, int, float, float, bool]] = (),
        lock: Optional[threading.RLock] = None,
    ) -> Tuple[int, int]:
        """Apply one journaled frame exactly as the primary applied it.

        This is the **sanctioned delta path** for replicas and crash
        recovery (analyzer rule REPRO008): the frame's hit events are
        applied to the statistics store and the utility heap in their
        original order, the admitted entries are registered with the same
        statistics rows :class:`~repro.core.policies.window.WindowManager`
        created on the primary, and the plan then goes through the ordinary
        :meth:`apply` delta machinery.  Nothing is re-decided, and the
        admission controller's calibration is untouched (it resumes from
        the snapshot's persisted state).

        The frame's hits can only reference serials that were cached before
        the round (window entries are never in the GCindex), so replay
        order — hits, then registrations, then apply — reproduces the
        primary's interleaved order byte-for-byte at the round boundary.
        """
        with lock if lock is not None else nullcontext():  # repro: lock[gc]
            for serial, benefiting, cs_reduction, cost_reduction, special in hits:
                self._statistics.record_hit(
                    serial=serial,
                    benefiting_serial=benefiting,
                    cs_reduction=cs_reduction,
                    cost_reduction=cost_reduction,
                    special=special,
                )
                self._heap.record_hit(
                    serial=serial,
                    benefiting_serial=benefiting,
                    cs_reduction=cs_reduction,
                    cost_reduction=cost_reduction,
                    special=special,
                )
            for entry in admitted_entries:
                self._statistics.register_query(CachedQueryStats.of_window_entry(entry))
        ops = self.apply(plan, admitted_entries, lock=lock)
        with lock if lock is not None else nullcontext():  # repro: lock[gc]
            # Mirror run(): the primary reset its window saving when this
            # round executed, so a replayed boundary matches it exactly.
            self._window_cost_saving = 0.0
        return ops

    def take_pending_hits(self) -> List[Tuple[int, int, float, float, bool]]:
        """Drain the pending hit buffer (recovery consumes it once).

        A snapshot taken mid-window persists the hits already absorbed
        since the last round; the first replayed frame contains those same
        events as its prefix, so recovery skips exactly this many.
        """
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
        """Record a cache hit in the statistics store *and* the utility heap."""
        self._statistics.record_hit(
            serial=serial,
            benefiting_serial=benefiting_serial,
            cs_reduction=cs_reduction,
            cost_reduction=cost_reduction,
            special=special,
        )
        self._heap.record_hit(
            serial=serial,
            benefiting_serial=benefiting_serial,
            cs_reduction=cs_reduction,
            cost_reduction=cost_reduction,
            special=special,
        )
        self._window_cost_saving += cost_reduction
        self._hit_events.append(
            (serial, benefiting_serial, cs_reduction, cost_reduction, special)
        )

    def rebuild_scores(self) -> None:
        """Re-seed the utility heap from the statistics store.

        Used after a restore/warm start, when the cached entries (and their
        statistics) were installed wholesale rather than through deltas.
        """
        self._heap.rebuild(
            self._statistics.snapshot(serial)
            for serial in self._cache_store.serials()
        )

    # ------------------------------------------------------------------ #
    # Persistable state (snapshot format v4).
    # ------------------------------------------------------------------ #
    def state_record(self) -> Dict[str, Any]:
        """JSON-compatible record of the engine's own state.

        The utility heap is *not* serialized: its contents are derived from
        the per-entry statistics the snapshot already carries, so the
        restore path rebuilds it (:meth:`rebuild_scores`) instead of
        trusting a second copy that could drift.
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
        self._hit_events = [
            (int(s), int(b), float(cs), float(cost), bool(special))
            for s, b, cs, cost, special in record.get("pending_hits", [])
        ]
