"""GraphCache: the semantic cache front end for subgraph/supergraph queries.

:class:`GraphCache` wraps any :class:`~repro.methods.base.Method` ("Method M",
an FTV method or an SI method) and answers the same queries faster by reusing
the answer sets of previously executed queries (§4, Figure 2):

1. the query is filtered by Method M (``Mfilter``) producing ``CS_M``;
2. in parallel (conceptually), the GC processors look up the GCindex for
   cached queries that contain / are contained in the new query;
3. the Candidate Set Pruner applies equations (1) and (2) and the two special
   cases, producing a reduced candidate set and a set of "free" answers;
4. only the reduced candidate set is verified with ``Mverifier``;
5. statistics flow to the Statistics Manager, and the query joins the Window
   unless it is an exact hit (credited to the cached entry it hit) or a
   repeat of a structure already waiting there; every ``window_size``
   requests the Window Manager runs admission control, the replacement
   policy and the GCindex update.

The hit-path itself is implemented as an explicit staged dataflow in
:mod:`repro.core.pipeline` (``MfilterStage`` → ``ProcessorStage`` →
``PruneStage`` → ``VerifyStage`` → ``CommitStage``); :class:`GraphCache` is a
thin orchestrator that owns the shared state and delegates each query to a
:class:`~repro.core.pipeline.QueryPipeline`.  Batched, multi-query execution
lives in :class:`~repro.core.service.GraphCacheService`.

Correctness guarantee (proved in the companion paper [34] and enforced by the
property tests): for every query, the answer set returned with the cache is
exactly the answer set Method M would return on its own.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..analysis.runtime import make_lock, make_rlock
from ..exceptions import CacheError
from ..graphs.graph import Graph
from ..graphs.packed import PackedGraphView
from ..isomorphism.base import SubgraphMatcher
from ..isomorphism.cost import candidates_cost
from ..isomorphism.registry import matcher_by_name
from ..methods.base import Method
from .backends import StorageBackend, create_backend
from .config import GraphCacheConfig
from .packed_dataset import PackedGraphDataset
from .pipeline import (
    CommitStage,
    MfilterResult,
    MfilterStage,
    ProcessorStage,
    PruneStage,
    QueryPipeline,
    StageContext,
    VerifyStage,
)
from .policies import (
    MaintenanceEngine,
    MaintenanceScheduler,
    PlanJournal,
    WindowManager,
    admission_by_name,
    create_scheduler,
    policy_by_name,
)
from .processors import CacheProcessors, ProcessorOutcome
from .pruner import CandidateSetPruner, PruningResult
from .query_index import QueryGraphIndex
from .statistics import CachedQueryStats, StatisticsManager
from .stores import (
    CacheEntry,
    CacheEntryCodec,
    CacheStore,
    WindowEntry,
    WindowEntryCodec,
    WindowStore,
)

if TYPE_CHECKING:  # pragma: no cover - type-only (replication builds on this module)
    from .replication import ReplicationFrame

__all__ = ["GraphCache", "CacheQueryResult", "CacheRuntimeStatistics"]


@dataclass(frozen=True)
class CacheQueryResult:
    """Result and accounting of one query answered through GraphCache.

    Attributes
    ----------
    serial:
        The serial number GraphCache assigned to the query.
    answer_ids:
        Dataset-graph ids in the query's answer set (identical to what Method
        M alone would return).
    method_candidates:
        Size of Method M's candidate set before cache-based pruning.
    final_candidates:
        Number of candidates actually verified after pruning.
    direct_answers:
        Number of answers obtained from the cache without verification.
    subiso_tests:
        Number of dataset-graph sub-iso tests executed.
    filter_time_s:
        Method M filtering time.
    gc_filter_time_s:
        GraphCache processor time (GCindex lookups + query-vs-query tests).
    verify_time_s:
        Effective verification time (divided by Method M's parallelism).
    maintenance_time_s:
        Cache-maintenance time triggered by this query (0 unless the query
        was a window's last request); reported separately, as in Figure 10.
    shortcut:
        ``"exact"``, ``"empty"`` or ``None``.
    sub_hits / super_hits:
        Number of cached queries whose answer sets were exploited via the
        subgraph / supergraph relationship.
    containment_tests:
        Query-vs-query sub-iso tests actually executed by the GC processors.
    containment_memo_hits:
        Query-vs-query verdicts answered from the containment memo instead.
    stage_times:
        Per-stage wall-clock seconds, keyed by pipeline stage name
        (:data:`~repro.core.pipeline.STAGE_NAMES`).  In parallel execution
        mode ``mfilter`` and ``processors`` overlap in wall-clock, so the
        values sum to more than the observed latency by design.
    short_circuit_stage:
        Name of the pipeline stage that short-circuited verification
        (``"prune"`` on an exact/empty shortcut), or ``None``.
    decode_avoided:
        1 when the query reached the cache as a CSR-native
        :class:`~repro.graphs.packed.PackedGraphView` (pool-worker serving:
        no ``Graph`` was constructed for it), else 0.  The multi-process
        identity suites pin ``sum(decode_avoided) == requests served``.
    """

    serial: int
    answer_ids: FrozenSet[int]
    method_candidates: int
    final_candidates: int
    direct_answers: int
    subiso_tests: int
    filter_time_s: float
    gc_filter_time_s: float
    verify_time_s: float
    maintenance_time_s: float
    shortcut: Optional[str]
    sub_hits: int
    super_hits: int
    containment_tests: int = 0
    containment_memo_hits: int = 0
    stage_times: Dict[str, float] = field(default_factory=dict)
    short_circuit_stage: Optional[str] = None
    decode_avoided: int = 0

    @property
    def total_time_s(self) -> float:
        """Query response time: filtering (M + GC) plus verification."""
        return self.filter_time_s + self.gc_filter_time_s + self.verify_time_s

    @property
    def cache_hit(self) -> bool:
        """``True`` if the cache contributed to this query in any way."""
        return bool(self.sub_hits or self.super_hits or self.shortcut)


@dataclass
class CacheRuntimeStatistics:
    """Aggregate counters maintained by a :class:`GraphCache` instance."""

    queries_processed: int = 0
    cache_hits: int = 0
    exact_hits: int = 0
    empty_shortcuts: int = 0
    subiso_tests: int = 0
    subiso_tests_alleviated: int = 0
    containment_tests: int = 0
    containment_memo_hits: int = 0
    decode_avoided: int = 0
    total_query_time_s: float = 0.0
    total_maintenance_time_s: float = 0.0
    # Replication/recovery accounting: journal frames applied through
    # replay_frames() (replica followers and crash recovery), the shipped
    # bytes they carried, and the wall-clock spent applying them.
    replay_rounds: int = 0
    replay_bytes: int = 0
    replay_apply_time_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Return the counters as a plain dictionary (for reports)."""
        return asdict(self)


class GraphCache:
    """Semantic cache front end over a pluggable Method M.

    Parameters
    ----------
    method:
        The query-processing method to expedite (FTV or SI).
    config:
        Cache configuration; defaults to the paper's defaults.
        ``config.containment_matcher`` names the matcher used for
        query-vs-query containment checks.
    matcher:
        Explicit matcher override for the containment checks.  The matcher is
        resolved exactly once, here: the explicit argument wins, then
        ``config.containment_matcher`` (by registry name), then the method's
        own verifier — so every pipeline stage shares one matcher instance
        and its plan memo.

    Examples
    --------
    >>> from repro.graphs.generators import aids_like
    >>> from repro.methods import SIMethod
    >>> dataset = aids_like(scale=0.05)
    >>> cache = GraphCache(SIMethod(dataset, matcher="vf2plus"))
    >>> some_query = dataset[0].induced_subgraph(range(5))
    >>> result = cache.query(some_query)
    >>> result.answer_ids  # doctest: +SKIP
    frozenset({0, ...})
    """

    def __init__(
        self,
        method: Method,
        config: Optional[GraphCacheConfig] = None,
        matcher: Optional[SubgraphMatcher] = None,
    ) -> None:
        self._method = method
        self._config = config or GraphCacheConfig()
        if self._config.query_mode == "supergraph" and not method.supports_supergraph:
            raise CacheError(f"method {method.name!r} cannot serve supergraph queries")

        # Data layer: the stores are typed facades over the configured
        # storage backend (two dicts, or two mmap arenas under one base path).
        # Over a packed dataset arena (only ever attached inside a forked
        # pool worker — see repro.core.workers) the mmap backend serves
        # stored queries as CSR-native PackedGraphView objects, so no Graph
        # is rebuilt on the serving path; in-process caches decode.
        packed_views = isinstance(method.dataset, PackedGraphDataset)
        self._cache_store = CacheStore(
            self._config.cache_capacity,
            backend=create_backend(
                self._config.backend,
                CacheEntryCodec(),
                path=self._config.backend_path,
                table="cache_entries",
                packed_views=packed_views,
            ),
        )
        self._window_store = WindowStore(
            self._config.window_size,
            backend=create_backend(
                self._config.backend,
                WindowEntryCodec(),
                path=self._config.backend_path,
                table="window_entries",
                packed_views=packed_views,
            ),
        )
        self._statistics = StatisticsManager(
            policy_by_name(self._config.replacement_policy)
        )
        # Sync scheduling serializes applies and lookups under the GC lock,
        # so the index keeps one copy; the background/barrier schedulers
        # need the double buffer for lock-free snapshot reads mid-apply.
        self._index = QueryGraphIndex(
            max_path_length=self._config.index_path_length,
            double_buffered=self._config.maintenance_mode.lower() != "sync",
        )
        self._containment_matcher = self._resolve_containment_matcher(matcher)
        self._processors = CacheProcessors(
            self._index, matcher=self._containment_matcher
        )
        self._pruner = CandidateSetPruner(
            self._cache_store, query_mode=self._config.query_mode
        )
        # The maintenance subsystem: policy and admission controller come
        # from the repro.core.policies registries; the engine owns the
        # decide/apply rounds over the statistics rows; the
        # scheduler (config.maintenance_mode) decides where rounds execute
        # and journals every applied plan.
        self._gc_lock = make_rlock("gc")
        self._engine = MaintenanceEngine(
            cache_store=self._cache_store,
            statistics=self._statistics,
            index=self._index,
            admission=admission_by_name(
                self._config.admission_kind,
                enabled=self._config.admission_control,
                expensive_fraction=self._config.admission_expensive_fraction,
                calibration_windows=self._config.admission_calibration_windows,
                threshold=self._config.admission_threshold,
            ),
        )
        self._scheduler = create_scheduler(
            self._config.maintenance_mode,
            engine=self._engine,
            gc_lock=self._gc_lock,
            journal=PlanJournal(
                self._config.journal_path, fsync=self._config.journal_fsync
            ),
        )
        self._window_manager = WindowManager(
            cache_store=self._cache_store,
            window_store=self._window_store,
            statistics=self._statistics,
            engine=self._engine,
            scheduler=self._scheduler,
        )
        self._serial = 0
        self._runtime = CacheRuntimeStatistics()
        # Arena-compaction bookkeeping: completed event records (list.append
        # is GIL-atomic — events land from scheduler worker threads) and the
        # backends with a fold currently scheduled (guards double-submission
        # when deltas publish faster than the worker folds).
        self._compaction_events: List[Dict[str, object]] = []
        self._compaction_pending: Set[int] = set()
        self._serial_lock = make_lock("serial")
        self._mfilter = MfilterStage(method, self._index)
        self._pipeline = QueryPipeline(
            self._mfilter,
            ProcessorStage(self._processors),
            PruneStage(self._pruner),
            VerifyStage(method, query_mode=self._config.query_mode),
            CommitStage(self),
            gc_lock=self._gc_lock,
        )
        self._warm_start_from_backend()

    def _warm_start_from_backend(self) -> None:
        """Adopt entries a durable backend already holds.

        Reopening an mmap-backed cache on a sealed arena warm-starts it
        without a JSON snapshot: the GCindex is rebuilt from the stored
        query graphs — the same code path the Window Manager uses after a
        cache-update round — and the serial counter resumes past every stored
        serial.  Hit/contribution statistics are *not* in the backend; they
        restart cold and re-accumulate (use :mod:`repro.core.persistence` for
        a full-fidelity restore including statistics).
        """
        entries = list(self._cache_store)
        window_entries = self._window_store.entries()
        if not entries and not window_entries:
            return
        self._index.rebuild((entry.serial, entry.query) for entry in entries)
        self._statistics.rebuild(
            CachedQueryStats(
                serial=entry.serial,
                order=entry.query.order,
                size=entry.query.size,
                distinct_labels=len(entry.query.distinct_labels()),
            )
            for entry in entries
        )
        self._serial = max(
            [entry.serial for entry in entries]
            + [entry.serial for entry in window_entries]
        )
        self._window_manager.resync()

    def _resolve_containment_matcher(
        self, matcher: Optional[SubgraphMatcher]
    ) -> SubgraphMatcher:
        """Resolve the containment matcher in one place (shared by all stages)."""
        if matcher is not None:
            return matcher
        if self._config.containment_matcher is not None:
            return matcher_by_name(self._config.containment_matcher)
        return self._method.matcher

    # ------------------------------------------------------------------ #
    @property
    def method(self) -> Method:
        """The wrapped Method M."""
        return self._method

    @property
    def config(self) -> GraphCacheConfig:
        """The active configuration."""
        return self._config

    @property
    def statistics_manager(self) -> StatisticsManager:
        """The Statistics Manager (exposed for inspection and tests)."""
        return self._statistics

    @property
    def window_manager(self) -> WindowManager:
        """The Window Manager (exposed for inspection and tests)."""
        return self._window_manager

    @property
    def maintenance_engine(self) -> MaintenanceEngine:
        """The maintenance engine (decide/apply rounds)."""
        return self._engine

    @property
    def maintenance_scheduler(self) -> MaintenanceScheduler:
        """The scheduler deciding where maintenance rounds execute."""
        return self._scheduler

    @property
    def plan_journal(self) -> PlanJournal:
        """The append-only journal of every applied maintenance plan."""
        return self._scheduler.journal

    @property
    def runtime_statistics(self) -> CacheRuntimeStatistics:
        """Aggregate counters since the cache was created."""
        return self._runtime

    @property
    def pipeline(self) -> QueryPipeline:
        """The staged query pipeline (exposed for inspection and tests)."""
        return self._pipeline

    @property
    def containment_matcher(self) -> SubgraphMatcher:
        """The single matcher shared by the GC processors' containment checks."""
        return self._containment_matcher

    @property
    def cached_serials(self) -> List[int]:
        """Serial numbers of the currently cached queries."""
        return self._cache_store.serials()

    @property
    def current_serial(self) -> int:
        """The last serial number assigned to a query (0 on a fresh cache).

        Snapshots persist this so a restored cache continues numbering where
        the saved one stopped — window queries hold serials too, so this is
        *not* derivable from ``queries_processed``.
        """
        with self._serial_lock:
            return self._serial

    def cached_entry(self, serial: int) -> CacheEntry:
        """Return a cached entry by serial number."""
        return self._cache_store.get(serial)

    def window_entries(self) -> List[WindowEntry]:
        """The current window contents (copies, in arrival order)."""
        return self._window_store.entries()

    @property
    def query_index(self) -> QueryGraphIndex:
        """The GCindex (exposed for inspection; its ``version`` is the
        publication counter the replica-identity checks compare)."""
        return self._index

    def __len__(self) -> int:
        return len(self._cache_store)

    def cache_size_bytes(self) -> int:
        """Approximate memory footprint of GC's data (index + answer sets)."""
        answers = sum(
            64 + 8 * len(entry.answer_ids) + 32 * entry.query.order
            for entry in self._cache_store
        )
        return self._index.approximate_size_bytes() + answers

    # ------------------------------------------------------------------ #
    def query(self, query: Graph) -> CacheQueryResult:
        """Answer a subgraph (or supergraph) query through the cache."""
        return self._pipeline.execute(self._new_context(query))

    def prefilter(self, query: Graph) -> MfilterResult:
        """Run only the (memoised) Mfilter stage for ``query``.

        Mfilter is cache-state independent, so this is safe from any thread;
        feed the result to :meth:`execute_prefiltered`.
        """
        return self._mfilter.filter(query)

    def execute_prefiltered(
        self, query: Graph, filtered: MfilterResult
    ) -> CacheQueryResult:
        """Answer a query whose Mfilter stage was already computed elsewhere.

        This is the entry point of the batched service facade: candidate
        sets prefetched concurrently through :meth:`prefilter` feed the
        remaining (serially executed) GC stages with answers and work
        counters byte-identical to :meth:`query`.
        """
        ctx = self._new_context(query)
        ctx.method_candidates, ctx.filter_time_s, ctx.first_filter_time_s = filtered
        return self._pipeline.execute(ctx)

    def _new_context(self, query: Graph) -> StageContext:
        with self._serial_lock:
            self._serial += 1
            serial = self._serial
        return StageContext(query=query, serial=serial)

    def _commit(self, ctx: StageContext) -> None:
        """CommitStage body: statistics, window admission, result construction.

        Runs under the pipeline's GC lock (one commit at a time), so window
        maintenance, replacement decisions and counters stay deterministic.
        """
        started = time.perf_counter()
        outcome, pruning = ctx.outcome, ctx.pruning
        answer_ids = ctx.answer_ids

        # Statistics monitoring: credit contributing cached queries.
        self._record_contributions(ctx.query, ctx.serial, outcome, pruning)

        # Window admission: an exact hit on a still-cached entry was credited
        # above and only counts toward the window (the cache never holds two
        # isomorphic queries).  Any other query joins it with its
        # first-execution costs (Method M's filtering time + its verification
        # effort) — on an Mfilter memo hit that is the filter time of the call
        # that filled the memo, so repeats do not look cheaper to admission.
        maintenance_time = 0.0
        report = self._window_manager.add_query(
            WindowEntry(
                serial=ctx.serial,
                query=ctx.query,
                answer_ids=answer_ids,
                filter_time_s=ctx.first_filter_time_s + outcome.elapsed_s,
                verify_time_s=ctx.verify_time_s,
            ),
            credited=pruning.shortcut == "exact"
            and pruning.shortcut_serial in self._cache_store,
        )
        if report is not None:
            maintenance_time = report.elapsed_s
        ctx.maintenance_time_s = maintenance_time

        ctx.stage_times["commit"] = time.perf_counter() - started
        result = CacheQueryResult(
            serial=ctx.serial,
            answer_ids=answer_ids,
            method_candidates=len(ctx.method_candidates),
            final_candidates=len(pruning.final_candidates),
            direct_answers=len(pruning.direct_answers),
            subiso_tests=ctx.subiso_tests,
            filter_time_s=ctx.filter_time_s,
            gc_filter_time_s=outcome.elapsed_s,
            verify_time_s=ctx.verify_time_s,
            maintenance_time_s=maintenance_time,
            shortcut=pruning.shortcut,
            sub_hits=len(outcome.result_sub),
            super_hits=len(outcome.result_super),
            containment_tests=outcome.containment_tests,
            containment_memo_hits=outcome.memo_hits,
            stage_times=ctx.stage_times,
            short_circuit_stage=ctx.short_circuit_stage,
            decode_avoided=1 if isinstance(ctx.query, PackedGraphView) else 0,
        )
        self._update_runtime(result, len(ctx.method_candidates))
        ctx.result = result

    def answer(self, query: Graph) -> FrozenSet[int]:
        """Convenience wrapper returning only the answer set."""
        return self.query(query).answer_ids

    def drain_maintenance(self) -> None:
        """Block until every scheduled maintenance round has been applied.

        A no-op under ``sync``/``barrier`` scheduling (rounds complete before
        the submitting query returns).  Under ``background`` scheduling this
        is the quiescence point: after it returns, every filled window has
        been decided, applied and journaled.  Callers must not hold the GC
        lock (a pending apply needs it briefly to finish).
        """
        self._scheduler.drain()

    def snapshot_state(
        self,
    ) -> Tuple[
        List[CacheEntry],
        List[CachedQueryStats],
        List[WindowEntry],
        int,
        Dict[str, object],
    ]:
        """Consistent view of the persistable state (the snapshot-save twin
        of :meth:`restore`).

        Taken under the GC lock, so a snapshot of a cache that is concurrently
        serving queries can never be torn: no entry can be evicted between
        listing and reading it, and no window entry can slip into the cache
        between the two sections.  Returns ``(entries, stats, window_entries,
        next_serial, maintenance)`` with statistics covering cached and
        window queries (copies of the cached rows, then each window entry's
        :meth:`~repro.core.statistics.CachedQueryStats.of_window_entry`);
        ``maintenance`` is the engine's state record
        (admission calibration, adaptive-threshold history — snapshot format
        v4 carries it so a cache interrupted mid-calibration resumes exactly)
        plus the window's request count and calibration samples, so a cache
        restored mid-window fires — and calibrates — its next round exactly
        as the uninterrupted one.

        **Drain-before-snapshot**: pending background maintenance rounds are
        applied first, so a snapshot never captures a half-executed plan —
        every journaled decision is either fully reflected in the persisted
        stores or not yet decided.  Drain and lock acquisition loop until
        the scheduler is idle *while the GC lock is held*: a round submitted
        by a concurrently committing query between the drain and the lock
        would otherwise race its store/index phases against the reads below.
        Once the lock is held with an idle scheduler, no new round can be
        submitted (submission happens in the commit stage, under this lock).
        """
        while True:
            self.drain_maintenance()
            with self._gc_lock:
                if not self._scheduler.idle():
                    continue  # a round slipped in before we took the lock
                entries = list(self._cache_store)
                window_entries = self._window_store.entries()
                stats = [self._statistics.snapshot(entry.serial) for entry in entries]
                stats += map(CachedQueryStats.of_window_entry, window_entries)
                return (
                    entries,
                    stats,
                    window_entries,
                    self.current_serial,
                    {
                        **self._engine.state_record(),
                        **self._window_manager.state_record(),
                    },
                )

    def restore(
        self,
        entries: Iterable[CacheEntry],
        stats: Iterable[CachedQueryStats] = (),
        next_serial: int = 0,
        window_entries: Iterable[WindowEntry] = (),
        maintenance: Optional[Dict[str, object]] = None,
    ) -> None:
        """Install externally persisted state (the snapshot-load entry point).

        Replaces the cache contents with ``entries``, rebuilds the GCindex —
        the restore twin of the engine's delta path — installs the supplied
        per-query ``stats`` as the cached entries' rows and re-keys the
        victim selection over them (an entry without one starts at zero;
        rows of other serials, such as window queries, are ignored: a window
        query's statistics follow from its entry), refills the window with
        ``window_entries``, adopts the persisted
        ``maintenance`` state (admission calibration / adaptive-threshold
        history; ``None`` restarts those cold) and
        resumes the serial counter at ``max(next_serial, highest restored
        serial)`` so replayed queries never collide with restored ones.

        This is the public API :func:`repro.core.persistence.load_cache`
        builds on; callers never need to reach into the private stores.
        """
        entries = list(entries)
        window_entries = sorted(window_entries, key=lambda entry: entry.serial)
        by_serial = {row.serial: row for row in stats}
        # Quiesce maintenance before swapping state in: drain, then verify
        # *under the same GC lock hold that performs the swap* that no round
        # slipped in meanwhile (same loop as snapshot_state — an in-flight
        # apply landing on the freshly restored stores would corrupt them).
        while True:
            self.drain_maintenance()
            with self._gc_lock:
                if not self._scheduler.idle():
                    continue  # a round slipped in before we took the lock
                self._cache_store.replace_contents(entries)
                self._index.rebuild(
                    (entry.serial, entry.query) for entry in entries
                )
                self._window_store.drain()  # discard pre-existing window contents
                for entry in window_entries:
                    self._window_store.add(entry)
                self._window_manager.resync(maintenance)
                self._statistics.rebuild(
                    by_serial.get(entry.serial, CachedQueryStats(entry.serial))
                    for entry in entries
                )
                self._engine.restore_state(maintenance)
                restored_serials = [entry.serial for entry in entries] + [
                    entry.serial for entry in window_entries
                ]
                with self._serial_lock:
                    self._serial = max([next_serial] + restored_serials)
                return

    # ------------------------------------------------------------------ #
    # Replication / recovery: the replay side of the plan journal.
    # ------------------------------------------------------------------ #
    def replay_frames(self, frames: Iterable["ReplicationFrame"]) -> None:
        """Apply journaled maintenance frames (followers pass one at a time, a
        recovery streams a whole journal tail) through
        :meth:`~repro.core.policies.engine.MaintenanceEngine.replay` — the
        sanctioned delta machinery (analyzer rule REPRO008) — under the GC
        lock.  The window store then drops the serials the rounds consumed,
        its request count restarts at the last boundary and the serial
        counter passes every serial the frames mention.  A replayed round
        is never re-journaled."""
        started = time.perf_counter()
        with self._gc_lock:
            waiting = {entry.serial for entry in self._window_store}
            rounds = size_bytes = 0
            top = self._serial

            def observed():
                nonlocal rounds, size_bytes, top
                for frame in frames:
                    rounds += 1
                    size_bytes += frame.size_bytes
                    top = max(top, frame.plan.current_serial, *frame.plan.window_serials)
                    waiting.difference_update(frame.plan.window_serials)
                    yield frame

            self._engine.replay(observed(), lock=self._gc_lock)
            if not rounds:
                return
            if len(waiting) < len(self._window_store):
                for entry in self._window_store.drain():
                    if entry.serial in waiting:
                        self._window_store.add(entry)
            self._window_manager.resync()
            with self._serial_lock:
                self._serial = top
            self._runtime.replay_rounds += rounds
            self._runtime.replay_bytes += size_bytes
            self._runtime.replay_apply_time_s += time.perf_counter() - started

    def lookup(self, query: Graph) -> FrozenSet[int]:
        """Answer a query read-only: no serial, no window, no statistics.

        The replica serving path: Mfilter → GC processors → pruner →
        verification of the surviving candidates, returning exactly the
        answer set :meth:`query` would return — but without committing the
        query to the window or mutating any cache state, so N replicas can
        serve lookups while the primary alone owns admission.
        """
        ctx = StageContext(query=query, serial=0)
        self._pipeline.execute_readonly(ctx)
        return ctx.answer_ids

    def close(self) -> None:
        """Release maintenance and data-layer resources (scheduler, backends).

        **Drain-on-close**: the maintenance scheduler finishes every pending
        round (applying and journaling its plan) before the worker stops and
        the backends shut down — a closed cache never leaves a drained
        window undecided.
        """
        self._scheduler.close()
        self._cache_store.close()
        self._window_store.close()

    def storage_backends(self) -> Tuple[StorageBackend, StorageBackend]:
        """The (cache, window) store backends — the public data-layer surface."""
        return (self._cache_store.backend, self._window_store.backend)

    def seal_storage(self) -> None:
        """Seal sealable storage backends to their segment files.

        For the mmap backend this compacts each store's arena into its
        read-only segment (atomic publish) so other processes can attach it;
        backends without a ``seal`` method are left untouched.  Call with
        maintenance quiescent (e.g. right before :meth:`close`, or between
        query batches in ``sync`` maintenance mode).
        """
        for backend in self.storage_backends():
            seal = getattr(backend, "seal", None)
            if seal is not None:
                seal()

    def seal_delta_storage(self) -> int:
        """Publish every store's arena tail as delta segments (append-only).

        The long-lived-pool re-seal tick: each mmap backend's
        :meth:`~repro.core.backends.mmapped.MmapBackend.seal_delta` appends
        one ``.deltaN`` file (extents never move).  Afterwards, if
        ``config.compaction_threshold`` is set, any backend whose
        ``dead_bytes / live_bytes`` ratio crossed it gets a full compacting
        fold *scheduled* through the maintenance scheduler — inline under
        ``sync``, on the worker thread (off the query path) under
        ``background``/``barrier``.  Returns the number of records
        published.
        """
        published = 0
        for backend in self.storage_backends():
            seal_delta = getattr(backend, "seal_delta", None)
            if seal_delta is not None:
                published += seal_delta()
        self._maybe_schedule_compaction()
        return published

    @property
    def compaction_events(self) -> List[Dict[str, object]]:
        """Completed automatic-compaction events (oldest first)."""
        return list(self._compaction_events)

    def _maybe_schedule_compaction(self) -> None:
        """Submit a compaction task for every backend over the dead/live threshold."""
        threshold = self._config.compaction_threshold
        if threshold is None:
            return
        for backend in self.storage_backends():
            compact = getattr(backend, "compact", None)
            arena_statistics = getattr(backend, "arena_statistics", None)
            if compact is None or arena_statistics is None:
                continue
            stats = arena_statistics()
            live, dead = stats["live_bytes"], stats["dead_bytes"]
            if dead <= 0:
                continue
            ratio = dead / live if live else float("inf")
            if ratio < threshold:
                continue
            key = id(backend)
            if key in self._compaction_pending:
                continue
            self._compaction_pending.add(key)

            def fold(backend=backend, ratio=ratio, key=key) -> None:
                try:
                    self._compaction_events.append(backend.compact(trigger_ratio=ratio))
                finally:
                    self._compaction_pending.discard(key)

            self._scheduler.submit_task(fold)

    # ------------------------------------------------------------------ #
    def _record_contributions(
        self,
        query: Graph,
        serial: int,
        outcome: ProcessorOutcome,
        pruning: PruningResult,
    ) -> None:
        """Feed the Statistics Manager with each cached query's contribution."""
        for cached_serial, removed_ids in pruning.contributions.items():
            if cached_serial not in self._cache_store:
                continue
            special = pruning.shortcut is not None
            if special:
                # A shortcut removed all of CS_M: its credit is kept beside it.
                cost_saving = self._mfilter.shortcut_credit(query, removed_ids)
            else:
                cost_saving = candidates_cost(query, removed_ids, self._method.dataset)
            # The engine's hit hook updates the entry's one statistics row
            # and re-keys the victim selection over it.
            self._engine.on_hit(
                serial=cached_serial,
                benefiting_serial=serial,
                cs_reduction=float(len(removed_ids)),
                cost_reduction=cost_saving,
                special=special,
            )
        # Cached queries that matched but removed nothing still count as hits
        # for the popularity statistics.
        contributing = set(pruning.contributions)
        for cached_serial in (outcome.result_sub | outcome.result_super) - contributing:
            if cached_serial in self._cache_store:
                self._engine.on_hit(
                    serial=cached_serial,
                    benefiting_serial=serial,
                    cs_reduction=0.0,
                    cost_reduction=0.0,
                )

    def _update_runtime(self, result: CacheQueryResult, method_candidates: int) -> None:
        self._runtime.queries_processed += 1
        self._runtime.subiso_tests += result.subiso_tests
        self._runtime.subiso_tests_alleviated += max(
            0, method_candidates - result.subiso_tests
        )
        self._runtime.containment_tests += result.containment_tests
        self._runtime.containment_memo_hits += result.containment_memo_hits
        self._runtime.decode_avoided += result.decode_avoided
        self._runtime.total_query_time_s += result.total_time_s
        self._runtime.total_maintenance_time_s += result.maintenance_time_s
        if result.cache_hit:
            self._runtime.cache_hits += 1
        if result.shortcut == "exact":
            self._runtime.exact_hits += 1
        elif result.shortcut == "empty":
            self._runtime.empty_shortcuts += 1
