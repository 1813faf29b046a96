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
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set,
    Tuple,
)

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
from .processors import CacheProcessors
from .pruner import CandidateSetPruner
from .query_index import QueryGraphIndex
from .statistics import CachedQueryStats, StatisticsManager
from .stores import (
    CacheEntry,
    CacheEntryCodec,
    CacheStore,
    WindowEntry,
    WindowEntryCodec,
    WindowStore,
    expensiveness,
)

if TYPE_CHECKING:  # pragma: no cover - type-only (replication builds on this module)
    from .replication import ReplicationFrame

__all__ = ["GraphCache", "CacheQueryResult", "CacheRuntimeStatistics"]


class CacheQueryResult(NamedTuple):
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
        (:data:`~repro.core.pipeline.STAGE_NAMES`); every stage has a key,
        and a stage with nothing to do (``verify`` after a shortcut or a
        fully pruned candidate set) reports 0.0.
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
    containment_tests: int
    containment_memo_hits: int
    stage_times: Dict[str, float]
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
    warm_start:
        Start from what a durable backend already holds (a reopened mmap
        cache over its sealed arena: the stored entries and window, with
        cold statistics rows).  ``False`` for a cache whose state record is
        restored next (:mod:`repro.core.persistence`), so it starts once.

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
        warm_start: bool = True,
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
                self._config.admission_kind, enabled=self._config.admission_control
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
        if warm_start:  # what a durable backend holds, with cold statistics rows
            entries, window_entries = list(self._cache_store), self._window_store.entries()
            if entries or window_entries:
                cold = [CachedQueryStats(entry.serial) for entry in entries]
                self._start(entries, cold, window_entries)

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

    def execute_prefiltered(self, query: Graph, filtered: MfilterResult) -> CacheQueryResult:
        """Answer a query whose Mfilter stage was already computed elsewhere.

        This is the entry point of the batched service facade: candidate
        sets prefetched concurrently through :meth:`prefilter` feed the
        remaining (serially executed) GC stages with answers and work
        counters byte-identical to :meth:`query`.
        """
        ctx = self._new_context(query)
        ctx.method_candidates, ctx.filter_time_s = filtered
        return self._pipeline.execute(ctx)

    def _new_context(self, query: Graph) -> StageContext:
        with self._serial_lock:
            self._serial += 1
            serial = self._serial
        return StageContext(query=query, serial=serial)

    def _commit(self, ctx: StageContext) -> None:
        """CommitStage body: statistics, window admission, the result record
        and the runtime counters.

        Runs under the pipeline's GC lock (one commit at a time), so window
        maintenance, replacement decisions and counters stay deterministic.
        """
        started = time.perf_counter()
        outcome, pruning = ctx.outcome, ctx.pruning
        answer_ids = ctx.answer_ids

        # Statistics monitoring: credit contributing cached queries.
        credited = self._record_contributions(ctx)

        # Window admission: an exact hit credited above to a still-cached
        # entry builds no window entry (the cache never holds two isomorphic
        # queries); it only counts, and its expensiveness joins the round's
        # samples.  Any other query joins the window with its expensiveness:
        # the verifier's search nodes over the query's GCindex features (the
        # processors' memo holds them whenever anything was verified).
        nodes = ctx.nodes_expanded
        features = len(self._index.query_features(ctx.query).counts) if nodes else 0
        score = expensiveness(nodes, features)
        if credited:
            report = self._window_manager.add_hit(ctx.serial, score)
        else:
            report = self._window_manager.add_query(
                WindowEntry(ctx.serial, ctx.query, answer_ids, score)
            )
        maintenance_s = 0.0 if report is None else report.elapsed_s

        shortcut, method_candidates = pruning.shortcut, len(ctx.method_candidates)
        decode_avoided = 1 if isinstance(ctx.query, PackedGraphView) else 0
        ctx.result = result = CacheQueryResult(
            ctx.serial, answer_ids, method_candidates, len(pruning.final_candidates),
            len(pruning.direct_answers), ctx.subiso_tests, ctx.filter_time_s,
            outcome.elapsed_s, ctx.verify_time_s, maintenance_s, shortcut,
            len(outcome.result_sub), len(outcome.result_super), outcome.containment_tests,
            outcome.memo_hits, ctx.stage_times, None if shortcut is None else PruneStage.name,
            decode_avoided,
        )
        runtime = self._runtime
        runtime.queries_processed += 1
        runtime.subiso_tests += ctx.subiso_tests
        runtime.subiso_tests_alleviated += max(0, method_candidates - ctx.subiso_tests)
        runtime.containment_tests += outcome.containment_tests
        runtime.containment_memo_hits += outcome.memo_hits
        runtime.decode_avoided += decode_avoided
        runtime.total_query_time_s += result.total_time_s
        runtime.total_maintenance_time_s += maintenance_s
        if result.cache_hit:
            runtime.cache_hits += 1
        if shortcut == "exact":
            runtime.exact_hits += 1
        elif shortcut == "empty":
            runtime.empty_shortcuts += 1
        # The record holds this dict, so the commit's time lands in it too.
        ctx.stage_times["commit"] = time.perf_counter() - started

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
        self, attach: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> Dict[str, Any]:
        """The shard's **state record** (the save twin of :meth:`restore`):
        the fold of its journaled rounds, in the journal's own format.

        ``entries`` (each cached entry's :class:`CacheEntryCodec` record with
        its statistics row), ``window`` (:class:`WindowEntryCodec` records; a
        window query's statistics follow from its entry), ``next_serial``,
        ``maintenance`` (the engine's state — admission calibration, adaptive
        history, the hits buffered for the next frame — plus the window's
        request count and calibration samples, so a cache restored
        mid-window fires and calibrates its next round exactly), the GCindex
        ``index_version`` and the ``journal_round`` watermark.

        Pending background rounds are drained first, and drain and lock
        acquisition loop until the scheduler is idle *while the GC lock is
        held* (rounds are submitted only under it), so the record never holds
        a half-executed plan.  ``attach(record)`` runs under the same hold,
        before any later round can journal: a late follower ships the record
        and subscribes to the journal there.
        """
        while True:
            self.drain_maintenance()
            with self._gc_lock:
                if not self._scheduler.idle():
                    continue  # a round slipped in before we took the lock
                entries = []
                for entry in self._cache_store:
                    record = CacheEntryCodec.encode(entry)
                    record["statistics"] = asdict(self._statistics.snapshot(entry.serial))
                    entries.append(record)
                state = {
                    "entries": entries,
                    "window": list(map(WindowEntryCodec.encode, self._window_store.entries())),
                    "next_serial": self.current_serial,
                    "maintenance": {
                        **self._engine.state_record(),
                        **self._window_manager.state_record(),
                    },
                    "index_version": self._index.version,
                    "journal_round": self.plan_journal.last_round,
                }
                if attach is not None:
                    attach(state)
                return state

    def restore(
        self, state: Dict[str, Any], frames: Iterable["ReplicationFrame"] = ()
    ) -> None:
        """Install a state record, then replay the frames past its watermark.

        The one entry behind :func:`~repro.core.persistence.load_cache`,
        :func:`~repro.core.persistence.recover_cache` and a late follower.
        The record's entries replace the cache contents and their statistics
        rows (re-keying the victim selection); the GCindex is rebuilt over
        them at the record's version; the window, the maintenance state and
        the serial counter (at least every restored serial) are adopted.
        Every answer id must be a graph id of the method's dataset.  Then
        ``frames``, the journaled rounds past ``journal_round``, go through
        :meth:`replay_frames`.
        """
        size = len(self._method.dataset)
        entries = [CacheEntryCodec.decode(record, size) for record in state["entries"]]
        stats = [CachedQueryStats(**record["statistics"]) for record in state["entries"]]
        if any(row.serial != entry.serial for row, entry in zip(stats, entries)):
            raise ValueError("a statistics row names another entry's serial")
        window_entries = sorted(
            (WindowEntryCodec.decode(record, size) for record in state["window"]),
            key=lambda entry: entry.serial,
        )
        maintenance = state["maintenance"]
        next_serial, index_version = int(state["next_serial"]), int(state["index_version"])
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
                self._window_store.drain()  # discard pre-existing window contents
                for entry in window_entries:
                    self._window_store.add(entry)
                self._start(entries, stats, window_entries, maintenance, next_serial, index_version)
                break
        self.replay_frames(frames)

    def _start(self, entries: List[CacheEntry], stats: Iterable[CachedQueryStats],
               window_entries: List[WindowEntry], maintenance: Optional[Dict[str, Any]] = None,
               next_serial: int = 0, index_version: Optional[int] = None) -> None:
        """Start from the stores' contents, ``entries`` and ``window_entries``:
        the GCindex over the entries (at ``index_version``), their statistics
        rows, the window and engine state, and a serial counter at least
        every stored serial.  The one start step of :meth:`restore` and of
        the warm start over a durable backend."""
        self._index.rebuild(((entry.serial, entry.query) for entry in entries), index_version)
        self._window_manager.resync(maintenance)
        self._statistics.rebuild(stats)
        self._engine.restore_state(maintenance)
        serials = [entry.serial for entry in (*entries, *window_entries)]
        with self._serial_lock:
            self._serial = max([next_serial, *serials])

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
        is never re-journaled.  The hits a restored mid-window state holds
        pending were counted already; they prefix the next frame's hits,
        which the first frame therefore skips."""
        started = time.perf_counter()
        with self._gc_lock:
            waiting = {entry.serial for entry in self._window_store}
            rounds = size_bytes = 0
            top = self._serial

            def observed():
                nonlocal rounds, size_bytes, top
                for frame in frames:
                    if not rounds:
                        skip = len(self._engine.take_pending_hits())
                        if skip:
                            frame = frame._replace(hits=frame.hits[skip:])
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
    def _record_contributions(self, ctx: StageContext) -> bool:
        """Feed the Statistics Manager with each cached query's contribution;
        return whether the request is an exact hit credited to a cached entry."""
        query, serial, outcome, pruning = ctx.query, ctx.serial, ctx.outcome, ctx.pruning
        special = pruning.shortcut is not None
        credited = False
        on_hit = self._engine.on_hit  # updates the entry's one statistics row
        for cached_serial, removed_ids in pruning.contributions.items():
            if cached_serial not in self._cache_store:
                continue
            if special:
                # A shortcut removed all of CS_M: its credit is kept beside it.
                cost_saving = self._mfilter.shortcut_credit(query, removed_ids)
            else:
                cost_saving = candidates_cost(query, removed_ids, self._method.dataset)
            on_hit(serial=cached_serial, benefiting_serial=serial,
                   cs_reduction=float(len(removed_ids)), cost_reduction=cost_saving,
                   special=special)
            credited = pruning.shortcut == "exact"  # its one contribution is the hit
        matched = outcome.result_sub
        if credited and len(matched) == 1 and matched == outcome.result_super:
            return True  # the hit was the only match
        # Cached queries that matched but removed nothing still count as hits
        # for the popularity statistics.
        for cached_serial in (matched | outcome.result_super) - set(pruning.contributions):
            if cached_serial in self._cache_store:
                on_hit(serial=cached_serial, benefiting_serial=serial,
                       cs_reduction=0.0, cost_reduction=0.0)
        return credited
