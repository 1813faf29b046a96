"""QueryPipeline: the staged, concurrency-ready hit-path of GraphCache.

The paper's architecture (§4, Figure 2) is a dataflow of five stages over
shared state; this module makes that dataflow explicit instead of burying it
in one monolithic ``GraphCache.query()``:

* :class:`MfilterStage` — Method M filtering, producing ``CS_M`` (cache-state
  independent: it only reads the method's own dataset index), memoised per
  query structure — the one place in ``core/`` that calls Method M's filter;
* :class:`ProcessorStage` — the GCsub/GCsuper processors over the GCindex;
* :class:`PruneStage` — the Candidate Set Pruner (equations (1)/(2) and the
  two special cases), which may short-circuit verification entirely;
* :class:`VerifyStage` — ``Mverifier`` over the surviving candidates;
* :class:`CommitStage` — statistics recording, window admission and result
  construction, serialized so counters and maintenance stay deterministic.

Each stage implements the :class:`PipelineStage` protocol and communicates
through a typed :class:`StageContext`.  :class:`QueryPipeline` orchestrates
them in order on the calling thread.  The paper's Figure 2 draws Mfilter
and the GC processors side by side; both are pure Python here, so under the
GIL a helper thread cannot overlap them and only adds a hand-off per query —
the stages therefore run one after another (see README, "Query pipeline and
concurrency model").

Concurrency model.  ``MfilterStage`` and ``VerifyStage`` never touch cache
state, so they run without the GC lock; ``ProcessorStage`` + ``PruneStage``
read the GCindex/stores as one critical section, and ``CommitStage`` (which
can trigger window maintenance and a GCindex delta) uses the same lock — in
the same hold when there is nothing to verify, in a second one otherwise.
Because Mfilter is cache-state independent, pre-computing it concurrently for
many queries and then running the GC stages in serial order — what
:meth:`~repro.core.service.GraphCacheService.query_many` does — yields
byte-identical answer sets and work counters to a fully serial run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
)

from ..analysis.runtime import make_rlock
from ..graphs.graph import Graph
from ..isomorphism.cost import candidates_cost
from ..memo import BoundedMemo
from ..methods.base import Method
from ..methods.executor import verify_candidates
from .processors import CacheProcessors, ProcessorOutcome
from .pruner import CandidateSetPruner, PruningResult
from .query_index import QueryGraphIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache builds us)
    from .cache import CacheQueryResult, GraphCache

__all__ = [
    "STAGE_NAMES",
    "MfilterResult",
    "StageContext",
    "PipelineStage",
    "MfilterStage",
    "ProcessorStage",
    "PruneStage",
    "VerifyStage",
    "CommitStage",
    "QueryPipeline",
]

#: Canonical stage order; ``StageContext.stage_times`` is keyed by these names.
STAGE_NAMES: Tuple[str, ...] = ("mfilter", "processors", "prune", "verify", "commit")

class MfilterResult(NamedTuple):
    """What one pass through :meth:`MfilterStage.filter` produced."""

    #: Method M's candidate set ``CS_M``.
    candidates: FrozenSet[int]
    #: Seconds this call took (a memo hit costs one dictionary probe).
    elapsed_s: float


class _MemoEntry:
    """One ``query → CS_M`` memo value; ``credit`` is filled on first use."""

    __slots__ = ("candidates", "credit")

    def __init__(self, candidates: FrozenSet[int]) -> None:
        self.candidates = candidates
        #: The ``C`` credit of a shortcut that removed all of ``candidates``.
        self.credit: Optional[float] = None


@dataclass
class StageContext:
    """Mutable per-query context threaded through the pipeline stages.

    Each stage reads the fields of the stages before it and fills in its own;
    the ``stage_times`` dictionary accumulates per-stage wall-clock seconds.
    """

    query: Graph
    serial: int

    # MfilterStage (may be pre-filled by GraphCacheService's batched prefetch):
    # CS_M and the seconds observed for this request.
    method_candidates: Optional[FrozenSet[int]] = None
    filter_time_s: float = 0.0

    # ProcessorStage.
    outcome: Optional[ProcessorOutcome] = None

    # PruneStage.
    pruning: Optional[PruningResult] = None

    # VerifyStage.
    verified_answers: FrozenSet[int] = frozenset()
    verify_time_s: float = 0.0
    subiso_tests: int = 0
    nodes_expanded: int = 0

    # CommitStage.
    result: Optional["CacheQueryResult"] = None

    stage_times: Dict[str, float] = field(default_factory=dict)

    @property
    def answer_ids(self) -> FrozenSet[int]:
        """The answer set: verified answers plus the pruner's free ones.

        Both sides are frozensets, so an empty side hands the other through
        as is (a shortcut returns the cached entry's own set, uncopied).
        """
        verified, direct = self.verified_answers, self.pruning.direct_answers
        if not verified:
            return direct
        if not direct:
            return verified
        return verified | direct


class PipelineStage(Protocol):
    """One stage of the query pipeline: consume/extend a :class:`StageContext`."""

    name: str

    def run(self, ctx: StageContext) -> None:
        """Execute the stage, reading and mutating ``ctx`` in place."""
        ...  # pragma: no cover


class MfilterStage:
    """Method M filtering (``Mfilter``): produce the candidate set ``CS_M``.

    This stage only reads the method's own dataset/index, never cache state —
    which is what makes it safe to prefetch for a whole batch of queries.

    It is also the only place in ``core/`` that calls Method M's filter,
    :meth:`~repro.methods.base.Method.filter`: :meth:`filter` is the seam
    ``query()``, ``lookup()``, the batched prefetch, replicas and pool
    workers all go through, and it memoises ``query → CS_M`` on the query's
    labelled structure.  On a miss it hands the label-path counter Method M
    enumerated to the GCindex (``adopt_features``), so the processors do not
    enumerate the query's paths again.  The dataset and Method M's index are
    immutable for the life of a cache, so an entry never goes stale; should
    dynamic datasets ever land, ``memo.clear()`` is the hook a dataset
    update must call.  The memo sits on the cache side of the seam: Method M
    itself — and therefore uncached ``execute_query`` — is left untouched.
    """

    name = "mfilter"

    def __init__(self, method: Method, index: Optional[QueryGraphIndex] = None) -> None:
        self._method = method
        self._index = index
        #: ``query → _MemoEntry``, weighted by ``len(CS_M)``.  The bound is on
        #: ids, not entries: a ``CS_M`` is a few dozen ids at reproduction
        #: scale but thousands on a real dataset, and an id costs some tens
        #: of bytes of ``frozenset`` table, so this caps the memo near 10 MB.
        self.memo = BoundedMemo(262_144)

    def filter(self, query: Graph) -> MfilterResult:
        """``CS_M`` of ``query``, from the memo or from Method M's filter."""
        started = time.perf_counter()
        entry = self.memo.get(query)
        if entry is None:
            filtered = self._method.filter(query)
            candidates = frozenset(filtered.candidates)
            entry = _MemoEntry(candidates)
            if filtered.paths is not None and self._index is not None:
                self._index.adopt_features(query, filtered.paths, filtered.path_length)
            entry = self.memo.put(query, entry, len(candidates))
        return MfilterResult(entry.candidates, time.perf_counter() - started)

    def shortcut_credit(self, query: Graph, candidates: FrozenSet[int]) -> float:
        """The cost credit ``C`` of a shortcut that removed all of ``candidates``.

        A shortcut (exact hit or empty-answer proof) removes ``CS_M`` whole,
        so its credit depends on the structure alone: it is priced once and
        kept in the memo entry beside ``CS_M``.  Candidates that are not the
        memo's own set (the memo was cleared since this request filtered)
        are priced afresh, over the same set in the same order.
        """
        entry = self.memo.get(query)
        if entry is None or entry.candidates is not candidates:
            return candidates_cost(query, candidates, self._method.dataset)
        if entry.credit is None:
            entry.credit = candidates_cost(query, candidates, self._method.dataset)
        return entry.credit

    def run(self, ctx: StageContext) -> None:
        if ctx.method_candidates is None:  # else prefetched by the service facade
            ctx.method_candidates, ctx.filter_time_s = self.filter(ctx.query)


class ProcessorStage:
    """GCsub/GCsuper processors: containment relations against the GCindex."""

    name = "processors"

    def __init__(self, processors: CacheProcessors) -> None:
        self._processors = processors

    @property
    def processors(self) -> CacheProcessors:
        """The underlying processor pair (exposed for inspection and tests)."""
        return self._processors

    def run(self, ctx: StageContext) -> None:
        ctx.outcome = self._processors.process(ctx.query)


class PruneStage:
    """Candidate Set Pruner: equations (1)/(2) plus the two special cases."""

    name = "prune"

    def __init__(self, pruner: CandidateSetPruner) -> None:
        self._pruner = pruner

    def run(self, ctx: StageContext) -> None:
        ctx.pruning = self._pruner.prune(frozenset(ctx.method_candidates), ctx.outcome)


class VerifyStage:
    """``Mverifier`` over the surviving candidates (not entered when none survive)."""

    name = "verify"

    def __init__(self, method: Method, query_mode: str = "subgraph") -> None:
        self._method = method
        self._query_mode = query_mode

    def run(self, ctx: StageContext) -> None:
        answers, raw_time, tests, nodes, _ = verify_candidates(
            self._method,
            ctx.query,
            ctx.pruning.final_candidates,
            query_mode=self._query_mode,
        )
        ctx.verified_answers = answers
        ctx.verify_time_s = raw_time / max(1, self._method.verify_parallelism)
        ctx.subiso_tests = tests
        ctx.nodes_expanded = nodes


class CommitStage:
    """Statistics, window admission and result construction (serialized).

    The commit is the only stage that *mutates* shared cache state (window,
    stores, statistics, and — via maintenance — the GCindex), so the pipeline
    always runs it under the GC lock; the heavy lifting lives in
    :meth:`GraphCache._commit` next to the statistics helpers it uses.
    """

    name = "commit"

    def __init__(self, cache: "GraphCache") -> None:
        self._cache = cache

    def run(self, ctx: StageContext) -> None:
        self._cache._commit(ctx)


class QueryPipeline:
    """Orchestrates the five stages for one query at a time.

    Parameters
    ----------
    mfilter, processors, prune, verify, commit:
        The concrete stages, in dataflow order.
    gc_lock:
        Re-entrant lock serializing every access to shared cache state
        (processors + prune, and the commit, in one hold when nothing is left
        to verify, else in two).  Callers hammering one cache from many
        threads are safe; counters are deterministic whenever the GC stages
        execute in serial order.
    """

    def __init__(
        self,
        mfilter: MfilterStage,
        processors: ProcessorStage,
        prune: PruneStage,
        verify: VerifyStage,
        commit: CommitStage,
        gc_lock: Optional[threading.RLock] = None,
    ) -> None:
        self._mfilter = mfilter
        self._processors = processors
        self._prune = prune
        self._verify = verify
        self._commit = commit
        self._gc_lock = gc_lock if gc_lock is not None else make_rlock("gc")

    # ------------------------------------------------------------------ #
    @property
    def stages(self) -> Tuple[PipelineStage, ...]:
        """The stages in dataflow order."""
        return (self._mfilter, self._processors, self._prune, self._verify, self._commit)

    @property
    def gc_lock(self) -> threading.RLock:
        """The lock serializing access to shared cache state."""
        return self._gc_lock

    # ------------------------------------------------------------------ #
    def execute(self, ctx: StageContext) -> "CacheQueryResult":
        """Run every stage for ``ctx`` and return the committed result."""
        self._run(ctx, self._commit)
        return ctx.result

    def execute_readonly(self, ctx: StageContext) -> None:
        """Run every stage but the commit (``GraphCache.lookup``: no cache
        state is mutated, so replicas can serve it); ``ctx.answer_ids`` is
        then final."""
        self._run(ctx, None)

    def _run(self, ctx: StageContext, commit: Optional[CommitStage]) -> None:
        """The one stage sequence.  Processors, prune and — when nothing is
        left to verify (exact hit, empty shortcut, fully pruned ``CS_M``) —
        the commit share one GC-lock hold; a verifying request releases it
        around ``VerifyStage`` and takes it again to commit.

        One clock reading per stage boundary times the stages.  A prefetched
        Mfilter reports the larger of the worker-side filter time and the
        time spent here; the processors' time starts before the GC lock is
        taken; verification not entered reports 0.0.
        """
        clock = time.perf_counter
        times = ctx.stage_times
        started = clock()
        self._mfilter.run(ctx)
        filtered = clock()
        with self._gc_lock:
            self._processors.run(ctx)
            processed = clock()
            self._prune.run(ctx)
            pruned = clock()
            times["mfilter"] = max(ctx.filter_time_s, filtered - started)
            times["processors"] = processed - filtered
            times["prune"] = pruned - processed
            if not ctx.pruning.final_candidates:
                times["verify"] = 0.0
                if commit is not None:
                    commit.run(ctx)  # CommitStage times itself
                return
        self._verify.run(ctx)
        times["verify"] = clock() - pruned
        if commit is not None:
            with self._gc_lock:
                commit.run(ctx)
