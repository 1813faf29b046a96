"""GCsub / GCsuper processors: discovering query–query containment relations.

Given a new query ``g`` and the GCindex over cached queries, the two
processors produce (§5.1):

* ``Resultsub(g)`` — cached queries ``g'`` with ``g ⊆ g'`` (GCsub processor),
* ``Resultsuper(g)`` — cached queries ``g''`` with ``g'' ⊆ g`` (GCsuper
  processor),

plus detection of the two special cases that yield the greatest gains:

* an **exact (isomorphic) hit**: a cached connected query with the same number
  of vertices and edges that contains or is contained in ``g``;
* an **empty-answer shortcut**: in subgraph mode, some ``g'' ⊆ g`` with an
  empty answer set proves ``g``'s answer set is empty (in supergraph mode the
  same holds for some ``g' ⊇ g``).

The processors only *confirm* candidates produced by the GCindex filters; all
confirmations are real sub-iso tests between query graphs (small), executed
with the configured matcher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..analysis.runtime import make_lock, make_rlock
from ..graphs.graph import Graph
from ..isomorphism.base import SubgraphMatcher
from ..isomorphism.vf2_plus import VF2PlusMatcher
from .query_index import QueryGraphIndex

__all__ = ["ProcessorOutcome", "CacheProcessors"]

# Fallback matcher for processors constructed without one (standalone use in
# tests/tools).  A single module-level instance is shared so its plan memo is
# not duplicated per processor pair; GraphCache itself always resolves the
# configured matcher and passes it in explicitly.
_fallback_matcher: Optional[SubgraphMatcher] = None
_fallback_matcher_lock = make_lock("matcher.fallback")


def _shared_fallback_matcher() -> SubgraphMatcher:
    global _fallback_matcher
    with _fallback_matcher_lock:
        if _fallback_matcher is None:
            _fallback_matcher = VF2PlusMatcher()
        return _fallback_matcher


@dataclass(frozen=True)
class ProcessorOutcome:
    """Everything the two GC processors learned about a new query.

    Attributes
    ----------
    result_sub:
        Serial numbers of cached queries of which the new query is a subgraph
        (``Resultsub``).
    result_super:
        Serial numbers of cached queries of which the new query is a
        supergraph (``Resultsuper``).
    exact_match_serial:
        Serial of an isomorphic cached query, if one exists.
    elapsed_s:
        Wall-clock time spent in GC filtering (index lookups plus the
        query-vs-query confirmation sub-iso tests).
    containment_tests:
        Number of query-vs-query sub-iso tests actually executed (memoised
        verdicts do not count).
    memo_hits:
        Number of candidate confirmations answered from the containment memo
        without running a sub-iso test.
    """

    result_sub: FrozenSet[int]
    result_super: FrozenSet[int]
    exact_match_serial: Optional[int]
    elapsed_s: float
    containment_tests: int
    memo_hits: int = 0

    @property
    def hit(self) -> bool:
        """``True`` if any containment relationship was found."""
        return bool(self.result_sub or self.result_super)


class CacheProcessors:
    """The GCsub and GCsuper processors sharing one GCindex and one matcher.

    Query-vs-query containment verdicts are memoised across the processor's
    lifetime: the verdict of ``g1 ⊆ g2`` depends only on the two labelled
    structures, and skewed (e.g. Zipfian) workloads repeat query structures
    heavily, so re-confirming the same pair against the same cached query is
    pure waste.  The memo is keyed by the ``(pattern, target)`` graph pair —
    :class:`~repro.graphs.graph.Graph` hashes/compares on its exact labelled
    structure — and bounded by :data:`MEMO_LIMIT`.
    """

    #: Maximum number of memoised verdicts before the memo is reset.  Workload
    #: runs at reproduction scale produce a few thousand distinct pairs, so
    #: the bound exists purely as a safety valve for long-lived services.
    MEMO_LIMIT = 200_000

    def __init__(
        self,
        index: QueryGraphIndex,
        matcher: Optional[SubgraphMatcher] = None,
    ) -> None:
        self._index = index
        self._matcher = matcher if matcher is not None else _shared_fallback_matcher()
        self._memo: Dict[Tuple[Graph, Graph], bool] = {}
        self._memo_hits = 0
        self._memo_lock = make_rlock("processors.memo")

    @property
    def index(self) -> QueryGraphIndex:
        """The GCindex this processor pair reads."""
        return self._index

    @property
    def matcher(self) -> SubgraphMatcher:
        """Matcher used for query-vs-query containment confirmation."""
        return self._matcher

    @property
    def memo_hits(self) -> int:
        """Lifetime count of containment verdicts answered from the memo."""
        return self._memo_hits

    @property
    def memo_size(self) -> int:
        """Number of memoised query-vs-query verdicts currently held."""
        return len(self._memo)

    # ------------------------------------------------------------------ #
    def _contains(self, pattern: Graph, target: Graph) -> Tuple[bool, bool]:
        """Memoised ``pattern ⊆ target`` verdict.

        Returns ``(verdict, from_memo)``; only ``from_memo == False`` calls
        ran an actual sub-iso test.
        """
        key = (pattern, target)
        with self._memo_lock:
            verdict = self._memo.get(key)
            if verdict is not None:
                self._memo_hits += 1
                return verdict, True
        verdict = self._matcher.is_subgraph(pattern, target)
        with self._memo_lock:
            if len(self._memo) >= self.MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = verdict
        return verdict, False

    # ------------------------------------------------------------------ #
    def process(self, query: Graph) -> ProcessorOutcome:
        """Run both processors for ``query`` against the current GCindex.

        The whole pass pins **one** published index snapshot
        (:meth:`~repro.core.query_index.QueryGraphIndex.view`), so a
        maintenance apply publishing mid-query can never make a candidate's
        graph disappear between filtering and confirmation — lookups always
        read a complete, point-in-time view of the cached queries.
        """
        with self._index.view() as snapshot:
            return self._process_on(snapshot, query)

    def _process_on(self, snapshot, query: Graph) -> ProcessorOutcome:
        started = time.perf_counter()
        # An isomorphic cached query yields the greatest possible gain and
        # makes every other containment check unnecessary (§5.1, special
        # case 1).  A repeat of a cached structure is one table probe.
        serial = snapshot.exact_serial(query)
        if serial is not None:
            hit = frozenset({serial})
            return ProcessorOutcome(hit, hit, serial, time.perf_counter() - started, 0, 0)
        tests = 0
        memo_hits = 0

        features = self._index.query_features(query)
        sub_candidates = snapshot.candidate_supergraphs(query, features)

        # Isomorphic but differently numbered: same vertex and edge counts
        # plus containment in one direction.
        for serial in sorted(sub_candidates):
            if not self._same_shape(snapshot, query, serial):
                continue
            cached_query = snapshot.graph(serial)
            verdict, from_memo = self._contains(query, cached_query)
            tests += not from_memo
            memo_hits += from_memo
            if verdict:
                elapsed = time.perf_counter() - started
                return ProcessorOutcome(
                    result_sub=frozenset({serial}),
                    result_super=frozenset({serial}),
                    exact_match_serial=serial,
                    elapsed_s=elapsed,
                    containment_tests=tests,
                    memo_hits=memo_hits,
                )

        # GCsub processor: cached queries that may contain the new query.
        result_sub: set = set()
        for serial in sub_candidates:
            if self._same_shape(snapshot, query, serial):
                continue  # already checked in the exact-match fast path
            cached_query = snapshot.graph(serial)
            verdict, from_memo = self._contains(query, cached_query)
            tests += not from_memo
            memo_hits += from_memo
            if verdict:
                result_sub.add(serial)

        # GCsuper processor: cached queries that may be contained in the query.
        result_super: set = set()
        for serial in snapshot.candidate_subgraphs(query, features):
            if serial in result_sub and self._same_shape(snapshot, query, serial):
                # Already confirmed in the other direction with equal size:
                # containment plus equal vertex/edge counts implies isomorphism,
                # no need for a second sub-iso test.
                result_super.add(serial)
                continue
            cached_query = snapshot.graph(serial)
            verdict, from_memo = self._contains(cached_query, query)
            tests += not from_memo
            memo_hits += from_memo
            if verdict:
                result_super.add(serial)

        exact = self._find_exact_match(snapshot, query, result_sub, result_super)
        elapsed = time.perf_counter() - started
        return ProcessorOutcome(
            result_sub=frozenset(result_sub),
            result_super=frozenset(result_super),
            exact_match_serial=exact,
            elapsed_s=elapsed,
            containment_tests=tests,
            memo_hits=memo_hits,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _same_shape(snapshot, query: Graph, serial: int) -> bool:
        cached_query = snapshot.graph(serial)
        return cached_query.order == query.order and cached_query.size == query.size

    def _find_exact_match(
        self,
        snapshot,
        query: Graph,
        result_sub: FrozenSet[int],
        result_super: FrozenSet[int],
    ) -> Optional[int]:
        """Detect an isomorphic cached query (first special case of §5.1).

        For connected query graphs, a containment relation in either direction
        together with equal vertex and edge counts implies isomorphism.
        """
        for serial in sorted(result_sub | result_super):
            if self._same_shape(snapshot, query, serial):
                return serial
        return None
