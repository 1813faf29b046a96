"""Common interface for subgraph-isomorphism (SI) algorithms.

GraphCache treats the verifier as a pluggable component ("Mverifier" in the
paper's architecture): any algorithm able to decide non-induced subgraph
isomorphism between two labelled graphs can be used.  This module defines the
abstract interface shared by the bundled implementations (VF2, VF2+,
GraphQL-style) plus the result record returned by a decision call.

All matchers answer the *decision* problem used by subgraph queries: "does the
target contain at least one subgraph isomorphic to the pattern?"  They can
also return one witness embedding, which the tests use for cross-validation.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..exceptions import MatchTimeout
from ..graphs.graph import Graph
from ..graphs.signatures import could_be_subgraph

__all__ = ["SubgraphMatcher", "MatchOutcome", "SearchBudget"]


@dataclass
class SearchBudget:
    """Optional resource budget for a single sub-iso search.

    Attributes
    ----------
    time_limit_s:
        Wall-clock budget; exceeded searches raise :class:`MatchTimeout`.
    node_limit:
        Maximum number of search-tree nodes to expand (``None`` = unlimited).
    """

    time_limit_s: Optional[float] = None
    node_limit: Optional[int] = None
    _started_at: float = field(default=0.0, repr=False)
    _nodes: int = field(default=0, repr=False)

    def start(self) -> None:
        """Reset counters at the beginning of a search."""
        self._started_at = time.perf_counter()
        self._nodes = 0

    def tick(self) -> None:
        """Account for one expanded search node; raise if the budget is blown."""
        self._nodes += 1
        self.check(self._nodes)

    def check(self, nodes: int) -> None:
        """Raise if expanding the ``nodes``-th search node blows the budget."""
        if self.node_limit is not None and nodes > self.node_limit:
            raise MatchTimeout(self.time_limit_s or 0.0, node_limit=self.node_limit)
        if self.time_limit_s is not None and (nodes & 0x3F) == 0:
            if time.perf_counter() - self._started_at > self.time_limit_s:
                raise MatchTimeout(self.time_limit_s)

    @property
    def unlimited(self) -> bool:
        """``True`` when no limit is set, so a search may count nodes locally."""
        return self.node_limit is None and self.time_limit_s is None

    @property
    def nodes_expanded(self) -> int:
        """Number of search-tree nodes expanded so far (searches that count in
        a local instead of ticking assign it back when they stop)."""
        return self._nodes

    @nodes_expanded.setter
    def nodes_expanded(self, nodes: int) -> None:
        self._nodes = nodes


@dataclass(frozen=True)
class MatchOutcome:
    """Result of one sub-iso decision call.

    Attributes
    ----------
    matched:
        ``True`` iff the pattern is (non-induced) subgraph-isomorphic to the target.
    embedding:
        One witness mapping ``pattern vertex -> target vertex`` when matched
        and the caller requested it, else ``None``.
    nodes_expanded:
        Search effort, used by benchmarks as a hardware-independent cost proxy.
    elapsed_s:
        Wall-clock time of the call.
    """

    matched: bool
    embedding: Optional[Dict[int, int]]
    nodes_expanded: int
    elapsed_s: float


class SubgraphMatcher(abc.ABC):
    """Abstract base class for non-induced subgraph-isomorphism algorithms."""

    #: Short algorithm name used in reports and registries.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # The single method subclasses must implement.
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _search(
        self,
        pattern: Graph,
        target: Graph,
        budget: SearchBudget,
        want_embedding: bool,
    ) -> Optional[Dict[int, int]]:
        """Return an embedding if one exists, else ``None``.

        Implementations must call ``budget.tick()`` once per search-tree node.
        When ``want_embedding`` is ``False`` they may return any non-``None``
        sentinel mapping upon success.
        """

    # ------------------------------------------------------------------ #
    # Public API shared by all matchers.
    # ------------------------------------------------------------------ #
    def match(
        self,
        pattern: Graph,
        target: Graph,
        budget: Optional[SearchBudget] = None,
        want_embedding: bool = True,
    ) -> MatchOutcome:
        """Decide whether ``pattern ⊆ target`` and report search effort."""
        budget = budget or SearchBudget()
        budget.start()
        started = time.perf_counter()
        if pattern.order == 0:
            # The empty pattern is trivially contained in every graph.
            return MatchOutcome(True, {} if want_embedding else None, 0, 0.0)
        if not could_be_subgraph(pattern, target):
            elapsed = time.perf_counter() - started
            return MatchOutcome(False, None, 0, elapsed)
        embedding = self._search(pattern, target, budget, want_embedding)
        elapsed = time.perf_counter() - started
        if embedding is None:
            return MatchOutcome(False, None, budget.nodes_expanded, elapsed)
        return MatchOutcome(
            True,
            embedding if want_embedding else None,
            budget.nodes_expanded,
            elapsed,
        )

    def is_subgraph(
        self,
        pattern: Graph,
        target: Graph,
        budget: Optional[SearchBudget] = None,
    ) -> bool:
        """Return ``True`` iff ``pattern`` is subgraph-isomorphic to ``target``."""
        return self.match(pattern, target, budget=budget, want_embedding=False).matched

    def find_embedding(
        self,
        pattern: Graph,
        target: Graph,
        budget: Optional[SearchBudget] = None,
    ) -> Optional[Dict[int, int]]:
        """Return one witness embedding, or ``None`` if no embedding exists."""
        return self.match(pattern, target, budget=budget, want_embedding=True).embedding

    # ------------------------------------------------------------------ #
    @staticmethod
    def verify_embedding(pattern: Graph, target: Graph, embedding: Dict[int, int]) -> bool:
        """Check that ``embedding`` is a valid non-induced label-preserving injection."""
        if len(embedding) != pattern.order:
            return False
        if len(set(embedding.values())) != len(embedding):
            return False
        for p_vertex, t_vertex in embedding.items():
            if not target.has_vertex(t_vertex):
                return False
            if pattern.label(p_vertex) != target.label(t_vertex):
                return False
        for u, v in pattern.edges:
            if not target.has_edge(embedding[u], embedding[v]):
                return False
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
