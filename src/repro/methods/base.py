"""Method M abstraction: the pluggable query-processing back end.

GraphCache is a front end that can expedite *any* subgraph-query processing
method (§4): filter-then-verify (FTV) methods with a dataset index, or direct
subgraph-isomorphism (SI) methods that test the query against every dataset
graph.  Both kinds are modelled by :class:`Method`:

* :meth:`Method.candidates` is the filtering stage ``Mfilter`` — it returns
  the candidate set ``CS_M(g)`` of dataset-graph ids that may contain the
  query.  SI methods return the whole dataset.  :meth:`Method.filter` is the
  same stage as GraphCache calls it: ``CS_M`` plus the label-path counter a
  path-index method enumerated on the way, for the cache's query index.
* :meth:`Method.verify` is the verification stage ``Mverifier`` — a single
  sub-iso test of the query against one dataset graph.

The bundled implementations live in :mod:`repro.ftv` (GraphGrepSX, Grapes,
CT-Index) and :mod:`repro.methods.si` (VF2, VF2+, GraphQL).
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..graphs.dataset import GraphDataset
from ..graphs.graph import Graph
from ..isomorphism.base import MatchOutcome, SubgraphMatcher

__all__ = ["FilterResult", "Method", "VerificationRecord"]


class FilterResult(NamedTuple):
    """``CS_M`` of one query, plus ``extract_label_paths(query, path_length)`` when
    the filter enumerated it (read-only; the caller may keep it)."""

    candidates: frozenset
    paths: Optional[Counter] = None
    path_length: int = 0


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of verifying one query against one dataset graph."""

    graph_id: int
    matched: bool
    elapsed_s: float
    nodes_expanded: int


class Method(abc.ABC):
    """A pluggable subgraph-query processing method ("Method M").

    Parameters
    ----------
    dataset:
        The dataset the method answers queries against.
    matcher:
        The sub-iso algorithm used as ``Mverifier``.
    """

    #: Short method name used in reports ("ggsx", "ctindex", "vf2", ...).
    name: str = "abstract"

    #: Whether the method can serve supergraph queries (answers are dataset
    #: graphs *contained in* the query).  FTV indexes are built for subgraph
    #: filtering only; SI methods support both directions.
    supports_supergraph: bool = False

    #: Effective verification parallelism.  The paper evaluates "Grapes6"
    #: (6 verification threads); in this single-threaded reproduction the
    #: executor divides verification wall-clock time by this factor, which is
    #: the documented stand-in for multi-threaded verification.
    verify_parallelism: int = 1

    def __init__(self, dataset: GraphDataset, matcher: SubgraphMatcher) -> None:
        self._dataset = dataset
        self._matcher = matcher

    # ------------------------------------------------------------------ #
    @property
    def dataset(self) -> GraphDataset:
        """The dataset this method answers queries against."""
        return self._dataset

    @property
    def matcher(self) -> SubgraphMatcher:
        """The sub-iso algorithm used for verification."""
        return self._matcher

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def candidates(self, query: Graph) -> frozenset:
        """Return the candidate set ``CS_M(query)`` of dataset-graph ids."""

    def filter(self, query: Graph) -> FilterResult:
        """``CS_M(query)`` plus the label-path counter the filter enumerated.

        The default hands over none, so a method without a path index, or a
        wrapper that only overrides :meth:`candidates`, leaves the caller to
        extract its own.
        """
        return FilterResult(frozenset(self.candidates(query)))

    def verify(self, query: Graph, graph_id: int) -> VerificationRecord:
        """Run one sub-iso test of ``query`` against dataset graph ``graph_id``."""
        outcome: MatchOutcome = self._matcher.match(
            query, self._dataset[graph_id], want_embedding=False
        )
        return VerificationRecord(
            graph_id=graph_id,
            matched=outcome.matched,
            elapsed_s=outcome.elapsed_s,
            nodes_expanded=outcome.nodes_expanded,
        )

    def verify_supergraph(self, query: Graph, graph_id: int) -> VerificationRecord:
        """Sub-iso test of dataset graph ``graph_id`` *inside* ``query``.

        This is the verification direction of supergraph queries: the answer
        set contains the dataset graphs that are subgraphs of the query.
        """
        outcome: MatchOutcome = self._matcher.match(
            self._dataset[graph_id], query, want_embedding=False
        )
        return VerificationRecord(
            graph_id=graph_id,
            matched=outcome.matched,
            elapsed_s=outcome.elapsed_s,
            nodes_expanded=outcome.nodes_expanded,
        )

    def rebind_dataset(self, dataset: GraphDataset) -> None:
        """Swap in an equivalent dataset (same ids, same labelled graphs).

        The multi-process serving path uses this after a fork: workers
        attach the sealed packed dataset arena
        (:class:`~repro.core.packed_dataset.PackedGraphDataset`) and rebind
        it so verification runs against shared read-only CSR pages instead
        of a per-process ``Graph`` copy.  Any index the method built keeps
        addressing the same graph ids, so only content-identical
        replacements are valid.
        """
        self._dataset = dataset

    def index_size_bytes(self) -> int:
        """Approximate index memory footprint (0 for index-less SI methods)."""
        return 0

    def describe(self) -> str:
        """One-line human-readable description for reports."""
        return (
            f"{self.name} over {self._dataset.name} "
            f"(verifier={self._matcher.name}, parallelism={self.verify_parallelism})"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"
