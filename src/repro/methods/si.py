"""SI methods: direct subgraph-isomorphism query processing without an index.

An SI method answers a subgraph query by sub-iso testing the query against
*every* dataset graph — its candidate set is the whole dataset.  The paper
evaluates GraphCache on top of three such methods (VF2, VF2+, GraphQL); this
module wraps any registered :class:`~repro.isomorphism.base.SubgraphMatcher`
as a :class:`~repro.methods.base.Method` so GraphCache can expedite it.
"""

from __future__ import annotations


from ..graphs.dataset import GraphDataset
from ..graphs.graph import Graph
from ..graphs.signatures import could_be_subgraph
from ..isomorphism.base import SubgraphMatcher
from ..isomorphism.registry import matcher_by_name
from .base import Method

__all__ = ["SIMethod"]


class SIMethod(Method):
    """Direct SI query processing: candidate set = entire dataset.

    Parameters
    ----------
    dataset:
        The dataset queries are answered against.
    matcher:
        Either a matcher instance or a registered matcher name
        (``"vf2"``, ``"vf2plus"``, ``"graphql"``).
    prefilter:
        When ``True`` (default ``False``), trivially impossible candidates
        (fewer vertices/edges/labels than the query) are dropped before
        verification.  The paper's SI baselines do not prefilter, so the
        default keeps the full dataset as the candidate set.
    """

    supports_supergraph = True

    def __init__(
        self,
        dataset: GraphDataset,
        matcher: SubgraphMatcher | str = "vf2plus",
        prefilter: bool = False,
    ) -> None:
        if isinstance(matcher, str):
            matcher = matcher_by_name(matcher)
        super().__init__(dataset, matcher)
        self._prefilter = prefilter
        self.name = f"si-{matcher.name}"

    def candidates(self, query: Graph) -> frozenset:
        if not self._prefilter:
            return self.dataset.graph_ids
        return frozenset(
            graph.graph_id
            for graph in self.dataset
            if could_be_subgraph(query, graph)
        )

    def index_size_bytes(self) -> int:
        return 0
