"""An FTV method for *supergraph* queries.

GraphCache serves supergraph queries ("which dataset graphs are contained in
my query?") as well as subgraph queries (§5.1).  The subgraph FTV indexes
bundled with the library cannot act as Method M for that query type — their
filtering direction is wrong — so this module provides a feature-containment
index in the spirit of the supergraph-query literature the paper cites
(cIndex / IGQuery / the scalable supergraph search of Lyu et al.):

* at build time every dataset graph is decomposed into bounded label paths
  (its features) and the counters are stored;
* a dataset graph ``G`` can only be contained in a query ``g`` if every
  feature of ``G`` occurs in ``g`` at least as often, so filtering keeps
  exactly the graphs whose stored counter is dominated by the query's counter.

The method is sound for supergraph semantics: filtering never discards a
graph that is actually contained in the query.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from ..graphs.dataset import GraphDataset
from ..graphs.graph import Graph
from ..isomorphism.base import SubgraphMatcher
from ..methods.base import FilterResult
from .base import FTVMethod
from .features import dataset_path_features, extract_label_paths

__all__ = ["SupergraphFeatureIndex"]


class SupergraphFeatureIndex(FTVMethod):
    """Feature-containment FTV method for supergraph queries.

    Parameters
    ----------
    dataset:
        Dataset to index.
    matcher:
        Verifier (defaults to VF2+); verification tests each candidate dataset
        graph *inside* the query.
    max_path_length:
        Maximum label-path length (in edges) used as features.
    """

    name = "supergraph-ftv"
    supports_supergraph = True

    def __init__(
        self,
        dataset: GraphDataset,
        matcher: Optional[SubgraphMatcher] = None,
        max_path_length: int = 3,
    ) -> None:
        self._max_path_length = max_path_length
        self._graph_features: Dict[int, Counter] = {}
        super().__init__(dataset, matcher)

    # ------------------------------------------------------------------ #
    @property
    def max_path_length(self) -> int:
        """Maximum indexed label-path length in edges."""
        return self._max_path_length

    def _build_index(self) -> None:
        self._graph_features = {
            record.graph_id: paths
            for record, paths in dataset_path_features(self.dataset, self._max_path_length)
        }

    def _filter(self, query: Graph) -> frozenset:
        return self.filter(query).candidates

    def filter(self, query: Graph) -> FilterResult:
        """``CS_M`` plus the query's path counter, which the filter enumerated."""
        query_features = extract_label_paths(query, self._max_path_length)
        survivors = []
        for graph_id, features in self._graph_features.items():
            graph = self.dataset[graph_id]
            if graph.order > query.order or graph.size > query.size:
                continue
            if all(
                query_features.get(feature, 0) >= count
                for feature, count in features.items()
            ):
                survivors.append(graph_id)
        return FilterResult(frozenset(survivors), query_features, self._max_path_length)

    def index_size_bytes(self) -> int:
        return sum(
            48 + 24 * len(counter) for counter in self._graph_features.values()
        )
