"""Grapes: path-index FTV method with parallel verification (Giugno et al., 2013).

Grapes indexes the same bounded label-path features as GraphGrepSX but also
records *where* each path occurs, which lets its verifier restrict the sub-iso
search to the neighbourhood of matching locations and, importantly, run
verification across multiple threads.  The paper evaluates Grapes with 1 and
with 6 threads ("Grapes1" / "Grapes6") and alters it to stop after the first
match in each dataset graph (decision semantics) — which is the semantics all
verifiers in this library already use.

Reproduction notes
------------------
* Filtering is the same counted-path filtering as GGSX, plus a per-graph
  *location hint*: the set of dataset-graph vertices that start at least one
  maximal query path.  The hints are exposed via :meth:`candidate_regions` for
  inspection and example applications.
* Thread-level parallelism is simulated: :attr:`verify_parallelism` is carried
  on the method object and the query executor divides verification wall-clock
  time by it (see README, "Substitutions").  This preserves the *relative*
  behaviour the paper reports (Grapes6 is faster than Grapes1, hence the
  cache's relative benefit is smaller).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from ..graphs.dataset import GraphDataset
from ..graphs.graph import Graph
from ..isomorphism.base import SubgraphMatcher
from ..isomorphism.vf2 import VF2Matcher
from .base import PathFTVMethod
from .features import canonical_path_key
from .index_arena import FeatureIndexArena

__all__ = ["Grapes"]


class Grapes(PathFTVMethod):
    """Grapes: counted path filtering with location hints and parallel verify.

    Parameters
    ----------
    dataset:
        Dataset to index.
    matcher:
        Verifier (defaults to vanilla VF2, as in the original implementation).
    max_path_length:
        Maximum path length (in edges) to index; the paper uses 4.
    threads:
        Simulated verification parallelism (1 for "Grapes1", 6 for "Grapes6").
    """

    name = "grapes"

    def __init__(
        self,
        dataset: GraphDataset,
        matcher: Optional[SubgraphMatcher] = None,
        max_path_length: int = 4,
        threads: int = 1,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self._locations: Dict[int, Dict[tuple, FrozenSet[int]]] = {}
        # The original Grapes bundles vanilla VF2 as its verifier.
        super().__init__(dataset, matcher or VF2Matcher(), max_path_length)
        self.verify_parallelism = threads
        self.name = f"grapes{threads}"

    # ------------------------------------------------------------------ #
    @property
    def threads(self) -> int:
        """Simulated verification thread count."""
        return self.verify_parallelism

    def _build_index(self) -> None:
        super()._build_index()
        self._locations = {
            graph.graph_id: self._single_vertex_locations(graph) for graph in self.dataset
        }

    @staticmethod
    def _single_vertex_locations(graph: Graph) -> Dict[tuple, FrozenSet[int]]:
        """Map each single-vertex feature key to the vertices carrying it."""
        result: Dict[tuple, set] = {}
        for vertex in graph.vertices():
            key = canonical_path_key([graph.label(vertex)])
            result.setdefault(key, set()).add(vertex)
        return {key: frozenset(vertices) for key, vertices in result.items()}

    def _adopt_index(self, arena: FeatureIndexArena) -> None:
        # Location hints are not part of the sealed postings; refill lazily,
        # per dataset graph, on first candidate_regions() call — the packed
        # dataset's views answer label() CSR-natively, so this stays cheap
        # and touches only the graphs a caller actually inspects.
        super()._adopt_index(arena)
        self._locations = {}

    # ------------------------------------------------------------------ #
    def candidate_regions(self, query: Graph, graph_id: int) -> FrozenSet[int]:
        """Vertices of dataset graph ``graph_id`` where query labels occur.

        This is Grapes' location information: the union over the query's
        vertex labels of the dataset-graph vertices carrying those labels.
        An empty result proves the graph cannot contain the query.
        """
        graph_locations = self._locations.get(graph_id)
        if graph_locations is None:
            if self._findex is None or graph_id not in self.dataset.graph_ids:
                graph_locations = {}
            else:
                graph_locations = self._single_vertex_locations(self.dataset[graph_id])
                self._locations[graph_id] = graph_locations
        region: set = set()
        for label in query.distinct_labels():
            key = canonical_path_key([label])
            region.update(graph_locations.get(key, frozenset()))
        return frozenset(region)

    def index_size_bytes(self) -> int:
        location_bytes = sum(
            16 * sum(len(vertices) for vertices in per_graph.values())
            for per_graph in self._locations.values()
        )
        return super().index_size_bytes() + location_bytes
