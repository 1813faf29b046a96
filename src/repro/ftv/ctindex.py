"""CT-Index: fingerprint-based FTV method combining trees and cycles (Klein et al., 2011).

CT-Index summarises every graph by a fixed-width hash fingerprint over two
feature families — bounded-size *trees* and bounded-size *cycles* — and
filters with a bitwise subset test.  Compared with the path-index methods it
trades some filtering precision (hash collisions, no occurrence counts) for a
far smaller index, which is why the paper singles it out as having "by far the
smallest index" among the FTV methods it evaluates.

In this reproduction the tree features are the bounded label paths (the
dominant tree shape in sparse molecule graphs); cycle features are label
cycles up to ``max_cycle_size`` vertices.  Defaults follow the paper's
configuration scaled to the stand-in datasets: the paper indexes trees up to
size 6 and cycles up to size 8 in 4,096-bit fingerprints.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, Optional

from ..exceptions import CacheError
from ..graphs.dataset import GraphDataset
from ..graphs.graph import Graph
from ..graphs.packed import PackedGraph
from ..isomorphism.base import SubgraphMatcher
from .base import FTVMethod, PathLike
from .features import cycle_features, dataset_path_features, extract_label_paths
from .fingerprints import Fingerprint
from .index_arena import FeatureIndexArena, dataset_content_hash

__all__ = ["CTIndex"]


class CTIndex(FTVMethod):
    """CT-Index: hashed tree+cycle fingerprints with subset-test filtering.

    Parameters
    ----------
    dataset:
        Dataset to index.
    matcher:
        Verifier (defaults to VF2+; the paper pairs CT-Index with VF2+).
    max_tree_size:
        Maximum tree (path) feature size in edges.
    max_cycle_size:
        Maximum cycle feature size in vertices.
    fingerprint_bits:
        Width of the per-graph fingerprint bitmap.
    """

    name = "ctindex"

    def __init__(
        self,
        dataset: GraphDataset,
        matcher: Optional[SubgraphMatcher] = None,
        max_tree_size: int = 4,
        max_cycle_size: int = 6,
        fingerprint_bits: int = 4096,
    ) -> None:
        self._max_tree_size = max_tree_size
        self._max_cycle_size = max_cycle_size
        self._fingerprint_bits = fingerprint_bits
        self._fingerprints: Dict[int, Fingerprint] = {}
        super().__init__(dataset, matcher)

    # ------------------------------------------------------------------ #
    @property
    def fingerprint_bits(self) -> int:
        """Width of each graph's fingerprint in bits."""
        return self._fingerprint_bits

    @property
    def max_tree_size(self) -> int:
        """Maximum indexed tree (path) feature size in edges."""
        return self._max_tree_size

    @property
    def max_cycle_size(self) -> int:
        """Maximum indexed cycle feature size in vertices."""
        return self._max_cycle_size

    def _graph_fingerprint(self, graph: Graph | PackedGraph, paths: Counter) -> Fingerprint:
        fingerprint = Fingerprint(self._fingerprint_bits)
        fingerprint.add_features(paths.keys())
        fingerprint.add_features(cycle_features(graph, self._max_cycle_size).keys())
        return fingerprint

    def _build_index(self) -> None:
        self._fingerprints = {
            record.graph_id: self._graph_fingerprint(record, paths)
            for record, paths in dataset_path_features(self.dataset, self._max_tree_size)
        }

    def _filter(self, query: Graph) -> frozenset:
        paths = extract_label_paths(query, self._max_tree_size)
        query_fingerprint = self._graph_fingerprint(query, paths)
        if self._findex is not None:
            return self._findex.fingerprint_filter(query_fingerprint.bits)
        return frozenset(
            graph_id
            for graph_id, fingerprint in self._fingerprints.items()
            if fingerprint.contains(query_fingerprint)
        )

    # ------------------------------------------------------------------ #
    def _index_family(self) -> str:
        return "ctindex"

    def _index_params(self) -> Dict[str, object]:
        return {
            "max_tree_size": self._max_tree_size,
            "max_cycle_size": self._max_cycle_size,
            "fingerprint_bits": self._fingerprint_bits,
        }

    def seal_feature_index(self, path: PathLike) -> Path:
        """Compile the fingerprint map into a sealed ``*.ftv.arena`` segment."""
        if not self._fingerprints:
            raise CacheError("cannot seal a feature index that was not built here")
        return FeatureIndexArena.seal(
            path,
            family=self._index_family(),
            params=self._index_params(),
            dataset_hash=dataset_content_hash(self.dataset),
            fingerprints={
                graph_id: fingerprint.bits
                for graph_id, fingerprint in self._fingerprints.items()
            },
            fingerprint_bits=self._fingerprint_bits,
        )

    def _adopt_index(self, arena: FeatureIndexArena) -> None:
        self._fingerprints = {}

    def index_size_bytes(self) -> int:
        if self._findex is not None:
            return self._findex.nbytes
        return sum(fp.size_bytes() for fp in self._fingerprints.values())
