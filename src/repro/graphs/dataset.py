"""Graph dataset container.

A *graph dataset* in the subgraph-query setting (AIDS, PDBS, PCM, ...) is an
ordered collection of labelled graphs, each addressed by an integer graph id.
Both FTV methods and GraphCache treat the dataset as read-only: FTV methods
index it once, SI methods iterate over it per query, and GC only manipulates
sets of graph ids (candidate sets and answer sets).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..exceptions import DatasetError
from .graph import Graph

__all__ = ["GraphDataset", "DatasetStatistics"]


@dataclass(frozen=True)
class DatasetStatistics:
    """Summary statistics of a dataset, mirroring Table-style stats in §7.2."""

    graph_count: int
    mean_vertices: float
    std_vertices: float
    max_vertices: int
    mean_edges: float
    std_edges: float
    max_edges: int
    mean_degree: float
    distinct_labels: int

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary (for reports)."""
        return {
            "graph_count": self.graph_count,
            "mean_vertices": self.mean_vertices,
            "std_vertices": self.std_vertices,
            "max_vertices": self.max_vertices,
            "mean_edges": self.mean_edges,
            "std_edges": self.std_edges,
            "max_edges": self.max_edges,
            "mean_degree": self.mean_degree,
            "distinct_labels": self.distinct_labels,
        }


class GraphDataset:
    """An immutable, indexable collection of labelled graphs.

    Graph ids are the positions ``0..n-1`` of the graphs in the dataset; every
    stored graph's :attr:`~repro.graphs.graph.Graph.graph_id` is rewritten to
    its position so that answer sets and candidate sets can be represented as
    plain ``frozenset[int]`` everywhere in the library.

    Parameters
    ----------
    graphs:
        The member graphs, in dataset order.
    name:
        Human-readable dataset name used in reports (e.g. ``"AIDS-like"``).
    """

    def __init__(self, graphs: Sequence[Graph], name: str = "dataset") -> None:
        if not graphs:
            raise DatasetError("a dataset must contain at least one graph")
        self._name = name
        self._graphs: List[Graph] = [
            graph.with_id(graph_id) for graph_id, graph in enumerate(graphs)
        ]
        self._all_ids = frozenset(range(len(self._graphs)))

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Human-readable name of the dataset."""
        return self._name

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self._graphs)

    def __getitem__(self, graph_id: int) -> Graph:
        try:
            return self._graphs[graph_id]
        except IndexError:
            raise DatasetError(
                f"graph id {graph_id} not in dataset of {len(self._graphs)} graphs"
            ) from None

    def graph(self, graph_id: int) -> Graph:
        """Return the graph with the given id (alias of ``dataset[id]``)."""
        return self[graph_id]

    def graphs(self, graph_ids: Iterable[int]) -> List[Graph]:
        """Return the graphs for an iterable of ids, preserving order."""
        return [self[graph_id] for graph_id in graph_ids]

    @property
    def graph_ids(self) -> frozenset:
        """Frozen set of every graph id in the dataset."""
        return self._all_ids

    @cached_property
    def orders(self) -> Tuple[int, ...]:
        """Vertex count of every graph, indexed by graph id (computed once)."""
        return tuple(g.order for g in self._graphs)

    @cached_property
    def max_order(self) -> int:
        """The largest vertex count in the dataset (0 when empty)."""
        return max(self.orders, default=0)

    # ------------------------------------------------------------------ #
    def statistics(self) -> DatasetStatistics:
        """Compute dataset summary statistics (vertex/edge counts, degree)."""
        vertex_counts = [g.order for g in self._graphs]
        edge_counts = [g.size for g in self._graphs]
        labels = set()
        for g in self._graphs:
            labels.update(g.distinct_labels())
        degree_total = sum(g.average_degree() * 1.0 for g in self._graphs)
        return DatasetStatistics(
            graph_count=len(self._graphs),
            mean_vertices=statistics.fmean(vertex_counts),
            std_vertices=statistics.pstdev(vertex_counts) if len(vertex_counts) > 1 else 0.0,
            max_vertices=max(vertex_counts),
            mean_edges=statistics.fmean(edge_counts),
            std_edges=statistics.pstdev(edge_counts) if len(edge_counts) > 1 else 0.0,
            max_edges=max(edge_counts),
            mean_degree=degree_total / len(self._graphs),
            distinct_labels=len(labels),
        )

    def label_alphabet(self) -> frozenset:
        """Union of all vertex labels appearing in the dataset."""
        labels = set()
        for g in self._graphs:
            labels.update(g.distinct_labels())
        return frozenset(labels)

    def __repr__(self) -> str:
        return f"<GraphDataset {self._name!r} graphs={len(self._graphs)}>"
