"""Incremental construction of :class:`~repro.graphs.graph.Graph` objects.

The core :class:`Graph` type is immutable by design (matchers, indexes and the
cache all rely on graphs never changing under them).  :class:`GraphBuilder`
provides the mutable construction phase: vertices may be added with arbitrary
hashable names, edges refer to those names, and :meth:`GraphBuilder.build`
produces the frozen integer-vertex graph.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from ..exceptions import GraphError
from .graph import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Mutable builder producing immutable :class:`Graph` instances.

    Examples
    --------
    >>> builder = GraphBuilder()
    >>> builder.add_vertex("a", label="C")
    >>> builder.add_vertex("b", label="O")
    >>> builder.add_edge("a", "b")
    >>> g = builder.build()
    >>> g.order, g.size
    (2, 1)
    """

    def __init__(self, graph_id: object | None = None) -> None:
        self._graph_id = graph_id
        self._index: Dict[Hashable, int] = {}
        self._labels: List[object] = []
        self._edges: List[Tuple[int, int]] = []
        self._edge_set: set = set()

    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Number of vertices added so far."""
        return len(self._labels)

    @property
    def size(self) -> int:
        """Number of edges added so far."""
        return len(self._edges)

    def has_vertex(self, name: Hashable) -> bool:
        """Return ``True`` if a vertex called ``name`` was added."""
        return name in self._index

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Return ``True`` if the edge ``(u, v)`` was added."""
        if u not in self._index or v not in self._index:
            return False
        a, b = self._index[u], self._index[v]
        return (min(a, b), max(a, b)) in self._edge_set

    # ------------------------------------------------------------------ #
    def add_vertex(self, name: Hashable, label: object) -> int:
        """Add a vertex called ``name`` with ``label``; return its integer id.

        Adding an existing name with the same label is a no-op; adding it with
        a different label raises :class:`GraphError`.
        """
        if name in self._index:
            vertex = self._index[name]
            if self._labels[vertex] != label:
                raise GraphError(
                    f"vertex {name!r} already exists with label "
                    f"{self._labels[vertex]!r} (got {label!r})"
                )
            return vertex
        vertex = len(self._labels)
        self._index[name] = vertex
        self._labels.append(label)
        return vertex

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Add the undirected edge ``(u, v)``; both endpoints must exist.

        Duplicate edges are ignored; self-loops raise :class:`GraphError`.
        """
        if u not in self._index:
            raise GraphError(f"unknown vertex {u!r}")
        if v not in self._index:
            raise GraphError(f"unknown vertex {v!r}")
        a, b = self._index[u], self._index[v]
        if a == b:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        key = (min(a, b), max(a, b))
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self._edges.append(key)

    # ------------------------------------------------------------------ #
    def build(self, graph_id: object | None = None) -> Graph:
        """Freeze the builder into a :class:`Graph`.

        The builder remains usable afterwards (e.g. to keep growing a graph
        and emit successive snapshots).
        """
        return Graph(
            labels=list(self._labels),
            edges=list(self._edges),
            graph_id=self._graph_id if graph_id is None else graph_id,
        )

    def __repr__(self) -> str:
        return f"<GraphBuilder |V|={self.order} |E|={self.size}>"
