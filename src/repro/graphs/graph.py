"""Core labelled-graph data structure.

GraphCache (and the whole subgraph-query literature it builds on) operates on
*undirected vertex-labelled graphs*: each vertex carries a label drawn from a
finite alphabet, edges are unlabelled and undirected.  This module provides an
immutable-after-freeze :class:`Graph` optimised for the access patterns of the
library:

* adjacency lookups (``graph.neighbors(u)``) during subgraph-isomorphism search,
* label lookups (``graph.label(u)``) and per-label vertex lists,
* cheap structural summaries (degree sequence, label histogram) used by
  filtering heuristics,
* hashing / equality on the *structure* (used by caches, pools and tests).

Vertices are integers ``0..n-1``; this keeps the matchers simple and fast and
mirrors the representation used by the native tools the paper plugs in
(GraphGrepSX, Grapes, VF2).  Use :class:`repro.graphs.builder.GraphBuilder`
for incremental construction with arbitrary vertex names.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..analysis.runtime import make_lock
from ..exceptions import GraphError

__all__ = ["Graph", "graph_constructions", "intern_label"]

Edge = Tuple[int, int]

#: Process-wide count of fully materialised ``Graph`` objects (constructor
#: and CSR decode paths alike; packed views are *not* counted — they defer
#: materialisation).  Tests pin "decode-free" claims as a zero delta of this
#: counter across the section under test.
_CONSTRUCTIONS = 0


def graph_constructions() -> int:
    """Number of ``Graph`` objects materialised in this process so far."""
    return _CONSTRUCTIONS

#: Process-wide label intern table.  Labels may be arbitrary hashable values;
#: interning maps each distinct label to a small integer id shared by *all*
#: graphs, so matchers can compare labels across a (pattern, target) pair with
#: a single int comparison instead of re-hashing the label objects.
_LABEL_INTERN: Dict[object, int] = {}
_LABEL_INTERN_LOCK = make_lock("label.intern")

#: Below this vertex count the packed attach path builds its bitmask core
#: with scalar Python bit arithmetic; above it, the vectorised numpy scatter
#: wins (numpy's per-call overhead crosses over around a few mask words).
_CSR_SCALAR_CUTOFF = 128


def intern_label(label: object) -> int:
    """Return the process-wide integer id of ``label`` (assigning one if new).

    Thread-safe: graphs may be constructed from concurrent pipeline workers,
    and two threads must never assign different ids to the same label.  The
    hot path (label already interned) stays lock-free — under the GIL a dict
    probe is atomic, and interned entries are never removed or reassigned.
    """
    label_id = _LABEL_INTERN.get(label)
    if label_id is None:
        with _LABEL_INTERN_LOCK:
            label_id = _LABEL_INTERN.get(label)
            if label_id is None:
                label_id = len(_LABEL_INTERN)
                _LABEL_INTERN[label] = label_id
    return label_id


def canonical_edge_set(
    edges: Iterable[Tuple[int, int]], order: int, adjacency: List[set] | None = None
) -> set:
    """The edge rules of :class:`Graph` (and of the text parser's check): the
    ``(min, max)`` edge set, or :class:`GraphError` on a bad edge.  Fills
    ``adjacency`` (one set per vertex, in edge order) when given."""
    edge_set: set = set()
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise GraphError(f"edge ({u}, {v}) references a vertex outside 0..{order - 1}")
        if u == v:
            raise GraphError(f"self-loop on vertex {u} is not allowed")
        e = (u, v) if u < v else (v, u)
        if e in edge_set:
            raise GraphError(f"duplicate edge ({u}, {v})")
        edge_set.add(e)
        if adjacency is not None:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return edge_set


class Graph:
    """An undirected, vertex-labelled graph with integer vertices.

    Parameters
    ----------
    labels:
        Sequence of vertex labels; vertex ``i`` gets ``labels[i]``.  Labels may
        be any hashable value but are typically short strings (atom symbols,
        protein residue classes, ...).
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < len(labels)``.
        Self-loops and duplicate edges are rejected.
    graph_id:
        Optional identifier used by datasets and result sets.  It does not
        participate in equality or hashing.

    A graph keeps its labels, one neighbour tuple per vertex and the bitmask
    core the matchers read; the sorted edge tuple and the per-label vertex
    buckets are derived from those on first use.  A neighbour tuple iterates
    in the order a ``frozenset`` of the vertex's neighbours (in edge order)
    iterates: Type B query walks draw ``rng.choice(list(neighbors))``, so
    this order decides every query pool drawn from a dataset.

    Examples
    --------
    >>> g = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
    >>> g.order, g.size
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.label(2)
    'O'
    """

    __slots__ = (
        "_labels",
        "_adjacency",
        "_size",
        "_edges",
        "_graph_id",
        "_vertices_by_label",
        "_hash",
        "_neighbor_masks",
        "_label_ids",
        "_label_masks",
        "_degree_sequence",
        "_degree_prefix_masks",
        "_nbr_label_ge_masks",
        "_label_id_counts",
        "_packed_record",
    )

    def __init__(
        self,
        labels: Sequence[object],
        edges: Iterable[Tuple[int, int]] = (),
        graph_id: object | None = None,
    ) -> None:
        global _CONSTRUCTIONS
        _CONSTRUCTIONS += 1
        self._labels: Tuple[object, ...] = tuple(labels)
        n = len(self._labels)
        adjacency: List[set] = [set() for _ in range(n)]
        self._size = len(canonical_edge_set(edges, n, adjacency))
        self._adjacency: Tuple[Tuple[int, ...], ...] = tuple(
            [tuple(frozenset(a)) for a in adjacency]
        )
        self._edges: Tuple[Edge, ...] | None = None
        self._vertices_by_label: Dict[object, Tuple[int, ...]] | None = None
        self._graph_id = graph_id
        self._hash: int | None = None
        self._packed_record: bytes | None = None
        code_of: Dict[object, int] = {}
        codes = [code_of.setdefault(label, len(code_of)) for label in self._labels]
        self._init_bitmask_core(adjacency, codes, tuple(code_of))

    def _init_bitmask_core(
        self,
        rows: Sequence[Iterable[int]],
        codes: Sequence[int],
        label_table: Sequence[object],
    ) -> None:
        """Precompute the integer-bitmask views used by the matcher hot paths
        from neighbour rows and per-vertex codes into ``label_table``.

        * ``_neighbor_masks[v]`` — one Python int per vertex with bit ``t`` set
          iff ``t`` is adjacent to ``v``;
        * ``_label_ids[v]`` — process-wide interned id of ``labels[v]``;
        * ``_label_masks[label_id]`` — bitmask of the vertices carrying a label;
        * ``_degree_prefix_masks[d]`` — bitmask of the vertices of degree >= d.

        Used by the constructor and, below the scalar cutoff, by the CSR
        decode paths: for masks of a handful of machine words, plain Python
        bit arithmetic beats the vectorised scatter of
        :meth:`_init_bitmask_core_from_csr`, whose results are field-identical.
        """
        masks: List[int] = []
        for row in rows:
            mask = 0
            for t in row:
                mask |= 1 << t
            masks.append(mask)
        self._neighbor_masks = tuple(masks)
        table_ids = [intern_label(label) for label in label_table]
        per_code: List[List[int]] = [[] for _ in label_table]
        for vertex, code in enumerate(codes):
            per_code[code].append(vertex)
        label_ids: List[int] = [0] * len(rows)
        label_masks: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for code, vertices in enumerate(per_code):
            if not vertices:
                continue
            label_id = table_ids[code]
            mask = 0
            for vertex in vertices:
                mask |= 1 << vertex
                label_ids[vertex] = label_id
            label_masks[label_id] = mask
            counts[label_id] = len(vertices)
        self._label_ids = tuple(label_ids)
        self._label_masks = label_masks
        self._label_id_counts = counts
        degrees = [len(row) for row in rows]
        self._degree_sequence = tuple(sorted(degrees, reverse=True))
        max_degree = max(degrees, default=0)
        prefix: List[int] = [0] * (max_degree + 2)
        for vertex, degree in enumerate(degrees):
            prefix[degree] |= 1 << vertex
        # Suffix-OR so that prefix[d] covers every vertex of degree >= d.
        for d in range(max_degree - 1, -1, -1):
            prefix[d] |= prefix[d + 1]
        self._degree_prefix_masks = tuple(prefix)
        # Lazily-built per-label neighbour-count threshold masks (GraphQL-style
        # 1-hop profile pruning); dataset graphs are matched against many
        # queries, so the table amortises across calls.
        self._nbr_label_ge_masks: Dict[int, Tuple[int, ...]] | None = None

    def _init_bitmask_core_from_csr(self, indptr, indices, label_codes, label_table) -> None:
        """Bitmask core built from CSR slices — no per-vertex Python lists.

        The packed attach path (:meth:`from_packed`): neighbour masks, label
        masks and degree-prefix masks are assembled as vectorised bit-matrix
        rows (`numpy` ``bitwise_or.at`` scatter into ``uint8`` rows, one
        ``int.from_bytes`` per mask), so rehydrating an arena-backed graph
        costs O(n·n/8) byte ops instead of a Python loop per adjacency entry.
        Produces field-identical results to :meth:`_init_bitmask_core`.
        """
        import numpy as np

        n = len(label_codes)
        nbytes = (n + 7) // 8
        degrees = np.diff(indptr)
        # Per-vertex adjacency masks: scatter bit `t` into row `v`.
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        cols = indices.astype(np.int64, copy=False)
        adj_bits = np.zeros((n, nbytes), dtype=np.uint8)
        np.bitwise_or.at(
            adj_bits, (rows, cols >> 3), (1 << (cols & 7)).astype(np.uint8)
        )
        self._neighbor_masks = tuple(
            int.from_bytes(row.tobytes(), "little") for row in adj_bits
        )
        # Interned ids: one intern per distinct label, broadcast by code.
        table_ids = [intern_label(label) for label in label_table]
        codes = label_codes.tolist()
        self._label_ids = tuple(table_ids[code] for code in codes)
        verts = np.arange(n, dtype=np.int64)
        vert_bits = (1 << (verts & 7)).astype(np.uint8)
        vert_bytes = verts >> 3
        label_rows = np.zeros((len(table_ids), nbytes), dtype=np.uint8)
        np.bitwise_or.at(label_rows, (label_codes, vert_bytes), vert_bits)
        label_masks: Dict[int, int] = {}
        for code, label_id in enumerate(table_ids):
            mask = int.from_bytes(label_rows[code].tobytes(), "little")
            if mask:
                label_masks[label_id] = mask
        self._label_masks = label_masks
        self._label_id_counts = {
            label_id: mask.bit_count() for label_id, mask in label_masks.items()
        }
        degree_list = degrees.tolist()
        self._degree_sequence = tuple(sorted(degree_list, reverse=True))
        max_degree = max(degree_list, default=0)
        prefix_rows = np.zeros((max_degree + 2, nbytes), dtype=np.uint8)
        np.bitwise_or.at(prefix_rows, (degrees, vert_bytes), vert_bits)
        # Suffix-OR so that prefix[d] covers every vertex of degree >= d.
        for d in range(max_degree - 1, -1, -1):
            prefix_rows[d] |= prefix_rows[d + 1]
        self._degree_prefix_masks = tuple(
            int.from_bytes(row.tobytes(), "little") for row in prefix_rows
        )
        self._nbr_label_ge_masks = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def graph_id(self) -> object | None:
        """Identifier assigned by the owning dataset (``None`` if unset)."""
        return self._graph_id

    @property
    def order(self) -> int:
        """Number of vertices."""
        return len(self._labels)

    @property
    def size(self) -> int:
        """Number of edges."""
        return self._size

    @property
    def labels(self) -> Tuple[object, ...]:
        """Tuple of vertex labels, indexed by vertex id."""
        return self._labels

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """Sorted tuple of canonical ``(u, v)`` edges with ``u < v`` (derived
        from the neighbour tuples on first use, then kept)."""
        edges = self._edges
        if edges is None:
            edges = self._edges = tuple(
                [(u, v) for u, row in enumerate(self._adjacency) for v in sorted(row) if u < v]
            )
        return edges

    def vertices(self) -> range:
        """Range over all vertex ids."""
        return range(len(self._labels))

    def label(self, vertex: int) -> object:
        """Return the label of ``vertex``."""
        return self._labels[vertex]

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Return the neighbours of ``vertex`` as a tuple.

        The tuple iterates in the legacy ``frozenset`` order (see the class
        docstring): Type B walks draw ``rng.choice(list(neighbors))``, so a
        different order would re-draw every query pool.
        """
        return self._adjacency[vertex]

    def degree(self, vertex: int) -> int:
        """Return the degree of ``vertex``."""
        return len(self._adjacency[vertex])

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        return v >= 0 and self._neighbor_masks[u] >> v & 1 == 1

    def has_vertex(self, vertex: int) -> bool:
        """Return ``True`` if ``vertex`` is a valid vertex id."""
        return 0 <= vertex < len(self._labels)

    # ------------------------------------------------------------------ #
    # Bitmask views (matcher hot paths)
    # ------------------------------------------------------------------ #
    @property
    def neighbor_masks(self) -> Tuple[int, ...]:
        """Per-vertex adjacency bitmasks: bit ``t`` of entry ``v`` means edge ``(v, t)``."""
        return self._neighbor_masks

    def neighbor_mask(self, vertex: int) -> int:
        """Bitmask of the neighbours of ``vertex``."""
        return self._neighbor_masks[vertex]

    @property
    def label_ids(self) -> Tuple[int, ...]:
        """Interned label id of each vertex (shared across all graphs)."""
        return self._label_ids

    def label_id(self, vertex: int) -> int:
        """Interned label id of ``vertex``."""
        return self._label_ids[vertex]

    def label_mask(self, label: object) -> int:
        """Bitmask of the vertices carrying ``label`` (0 if the label is absent).

        Pure lookup: a label this process has never interned cannot be in any
        graph, so the probe must not grow the intern table as a side effect.
        Resolves the interned id and delegates to :meth:`label_id_mask` (one
        mask-table probe, not two parallel implementations).
        """
        label_id = _LABEL_INTERN.get(label)
        if label_id is None:
            return 0
        return self.label_id_mask(label_id)

    def label_id_mask(self, label_id: int) -> int:
        """Bitmask of the vertices whose interned label id is ``label_id``."""
        return self._label_masks.get(label_id, 0)

    @property
    def label_id_histogram(self) -> Dict[int, int]:
        """Mapping ``interned label id -> vertex count``.  Treat as read-only:
        the dict is the precomputed internal table, returned without copying
        because necessary-condition filters read it on every match call."""
        return self._label_id_counts

    def degree_ge_mask(self, min_degree: int) -> int:
        """Bitmask of the vertices with degree >= ``min_degree``."""
        if min_degree <= 0:
            return self._degree_prefix_masks[0]
        if min_degree >= len(self._degree_prefix_masks):
            return 0
        return self._degree_prefix_masks[min_degree]

    @property
    def full_vertex_mask(self) -> int:
        """Bitmask with one bit set per vertex."""
        return (1 << len(self._labels)) - 1

    def neighbor_label_ge_mask(self, label_id: int, min_count: int) -> int:
        """Bitmask of vertices with >= ``min_count`` neighbours labelled ``label_id``.

        The per-label threshold tables are built lazily and cached: the graph
        is immutable, and target graphs are probed by many pattern vertices
        over their lifetime.
        """
        table = self._nbr_label_ge_masks
        if table is None:
            table = {}
            self._nbr_label_ge_masks = table
        per_label = table.get(label_id)
        if per_label is None:
            label_mask = self._label_masks.get(label_id, 0)
            counts = [
                (mask & label_mask).bit_count() for mask in self._neighbor_masks
            ]
            max_count = max(counts, default=0)
            thresholds: List[int] = [0] * (max_count + 2)
            for vertex, count in enumerate(counts):
                thresholds[count] |= 1 << vertex
            for c in range(max_count - 1, -1, -1):
                thresholds[c] |= thresholds[c + 1]
            per_label = tuple(thresholds)
            table[label_id] = per_label
        if min_count <= 0:
            return self.full_vertex_mask
        if min_count >= len(per_label):
            return 0
        return per_label[min_count]

    # ------------------------------------------------------------------ #
    # Structural summaries
    # ------------------------------------------------------------------ #
    @property
    def label_histogram(self) -> Dict[object, int]:
        """Mapping ``label -> number of vertices carrying it`` (a new dict)."""
        return dict(Counter(self._labels))

    def distinct_labels(self) -> frozenset:
        """Set of distinct labels present in the graph."""
        return frozenset(self._labels)

    def vertices_with_label(self, label: object) -> Tuple[int, ...]:
        """All vertices carrying ``label`` (possibly empty); the per-label
        buckets are derived from the labels on first use, then kept."""
        by_label = self._vertices_by_label
        if by_label is None:
            buckets: Dict[object, List[int]] = {}
            for vertex, vertex_label in enumerate(self._labels):
                buckets.setdefault(vertex_label, []).append(vertex)
            by_label = self._vertices_by_label = {
                key: tuple(vertices) for key, vertices in buckets.items()
            }
        return by_label.get(label, ())

    def degree_sequence(self) -> Tuple[int, ...]:
        """Non-increasing degree sequence (precomputed at construction)."""
        return self._degree_sequence

    def average_degree(self) -> float:
        """Average vertex degree (0.0 for the empty graph)."""
        n = self.order
        if not n:
            return 0.0
        return 2.0 * self._size / n

    def density(self) -> float:
        """Edge density ``2m / (n (n-1))`` (0.0 for graphs with < 2 vertices)."""
        n = self.order
        if n < 2:
            return 0.0
        return 2.0 * self._size / (n * (n - 1))

    # ------------------------------------------------------------------ #
    # Packed (CSR) round-trip
    # ------------------------------------------------------------------ #
    def to_packed(self):
        """Pack into a :class:`~repro.graphs.packed.PackedGraph` (CSR views)."""
        from .packed import PackedGraph

        return PackedGraph.from_graph(self)

    def packed_bytes(self) -> bytes:
        """The arena record ``to_packed().to_bytes()``, packed once per graph.

        Every writer of packed records (arena appends, worker payloads, the
        dataset content hash) reads it here, so a query that enters the
        window arena and then the cache arena is packed once.
        """
        record = self._packed_record
        if record is None:
            record = self._packed_record = self.to_packed().to_bytes()
        return record

    @classmethod
    def from_packed(cls, packed) -> "Graph":
        """Rebuild a full graph from a :class:`~repro.graphs.packed.PackedGraph`.

        The inverse of :meth:`to_packed`, also reached from zero-copy views
        over a sealed arena: neighbour tuples come straight from the CSR
        slices, and the bitmask core is built by
        :meth:`_init_bitmask_core_from_csr` without per-vertex Python lists.
        The result is indistinguishable from ``Graph(labels, edges)``.
        """
        return cls._from_csr_lists(
            packed.indptr.tolist(),
            packed.indices.tolist(),
            packed.label_codes.tolist(),
            packed.label_table,
            packed.graph_id,
            arrays=(packed.indptr, packed.indices, packed.label_codes),
        )

    @classmethod
    def _from_csr_lists(
        cls,
        ptr: Sequence[int],
        idx: Sequence[int],
        codes: Sequence[int],
        table: Tuple[object, ...],
        graph_id: object | None,
        arrays=None,
    ) -> "Graph":
        """Build a graph from plain CSR sequences (rows sorted ascending).

        Shared by :meth:`from_packed` and the struct-unpacking record decoder
        (:meth:`PackedGraph.decode_graph`); ``arrays`` optionally carries the
        ``(indptr, indices, label_codes)`` numpy triple so the vectorised
        mask constructor can reuse it above the scalar cutoff instead of
        round-tripping the lists through ``np.asarray``.
        """
        global _CONSTRUCTIONS
        _CONSTRUCTIONS += 1
        self = cls.__new__(cls)
        self._labels = tuple([table[code] for code in codes])
        n = len(codes)
        rows = [idx[ptr[v] : ptr[v + 1]] for v in range(n)]
        self._adjacency = tuple([tuple(frozenset(row)) for row in rows])
        self._size = len(idx) // 2
        self._edges = None
        self._vertices_by_label = None
        self._graph_id = graph_id
        self._hash = None
        self._packed_record = None
        if n <= _CSR_SCALAR_CUTOFF:
            self._init_bitmask_core(rows, codes, table)
        else:
            if arrays is None:
                import numpy as np

                arrays = (
                    np.asarray(ptr, dtype=np.int64),
                    np.asarray(idx, dtype=np.int32),
                    np.asarray(codes, dtype=np.int32),
                )
            self._init_bitmask_core_from_csr(*arrays, table)
        return self

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def with_id(self, graph_id: object) -> "Graph":
        """Return a copy of this graph carrying ``graph_id``.

        Copies every ``__slots__`` field generically, so a field added to the
        class (packed caches, new mask tables, ...) can never silently fall
        off the clone path; the regression test iterates the same tuple.
        """
        clone = Graph.__new__(Graph)
        for slot in Graph.__slots__:
            object.__setattr__(clone, slot, getattr(self, slot))
        clone._graph_id = graph_id
        clone._packed_record = None  # the record embeds the graph id
        return clone

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Return the subgraph induced by ``vertices`` (relabelled to 0..k-1)."""
        selected = sorted(set(vertices))
        for v in selected:
            if not self.has_vertex(v):
                raise GraphError(f"vertex {v} not in graph")
        remap = {old: new for new, old in enumerate(selected)}
        labels = [self._labels[v] for v in selected]
        edges = [
            (remap[u], remap[v])
            for u, v in self.edges
            if u in remap and v in remap
        ]
        return Graph(labels=labels, edges=edges)

    def edge_subgraph(self, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Return the subgraph spanned by ``edges`` (vertices relabelled)."""
        chosen: List[Edge] = []
        vertex_set: set = set()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise GraphError(f"edge ({u}, {v}) not in graph")
            chosen.append((u, v) if u <= v else (v, u))
            vertex_set.add(u)
            vertex_set.add(v)
        selected = sorted(vertex_set)
        remap = {old: new for new, old in enumerate(selected)}
        labels = [self._labels[v] for v in selected]
        remapped = [(remap[u], remap[v]) for u, v in sorted(set(chosen))]
        return Graph(labels=labels, edges=remapped)

    def relabelled(self, mapping: Dict[int, object]) -> "Graph":
        """Return a copy where vertices in ``mapping`` get new labels."""
        labels = list(self._labels)
        for vertex, label in mapping.items():
            if not self.has_vertex(vertex):
                raise GraphError(f"vertex {vertex} not in graph")
            labels[vertex] = label
        return Graph(labels=labels, edges=self.edges, graph_id=self._graph_id)

    # ------------------------------------------------------------------ #
    # Identity, hashing, representation
    # ------------------------------------------------------------------ #
    def structure_key(self) -> Tuple[Tuple[object, ...], Tuple[Edge, ...]]:
        """Key capturing the exact labelled structure (not isomorphism class)."""
        return (self._labels, self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # Equal labels and neighbour masks is equal labels and edges.
        return (
            self._labels == other._labels
            and self._neighbor_masks == other._neighbor_masks
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._labels, self.edges))
        return self._hash

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._labels)))

    def __repr__(self) -> str:
        ident = f" id={self._graph_id!r}" if self._graph_id is not None else ""
        return f"<Graph{ident} |V|={self.order} |E|={self.size}>"
