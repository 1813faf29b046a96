"""Zero-copy packed graph representation: CSR adjacency over numpy views.

A :class:`PackedGraph` is the write-once, position-independent form of a
:class:`~repro.graphs.graph.Graph`: adjacency as compressed sparse rows
(little-endian ``int64`` row pointers + ``int32`` column indices, both
directions of every undirected edge), one ``int32`` label code per vertex
into a small per-graph label table, and the degree array — all exposed as
numpy arrays.  The representation exists for two reasons:

* **zero-copy storage** — :meth:`PackedGraph.to_bytes` emits a single
  contiguous record that :meth:`PackedGraph.from_buffer` re-opens as *views*
  over any buffer implementing the buffer protocol, including a read-only
  ``np.memmap`` over a :class:`~repro.core.backends.arena.GraphArena`
  segment shared by many processes (the pystow CSR-``memmap`` idiom);
* **fast rehydration** — :meth:`PackedGraph.to_graph` rebuilds a full
  :class:`Graph` through :meth:`Graph.from_packed`, whose bitmask core is
  constructed from the CSR slices with vectorised numpy bit-set operations
  instead of per-vertex Python neighbour lists.

Instances are immutable: every attribute write raises, and owned arrays are
flagged non-writeable (arena-backed views inherit read-only pages from the
mmap).  The static analyzer enforces the same contract at review time (rule
``REPRO007``).
"""

from __future__ import annotations

import json
import struct
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..exceptions import GraphError
from .graph import _CSR_SCALAR_CUTOFF, Graph

__all__ = [
    "PackedGraph",
    "PackedGraphView",
    "INDPTR_DTYPE",
    "INDEX_DTYPE",
]

#: Explicit little-endian dtypes: packed records are byte-identical across
#: hosts, and a record written on one machine attaches on any other.
INDPTR_DTYPE = np.dtype("<i8")
INDEX_DTYPE = np.dtype("<i4")

#: Record header: magic, vertex count, CSR entry count, label-blob bytes,
#: graph-id-blob bytes (five little-endian int64 fields, 40 bytes).
_HEADER_FIELDS = 5
_HEADER_BYTES = _HEADER_FIELDS * 8
_MAGIC = 0x3152_4750  # "PGR1" read as a little-endian uint32.

#: Records are padded to an 8-byte multiple so int64 views over an arena
#: stay aligned no matter what was appended before them.
_ALIGN = 8

# A pure function of one bytes argument is what ``lru_cache`` already
# memoises; a BoundedMemo here would only write it again.  Workload graphs
# draw their labels from a dataset's small alphabet, so distinct blobs
# number in the hundreds while records number in the millions; the LRU cap
# bounds a never-repeating label universe to a fixed footprint.
@lru_cache(maxsize=4096)
def _cached_label_table(table_blob: bytes) -> Tuple[object, ...]:
    """The JSON label table ``table_blob`` encodes, as an immutable tuple."""
    return tuple(json.loads(table_blob))


def _pad(nbytes: int) -> int:
    return (-nbytes) % _ALIGN


class PackedGraph:
    """Frozen CSR snapshot of one labelled graph (see module docstring).

    Attributes
    ----------
    indptr:
        ``int64`` row-pointer array of length ``order + 1``; the neighbours
        of vertex ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, sorted
        ascending.
    indices:
        ``int32`` column indices (both directions, so ``len(indices) ==
        2 * size``).
    label_codes:
        ``int32`` per-vertex index into :attr:`label_table`.
    label_table:
        Tuple of the graph's distinct labels in first-occurrence order.
    """

    __slots__ = (
        "indptr",
        "indices",
        "label_codes",
        "label_table",
        "degrees",
        "graph_id",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        label_codes: np.ndarray,
        label_table: Tuple[object, ...],
        graph_id: object | None = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=INDPTR_DTYPE)
        indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        label_codes = np.ascontiguousarray(label_codes, dtype=INDEX_DTYPE)
        n = len(label_codes)
        if len(indptr) != n + 1 or int(indptr[0]) != 0:
            raise GraphError("packed graph: indptr must have order + 1 entries from 0")
        if len(indices) != int(indptr[-1]):
            raise GraphError("packed graph: indices length disagrees with indptr[-1]")
        for array in (indptr, indices, label_codes):
            if array.flags.writeable:
                array.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "label_codes", label_codes)
        object.__setattr__(self, "label_table", tuple(label_table))
        degrees = np.diff(indptr).astype(INDEX_DTYPE)
        degrees.flags.writeable = False
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "graph_id", graph_id)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PackedGraph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("PackedGraph is immutable")

    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Number of vertices."""
        return len(self.label_codes)

    @property
    def size(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def neighbors(self, vertex: int) -> np.ndarray:
        """Sorted ``int32`` neighbour ids of ``vertex`` (a zero-copy slice)."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def labels(self) -> Tuple[object, ...]:
        """Per-vertex labels (materialised from the label table)."""
        table = self.label_table
        return tuple(table[code] for code in self.label_codes.tolist())

    # ------------------------------------------------------------------ #
    # CSR-native candidate/adjacency protocol (matching without a Graph)
    # ------------------------------------------------------------------ #
    def degree(self, vertex: int) -> int:
        """Degree of ``vertex`` (one read of the precomputed degree array)."""
        return int(self.degrees[vertex])

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test via binary search on the sorted CSR row of ``u``."""
        row = self.indices[self.indptr[u] : self.indptr[u + 1]]
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and int(row[pos]) == v

    def common_neighbors(self, u: int, v: int) -> np.ndarray:
        """Sorted intersection of two CSR rows (two-pointer merge in numpy).

        CSR rows are sorted and duplicate-free, so ``assume_unique`` lets
        numpy run the linear merge instead of sorting the concatenation.
        """
        return np.intersect1d(self.neighbors(u), self.neighbors(v), assume_unique=True)

    def vertices_with_label(self, label: object) -> np.ndarray:
        """Vertices carrying ``label``: one code lookup + one vectorised filter."""
        try:
            code = self.label_table.index(label)
        except ValueError:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.label_codes == code)[0]

    # ------------------------------------------------------------------ #
    # Graph round-trip
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: Graph) -> "PackedGraph":
        """Pack a :class:`Graph` (also available as :meth:`Graph.to_packed`).

        The arrays are built as Python lists and converted with one
        ``np.array`` each: per-element stores into numpy cost more than the
        whole list pass.
        """
        table: list = []
        code_of: dict = {}
        codes: list = []
        for label in graph.labels:
            code = code_of.get(label)
            if code is None:
                code = code_of[label] = len(table)
                table.append(label)
            codes.append(code)
        indptr = [0]
        indices: list = []
        for vertex in range(graph.order):
            indices += sorted(graph.neighbors(vertex))
            indptr.append(len(indices))
        return cls(
            np.array(indptr, dtype=INDPTR_DTYPE),
            np.array(indices, dtype=INDEX_DTYPE),
            np.array(codes, dtype=INDEX_DTYPE),
            tuple(table),
            graph_id=graph.graph_id,
        )

    def to_graph(self) -> Graph:
        """Rebuild a full :class:`Graph` (bitmask core built from CSR slices)."""
        return Graph.from_packed(self)

    # ------------------------------------------------------------------ #
    # Byte-record round-trip (arena storage)
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialize into one contiguous, 8-byte-aligned little-endian record."""
        label_blob = json.dumps(list(self.label_table)).encode("utf-8")
        id_blob = json.dumps(self.graph_id).encode("utf-8")
        header = np.array(
            [_MAGIC, self.order, len(self.indices), len(label_blob), len(id_blob)],
            dtype=INDPTR_DTYPE,
        )
        parts = [
            header.tobytes(),
            self.indptr.tobytes(),
            self.indices.tobytes(),
            self.label_codes.tobytes(),
            label_blob,
            id_blob,
        ]
        payload = b"".join(parts)
        return payload + b"\x00" * _pad(len(payload))

    @classmethod
    def from_buffer(cls, buffer, offset: int = 0) -> "PackedGraph":
        """Open the record at ``offset`` as zero-copy views over ``buffer``.

        ``buffer`` is anything with the buffer protocol — ``bytes``, a
        ``memoryview``, or a read-only ``np.memmap`` over a sealed arena
        segment.  No array data is copied; only the (small) label table and
        graph id are materialised as Python objects.
        """
        header = np.frombuffer(buffer, dtype=INDPTR_DTYPE, count=_HEADER_FIELDS, offset=offset)
        if int(header[0]) != _MAGIC:
            raise GraphError(f"packed graph record at offset {offset}: bad magic")
        n, nnz, label_len, id_len = (int(x) for x in header[1:])
        pos = offset + _HEADER_BYTES
        indptr = np.frombuffer(buffer, dtype=INDPTR_DTYPE, count=n + 1, offset=pos)
        pos += (n + 1) * 8
        indices = np.frombuffer(buffer, dtype=INDEX_DTYPE, count=nnz, offset=pos)
        pos += nnz * 4
        codes = np.frombuffer(buffer, dtype=INDEX_DTYPE, count=n, offset=pos)
        pos += n * 4
        view = memoryview(buffer)
        label_table = _cached_label_table(bytes(view[pos : pos + label_len]))
        pos += label_len
        graph_id = json.loads(bytes(view[pos : pos + id_len]).decode("utf-8"))
        # Trusted-record fast path: frombuffer already yields contiguous,
        # read-only arrays of the right dtype with internally-consistent
        # lengths (the header wrote them), so the validating constructor's
        # copies and checks are skipped.
        self = object.__new__(cls)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "label_codes", codes)
        object.__setattr__(self, "label_table", label_table)
        degrees = np.diff(indptr).astype(INDEX_DTYPE)
        degrees.flags.writeable = False
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "graph_id", graph_id)
        return self

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PackedGraph":
        """Deserialize one record produced by :meth:`to_bytes`."""
        return cls.from_buffer(payload, 0)

    @classmethod
    def decode_graph(cls, buffer, offset: int = 0) -> Graph:
        """Decode the record at ``offset`` straight into a :class:`Graph`.

        The hot deserialisation path of the multi-process workers and the
        mmap backend's ``get()``: for the small graphs that dominate query
        workloads, ``struct.unpack_from`` into plain tuples feeding the
        scalar bitmask core skips every numpy array construction, which is
        roughly twice as fast as ``from_buffer(...).to_graph()``.  Above the
        scalar cutoff the vectorised view route wins and is used instead.
        """
        magic, n, nnz, label_len, id_len = struct.unpack_from("<5q", buffer, offset)
        if magic != _MAGIC:
            raise GraphError(f"packed graph record at offset {offset}: bad magic")
        if n > _CSR_SCALAR_CUTOFF:
            return cls.from_buffer(buffer, offset).to_graph()
        pos = offset + _HEADER_BYTES
        indptr = struct.unpack_from(f"<{n + 1}q", buffer, pos)
        pos += (n + 1) * 8
        indices = struct.unpack_from(f"<{nnz}i", buffer, pos)
        pos += nnz * 4
        codes = struct.unpack_from(f"<{n}i", buffer, pos)
        pos += n * 4
        if type(buffer) is not bytes:
            buffer = memoryview(buffer)
        label_table = _cached_label_table(bytes(buffer[pos : pos + label_len]))
        pos += label_len
        graph_id = json.loads(bytes(buffer[pos : pos + id_len]))
        return Graph._from_csr_lists(indptr, indices, codes, label_table, graph_id)

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedGraph):
            return NotImplemented
        return (
            self.label_table == other.label_table
            and np.array_equal(self.label_codes, other.label_codes)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.label_table, self.label_codes.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        ident = f" id={self.graph_id!r}" if self.graph_id is not None else ""
        return f"<PackedGraph{ident} |V|={self.order} |E|={self.size}>"


class PackedGraphView(Graph):
    """A :class:`Graph` facade over a :class:`PackedGraph` — CSR-native matching.

    The single matcher-facing adapter of the packed serving path: every
    matcher (VF2/VF2+/GraphQL) and pipeline stage takes a ``Graph``,
    and a view *is* one — ``isinstance``, equality, hashing and every read
    method behave identically — but nothing is derived from the CSR record
    until a caller actually needs it:

    * the hot matcher reads (``degree``, ``has_edge``, ``order``/``size``)
      answer straight off the packed arrays — ``has_edge`` is a
      ``searchsorted`` probe of the sorted int32 row slice, not a set lookup;
    * the **bitmask core** (neighbour/label/degree-threshold masks) is
      materialised on first touch via the same scalar/vectorised CSR
      constructors ``Graph._from_csr_lists`` dispatches to, so masks — and
      therefore matcher work counters — are field-identical to a decoded
      ``Graph``;
    * the **structure tuples** (``labels`` and the neighbour tuples, from
      which ``edges`` and the label buckets derive as on any ``Graph``) are
      materialised separately, only for callers that walk them (feature
      extraction, hashing, the text codecs).

    Materialised fields stick to the instance, so a long-lived view over a
    sealed arena record (see :meth:`GraphArena.view_at
    <repro.core.backends.arena.GraphArena.view_at>`) pays each derivation
    once per process — and because its cached ``_hash`` survives with it,
    memos keyed on the view as a *pattern* (the matcher's compiled plans, the
    processors' containment verdicts) keep hitting across requests.  Lazy writes are idempotent derivations of the immutable
    record, so concurrent readers may race them harmlessly.
    """

    __slots__ = ("_source",)

    #: Fields derived together from the CSR record, as two independent groups.
    _STRUCTURE_FIELDS = frozenset(("_labels", "_adjacency", "_edges", "_vertices_by_label"))
    _MASK_CORE_FIELDS = frozenset(
        (
            "_neighbor_masks",
            "_label_ids",
            "_label_masks",
            "_label_id_counts",
            "_degree_sequence",
            "_degree_prefix_masks",
            "_nbr_label_ge_masks",
        )
    )

    def __init__(self, source: PackedGraph) -> None:
        self._source = source
        self._size = source.size
        self._graph_id = source.graph_id
        self._hash = None
        self._packed_record = None

    def __getattr__(self, name: str):
        # Only ever reached for *unset* slots (set ones resolve normally).
        if name in PackedGraphView._MASK_CORE_FIELDS:
            self._materialize_mask_core()
        elif name in PackedGraphView._STRUCTURE_FIELDS:
            self._materialize_structure()
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return object.__getattribute__(self, name)

    # ------------------------------------------------------------------ #
    # Lazy materialisation (mirrors Graph._from_csr_lists field for field)
    # ------------------------------------------------------------------ #
    def _materialize_structure(self) -> None:
        source = self._source
        ptr = source.indptr.tolist()
        idx = source.indices.tolist()
        table = source.label_table
        self._labels = tuple([table[code] for code in source.label_codes.tolist()])
        self._adjacency = tuple(
            [tuple(frozenset(idx[ptr[v] : ptr[v + 1]])) for v in range(source.order)]
        )
        self._edges = None
        self._vertices_by_label = None

    def _materialize_mask_core(self) -> None:
        source = self._source
        n = source.order
        if n <= _CSR_SCALAR_CUTOFF:
            ptr = source.indptr.tolist()
            idx = source.indices.tolist()
            rows = [idx[ptr[v] : ptr[v + 1]] for v in range(n)]
            self._init_bitmask_core(rows, source.label_codes.tolist(), source.label_table)
        else:
            self._init_bitmask_core_from_csr(
                source.indptr, source.indices, source.label_codes, source.label_table
            )

    # ------------------------------------------------------------------ #
    # CSR-native reads (no materialisation)
    # ------------------------------------------------------------------ #
    @property
    def packed(self) -> PackedGraph:
        """The backing CSR record."""
        return self._source

    @property
    def order(self) -> int:
        return self._source.order

    @property
    def full_vertex_mask(self) -> int:
        return (1 << self._source.order) - 1

    def vertices(self) -> range:
        return range(self._source.order)

    def label(self, vertex: int) -> object:
        return self._source.label_table[int(self._source.label_codes[vertex])]

    def degree(self, vertex: int) -> int:
        return int(self._source.degrees[vertex])

    def has_edge(self, u: int, v: int) -> bool:
        return self._source.has_edge(u, v)

    def has_vertex(self, vertex: int) -> bool:
        return 0 <= vertex < self._source.order

    def common_neighbors(self, u: int, v: int) -> np.ndarray:
        """Sorted common neighbours (CSR two-pointer; see :class:`PackedGraph`)."""
        return self._source.common_neighbors(u, v)

    def __len__(self) -> int:
        return self._source.order

    def __iter__(self):
        return iter(range(self._source.order))

    # ------------------------------------------------------------------ #
    # Round-trips and identity
    # ------------------------------------------------------------------ #
    def to_packed(self) -> PackedGraph:
        """Packing a view is free: return the backing record."""
        return self._source

    def with_id(self, graph_id: object) -> "PackedGraphView":
        """A fresh view carrying ``graph_id`` (record re-labelled, not copied).

        The validating :class:`PackedGraph` constructor recognises the arrays
        as contiguous read-only views and adopts them without copying.
        """
        source = self._source
        if graph_id == source.graph_id:
            return PackedGraphView(source)
        return PackedGraphView(
            PackedGraph(
                source.indptr,
                source.indices,
                source.label_codes,
                source.label_table,
                graph_id=graph_id,
            )
        )

    def __reduce__(self):
        # Views can wrap borrowed mmap pages; pickle the portable record.
        return (_view_from_record, (self._source.to_bytes(),))

    def __repr__(self) -> str:
        ident = f" id={self._graph_id!r}" if self._graph_id is not None else ""
        return f"<PackedGraphView{ident} |V|={self.order} |E|={self.size}>"


def _view_from_record(payload: bytes) -> PackedGraphView:
    return PackedGraphView(PackedGraph.from_bytes(payload))
