"""Feature extraction for filter-then-verify (FTV) indexing.

FTV methods decompose graphs into small *features* and index which dataset
graph contains which feature (and how many times).  A query can only be
contained in dataset graphs that contain every feature of the query at least
as many times — this is the filtering stage.  The methods bundled with
GraphCache use three feature families:

* **label paths** (GraphGrepSX, Grapes): sequences of vertex labels along
  simple paths of up to ``max_length`` edges;
* **trees** (CT-Index): here represented by the same bounded label paths,
  which are the degenerate trees that dominate CT-Index fingerprints on
  sparse molecule graphs;
* **cycles** (CT-Index): label sequences along simple cycles of bounded size.

All extraction functions return a :class:`collections.Counter` keyed by a
*canonical* feature key so that a path read in either direction (or a cycle
read from any starting point / direction) maps to the same key.  A path key
does not depend on the length bound, so the GCindex cuts its counter out of
Method M's longer one by key length (``QueryGraphIndex.adopt_features``).

Two extraction routes produce Counter-identical results, both oracled
against brute-force ``networkx`` path and cycle enumerations:

* the **decoded route** (:func:`extract_label_paths` /
  :func:`extract_label_cycles`) walks a materialised
  :class:`~repro.graphs.graph.Graph`;
* the **CSR-native route** (:func:`packed_path_features` /
  :func:`packed_cycle_features`) walks a
  :class:`~repro.graphs.packed.PackedGraph` record's ``indptr``/``indices``
  slices.  Canonicalisation runs on small integers: each label code maps
  once to its *rank* in the sorted distinct ``str(label)`` universe of the
  record's label table (:func:`label_rank_map`), so comparing rank tuples
  is order-equivalent to comparing the string tuples the keys are built
  from, and only the chosen canonical sequence is decoded back to strings.
  Int- and str-labelled datasets therefore get identical keys through both
  routes.

:func:`path_features` / :func:`cycle_features` dispatch on the input:
packed records and :class:`~repro.graphs.packed.PackedGraphView` objects
take the CSR-native route without materialising a ``Graph``; everything
else takes the decoded route.  Each route earns its keep in one role.  An
FTV index build featurises each *dataset* graph through a transient
``graph.to_packed()``: at 4 edges, packing included, the stand-ins' whole
datasets take 0.058 s decoded and 0.031 s CSR (aids, 200 graphs), 0.27 s
and 0.075 s (pdbs, 60 graphs of ~410 vertices), on one core of an AMD
EPYC.  A *query* keeps the decoded route, faster on query-sized graphs: a
13-vertex query of either stand-in takes ~50 µs decoded and ~90 µs CSR.
A record with too many distinct labels for ``int64`` path codes is
decoded instead (see :func:`packed_path_features`).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.packed import PackedGraph, PackedGraphView

__all__ = [
    "canonical_path_key",
    "canonical_cycle_key",
    "label_rank_map",
    "extract_label_paths",
    "extract_label_cycles",
    "packed_path_features",
    "packed_cycle_features",
    "path_features",
    "cycle_features",
]

FeatureKey = Tuple[str, ...]


def canonical_path_key(labels: Iterable[object]) -> FeatureKey:
    """Canonical key of a label path: the lexicographically smaller direction."""
    forward = tuple(str(label) for label in labels)
    backward = tuple(reversed(forward))
    return forward if forward <= backward else backward


def canonical_cycle_key(labels: Iterable[object]) -> FeatureKey:
    """Canonical key of a label cycle: minimal rotation over both directions."""
    ring = tuple(str(label) for label in labels)
    if not ring:
        return ("cycle",)
    return ("cycle",) + _minimal_rotation(ring)  # tag distinguishes cycles from paths


def _minimal_rotation(ring: Tuple) -> Tuple:
    """Lexicographically minimal rotation of ``ring`` over both directions."""
    best = None
    for sequence in (ring, tuple(reversed(ring))):
        for shift in range(len(sequence)):
            rotation = sequence[shift:] + sequence[:shift]
            if best is None or rotation < best:
                best = rotation
    return best


def label_rank_map(label_table: Tuple[object, ...]) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
    """Per-table integer canonicalisation: ``(code -> rank, rank -> string)``.

    The rank of a label code is the index of its ``str(label)`` in the sorted
    distinct-string universe of the table, so rank comparison is
    order-equivalent to string comparison (labels whose strings collide —
    e.g. ``1`` and ``"1"`` — share a rank, exactly as they share a canonical
    key).  Computed per call: a record's table is in first-occurrence order,
    so dataset records rarely repeat one, and a memo keyed on it would miss
    about half the time and pin the tables it keeps.
    """
    strings = [str(label) for label in label_table]
    ordered = tuple(sorted(set(strings)))
    rank_of = {s: rank for rank, s in enumerate(ordered)}
    return tuple(rank_of[s] for s in strings), ordered


def extract_label_paths(graph: Graph, max_length: int) -> Counter:
    """Count all simple label paths with 0..``max_length`` edges.

    A path with 0 edges is a single vertex (its label alone); each undirected
    path is counted once (not once per direction).

    Level-by-level frontier of *directed* simple paths ``(end vertex,
    visited bitmask, label sequence)``.  Both directions of a sequence are
    counted equally often, so each distinct sequence is canonicalised once:
    the smaller direction keeps its count, a palindrome half of its own.
    """
    counts: Counter = Counter()
    if max_length < 0:
        return counts
    labels = [str(label) for label in graph.labels]
    for label in labels:
        counts[(label,)] += 1
    frontier = [(vertex, 1 << vertex, (label,)) for vertex, label in enumerate(labels)]
    for edges in range(1, max_length + 1):
        grow = edges < max_length  # the last level is counted, not kept
        extended: List[Tuple[int, int, FeatureKey]] = []
        directed: dict = {}
        for last, visited, sequence in frontier:
            for neighbour in graph.neighbors(last):
                bit = 1 << neighbour
                if visited & bit:
                    continue
                longer = sequence + (labels[neighbour],)
                directed[longer] = directed.get(longer, 0) + 1
                if grow:
                    extended.append((neighbour, visited | bit, longer))
        for sequence, found in directed.items():
            backward = sequence[::-1]
            if sequence < backward:
                counts[sequence] += found
            elif sequence == backward:
                counts[sequence] += found // 2
        frontier = extended
    return counts


def extract_label_cycles(graph: Graph, max_size: int) -> Counter:
    """Count all simple label cycles with 3..``max_size`` vertices.

    Each cycle is counted once regardless of starting vertex or direction.
    """
    if max_size < 3:
        return Counter()
    rows = [graph.neighbors(vertex) for vertex in graph.vertices()]
    return _count_cycles(
        rows, max_size, lambda path: canonical_cycle_key(graph.label(v) for v in path)
    )


def _count_cycles(
    rows: List, max_size: int, ring_key: Callable[[List[int]], FeatureKey]
) -> Counter:
    """Count the simple cycles of 3..``max_size`` vertices over adjacency
    ``rows``, each under ``ring_key(vertex path)``.

    A cycle is discovered only from its minimum vertex (the walk never
    steps below ``start``), and its vertex ring's minimal rotation over
    both directions dedups the two directions it is walked in.
    """
    counts: Counter = Counter()
    seen_cycles: set = set()
    for start in range(len(rows)):
        stack: List[Tuple[int, List[int]]] = [(start, [start])]
        while stack:
            current, path = stack.pop()
            for neighbour in rows[current]:
                if neighbour == start and len(path) >= 3:
                    best = _minimal_rotation(tuple(path))
                    if best in seen_cycles:
                        continue
                    seen_cycles.add(best)
                    counts[ring_key(path)] += 1
                elif neighbour not in path and len(path) < max_size and neighbour > start:
                    stack.append((neighbour, path + [neighbour]))
    return counts


# --------------------------------------------------------------------------- #
# CSR-native extraction over packed records
# --------------------------------------------------------------------------- #
def packed_path_features(packed: PackedGraph, max_length: int) -> Counter:
    """CSR-native :func:`extract_label_paths` over a packed record.

    Level-synchronous frontier expansion instead of a per-path DFS: level
    ``L`` holds every directed simple path of ``L`` edges as parallel numpy
    arrays — its end vertex, its visited-vertex set, and two integer *path
    codes* (the base-``W`` digit strings of the forward and reversed label
    ranks, ``W`` = rank universe size, see :func:`label_rank_map`).  One
    CSR gather extends all paths at once, one elementwise minimum picks
    each path's canonical code (integer comparison of equal-length base-W
    numbers is exactly the lexicographic comparison the decoded extractor
    does on string tuples), and one ``np.unique`` counts the level.  Every
    undirected path appears twice (once per direction), so the unique
    counts are halved; the surviving canonical codes — a far smaller set
    than the paths — are decoded to string keys only when the Counter is
    filled, one numpy digit expression per level.  The codes are ``int64``,
    so a record whose ``W ** (max_length + 1)`` exceeds ``2**63`` (at 4
    edges, more than 6 208 distinct labels) takes the decoded route
    instead.  Visited sets are single ``uint64`` bitsets when the graph has
    at most 64 vertices (the common case for molecule records), otherwise
    a per-level column comparison against the stored path matrix.
    Counter-identical to the decoded extractor on the same graph.
    """
    counts: Counter = Counter()
    if max_length < 0:
        return counts
    n = packed.order
    if n == 0:
        return counts
    code_ranks, strings = label_rank_map(packed.label_table)
    width = len(strings)
    if width ** (max_length + 1) > 2**63:
        # The longest level's codes would wrap in int64: exact beats fast.
        return extract_label_paths(packed.to_graph(), max_length)
    rank_arr = np.asarray(code_ranks, dtype=np.int64)[packed.label_codes]

    # 0-edge paths (single vertices): one vectorised histogram over ranks.
    occupancy = np.bincount(rank_arr, minlength=width)
    for rank in np.nonzero(occupancy)[0].tolist():
        counts[(strings[rank],)] = int(occupancy[rank])
    if max_length == 0 or not len(packed.indices):
        return counts

    indptr = packed.indptr.astype(np.int64)
    indices = packed.indices.astype(np.int64)
    powers = width ** np.arange(max_length + 1, dtype=np.int64)
    label_strings = np.array(strings, dtype=object)
    small = n <= 64

    last = np.arange(n, dtype=np.int64)
    forward = rank_arr.copy()
    backward = rank_arr.copy()
    if small:
        bit_table = np.uint64(1) << np.arange(n, dtype=np.uint64)
        visited = bit_table.copy()
        paths: Optional[np.ndarray] = None
    else:
        bit_table = None
        visited = None
        paths = last.reshape(n, 1)
    for edges in range(1, max_length + 1):
        starts = indptr[last]
        degrees = indptr[last + 1] - starts
        total = int(degrees.sum())
        if not total:
            break
        parent = np.repeat(np.arange(len(last), dtype=np.int64), degrees)
        neighbour = indices[
            np.repeat(starts - (np.cumsum(degrees) - degrees), degrees)
            + np.arange(total, dtype=np.int64)
        ]
        if small:
            keep = (visited[parent] & bit_table[neighbour]) == 0
        else:
            keep = np.ones(total, dtype=bool)
            for column in range(paths.shape[1]):
                keep &= neighbour != paths[parent, column]
        parent = parent[keep]
        neighbour = neighbour[keep]
        if not len(parent):
            break
        step_rank = rank_arr[neighbour]
        forward = forward[parent] * width + step_rank
        backward = backward[parent] + step_rank * powers[edges]
        if small:
            visited = visited[parent] | bit_table[neighbour]
        else:
            paths = np.concatenate([paths[parent], neighbour[:, None]], axis=1)
        last = neighbour
        uniques, pair_counts = np.unique(
            np.minimum(forward, backward), return_counts=True
        )
        # Decode every canonical code at once: its base-W digits index the
        # rank -> string table.  Codes are unique within a level and key
        # lengths differ across levels, so one update per level adds no
        # key twice; each undirected path was found once per direction.
        digits = uniques[:, None] // powers[edges::-1] % width
        keys = map(tuple, label_strings[digits].tolist())
        counts.update(dict(zip(keys, (pair_counts // 2).tolist(), strict=True)))
    return counts


def packed_cycle_features(packed: PackedGraph, max_size: int) -> Counter:
    """CSR-native :func:`extract_label_cycles` over a packed record.

    The same walk over the record's CSR rows; the label ring is
    canonicalised as a rank tuple and decoded to strings at the boundary.
    """
    if max_size < 3 or packed.order == 0:
        return Counter()
    code_ranks, strings = label_rank_map(packed.label_table)
    vertex_rank = [code_ranks[code] for code in packed.label_codes.tolist()]
    ptr = packed.indptr.tolist()
    idx = packed.indices.tolist()
    rows = [idx[ptr[v] : ptr[v + 1]] for v in range(packed.order)]

    def ring_key(path: List[int]) -> FeatureKey:
        ring = _minimal_rotation(tuple(vertex_rank[v] for v in path))
        return ("cycle",) + tuple(strings[r] for r in ring)

    return _count_cycles(rows, max_size, ring_key)


def _packed_source(graph: Graph) -> Optional[PackedGraph]:
    """The CSR record behind ``graph``, when extraction can skip decoding."""
    if isinstance(graph, PackedGraphView):
        return graph.packed
    if isinstance(graph, PackedGraph):
        return graph
    return None


def path_features(graph: Graph, max_length: int) -> Counter:
    """Bounded label-path features (GGSX / Grapes / CT-Index tree features)."""
    packed = _packed_source(graph)
    if packed is not None:
        return packed_path_features(packed, max_length)
    return extract_label_paths(graph, max_length)


def cycle_features(graph: Graph, max_size: int) -> Counter:
    """Bounded label-cycle features (CT-Index), same dispatch as paths."""
    packed = _packed_source(graph)
    if packed is not None:
        return packed_cycle_features(packed, max_size)
    return extract_label_cycles(graph, max_size)
