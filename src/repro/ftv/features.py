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
against brute-force ``networkx`` path and cycle enumerations: the
**decoded route** (:func:`extract_label_paths` /
:func:`extract_label_cycles`) walks a :class:`~repro.graphs.graph.Graph`;
the **CSR-native route** walks :class:`~repro.graphs.packed.PackedGraph`
records' ``indptr``/``indices`` rows, canonicalising on label *ranks*
(:func:`label_rank_map`) and decoding only the chosen keys to strings, so
int- and str-labelled datasets get identical keys through both routes.

Each route earns its keep in one role.  An FTV index build featurises its
*dataset* in batches of consecutive records (:func:`dataset_path_features`):
at 4 edges, packing included, the stand-ins' whole datasets take 0.083 s
decoded and 0.023 s batched (aids, 200 graphs), 0.375 s and 0.086 s (pdbs,
60 graphs of ~410 vertices), on one core of a 2-vCPU Intel Xeon.  A
*query* takes :func:`extract_label_paths`, faster on query-sized graphs
even when it is a :class:`~repro.graphs.packed.PackedGraphView`: over 60
aids queries of 9–17 vertices, ~83 µs per query decoded (a fresh view
included) against ~215 µs as a CSR batch of one.  :func:`cycle_features`
sends packed records and views (CT-Index's dataset build) down the CSR
route and everything else down the decoded one.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, List, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.packed import PackedGraph, PackedGraphView

__all__ = [
    "canonical_path_key",
    "canonical_cycle_key",
    "label_rank_map",
    "extract_label_paths",
    "extract_label_cycles",
    "dataset_path_features",
    "packed_cycle_features",
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
    key).  Computed once per batch, over its concatenated tables: a memo
    keyed on tables would miss about half the time and pin what it keeps.
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
#: Vertices per featurisation batch: each numpy call serves ~20 aids records,
#: and the pdbs build's ``tracemalloc`` peak is ~1.1x a one-record batch's
#: (~7x for one whole-dataset batch).  A larger record is a batch of its own.
BATCH_VERTICES = 1024


def dataset_path_features(
    graphs: Iterable[Graph], max_length: int
) -> Iterator[Tuple[PackedGraph, Counter]]:
    """``(graph.to_packed(), extract_label_paths(graph, max_length))`` per
    graph, in order, featurised in batches of up to :data:`BATCH_VERTICES`."""
    batch: List[PackedGraph] = []
    vertices = 0
    for record in (graph.to_packed() for graph in graphs):
        if batch and vertices + record.order > BATCH_VERTICES:
            yield from zip(batch, _batch_counters(batch, max_length), strict=True)
            batch, vertices = [], 0
        batch.append(record)
        vertices += record.order
    yield from zip(batch, _batch_counters(batch, max_length), strict=True)


def _batch_counters(batch: List[PackedGraph], max_length: int) -> List[Counter]:
    """:func:`extract_label_paths` of every record in ``batch``, in one pass.

    The records' CSR rows are concatenated and their labels ranked under
    one sorted alphabet of ``W`` strings (:func:`label_rank_map`).  Level
    ``L`` holds every directed simple path of ``L`` edges as arrays: its
    vertex columns (a step must differ from each) and the base-``W`` codes
    of its forward and reversed ranks; the smaller is canonical, since
    equal-length base-``W`` numbers compare as their digit strings.  One
    ``np.unique`` over ``record * W ** (L + 1) + code`` counts a level for
    the whole batch, in ascending key order per record (halved: each path
    was found once per direction), and each distinct code is decoded once.
    A batch whose keys could pass ``2**63`` splits in two; a lone record
    that still overflows (at 4 edges, more than 6 208 labels) is decoded.
    """
    counts = [Counter() for _ in batch]
    orders = [record.order for record in batch]
    if max_length < 0 or not sum(orders):
        return counts
    tables = [label for record in batch for label in record.label_table]
    code_ranks, strings = label_rank_map(tables)
    width = len(strings)
    if len(batch) * width ** (max_length + 1) >= 2**63:
        if len(batch) == 1:  # the codes would wrap in int64: exact beats fast
            return [extract_label_paths(batch[0].to_graph(), max_length)]
        halves = (batch[: len(batch) // 2], batch[len(batch) // 2 :])
        return [counter for half in halves for counter in _batch_counters(half, max_length)]
    table_offsets = np.cumsum([0] + [len(record.label_table) for record in batch])
    rank = np.asarray(code_ranks, dtype=np.int64)[
        np.concatenate([record.label_codes for record in batch])
        + np.repeat(table_offsets[:-1], orders)
    ]
    owner = np.repeat(np.arange(len(batch), dtype=np.int64), orders)
    degrees = np.concatenate([record.degrees for record in batch]).astype(np.int64)
    row_starts = np.cumsum(degrees) - degrees
    shift = np.repeat(np.cumsum([0] + orders[:-1]), [len(record.indices) for record in batch])
    indices = np.concatenate([record.indices for record in batch]) + shift
    powers = width ** np.arange(max_length + 2, dtype=np.int64)
    label_strings = np.array(strings, dtype=object)

    last = np.arange(len(rank), dtype=np.int64)
    columns, forward, backward = [last], rank, rank
    for edges in range(max_length + 1):
        if edges:
            steps = degrees[last]
            parent = np.repeat(np.arange(len(last), dtype=np.int64), steps)
            row_offsets = np.repeat(row_starts[last] + steps - np.cumsum(steps), steps)
            neighbour = indices[row_offsets + np.arange(len(parent), dtype=np.int64)]
            # No self-loops, so only the columns before the last can repeat.
            keep = np.ones(len(parent), dtype=bool)
            for column in columns[:-1]:
                keep &= neighbour != column[parent]
            parent = parent[keep]
            last = neighbour[keep]
            if not len(last):  # no longer paths in the batch
                break
            step_rank = rank[last]
            forward = forward[parent] * width + step_rank
            backward = backward[parent] + step_rank * powers[edges]
            if edges < max_length:  # the last level is counted, not kept
                columns = [column[parent] for column in columns] + [last]
        level = owner[last] * powers[edges + 1] + np.minimum(forward, backward)
        keys, found = np.unique(level, return_counts=True)
        owners, codes = np.divmod(keys, powers[edges + 1])
        distinct, inverse = np.unique(codes, return_inverse=True)
        digits = distinct[:, None] // powers[edges::-1] % width
        decoded = list(map(tuple, label_strings[digits].tolist()))
        level_keys = list(map(decoded.__getitem__, inverse.tolist()))
        level_counts = (found // 2 if edges else found).tolist()  # found both ways
        cuts = np.searchsorted(owners, np.arange(len(batch) + 1)).tolist()
        for counter, low, high in zip(counts, cuts[:-1], cuts[1:], strict=True):
            # Keys differ in length across levels and are distinct within one,
            # so a plain dict update adds no key twice.
            dict.update(counter, zip(level_keys[low:high], level_counts[low:high], strict=True))
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


def cycle_features(graph: Graph | PackedGraph, max_size: int) -> Counter:
    """Bounded label-cycle features (CT-Index): a packed record or a view of
    one takes the CSR route, anything else the decoded one."""
    if isinstance(graph, PackedGraphView):
        graph = graph.packed
    if isinstance(graph, PackedGraph):
        return packed_cycle_features(graph, max_size)
    return extract_label_cycles(graph, max_size)
