"""GCindex: the combined subgraph/supergraph index over cached queries.

GraphCache indexes the *cached query graphs* (not the dataset) so that, given
a new query ``g``, it can quickly find

* ``Resultsub(g)`` — cached queries ``g'`` with ``g ⊆ g'`` (``g`` is a
  subgraph of a previous query), and
* ``Resultsuper(g)`` — cached queries ``g''`` with ``g'' ⊆ g`` (``g`` is a
  supergraph of a previous query).

The index is GraphGrepSX's counted path index built over the cached queries
(as in the paper, §6.1) — the same flat :class:`~repro.ftv.postings.Postings`
map Method M's GGSX/Grapes filter with — augmented with per-query feature
counters so the same structure serves both directions:

* sub-direction filtering probes the postings: a cached query can only be a
  supergraph of ``g`` — i.e. contain ``g`` — if it contains every label path
  of ``g`` at least as often;
* super-direction filtering scans the cached queries (the cache holds at
  most a few hundred entries): an entry larger than ``g`` in order or size
  is rejected outright, then one whose probe ``g``'s counter does not
  dominate, and only the rest pay for vertex/edge/label-histogram dominance.

``g``'s counter and sorted probe are memoised per query structure; a path
index Method M hands over the counter its filter enumerated
(:meth:`QueryGraphIndex.adopt_features`), so a miss enumerates ``g`` once.

Both filters are *necessary-condition* filters: surviving candidates are then
confirmed with an actual sub-iso test by the GC processors.  Beside them, each
copy keeps an exact-hit table ``structure → serial``, so a query equal to a
cached one is found with one probe (:meth:`IndexView.exact_serial`).

Double-buffered reads
---------------------
With ``double_buffered=True`` the index keeps **two** complete copies of its
structures.  Readers always work against the *published* copy through a
reference-counted :class:`IndexView`; writers mutate the standby copy,
atomically publish it (bumping :attr:`version`), wait for the old copy's
readers to drain, and replay the same ops onto it so both copies converge.
Consequences:

* lookups never block on an in-flight mutation — a query served while a
  maintenance apply is still underway reads the previously published
  snapshot, in full;
* :meth:`apply_delta` takes a whole maintenance round's removals and
  additions under one write-lock hold and publishes them **once**, so readers
  observe a cache-update round atomically (never a half-applied window);
* mutation cost stays O(ops): each logical op is applied once per copy
  (``op_counts`` records logical ops, not per-copy applications).

With ``double_buffered=False`` (what :class:`~repro.core.cache.GraphCache`
selects under ``maintenance_mode="sync"``, where applies and lookups are
already serialized by the GC lock, and what the shard router uses for its
never-mutated feature extractor) a single copy is kept and views take the
write lock — the pre-scheduler locking, without the second copy's memory
or the twice-applied mutations.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from ..analysis.runtime import make_condition, make_rlock
from ..ftv.features import extract_label_paths
from ..ftv.postings import Postings
from ..graphs.graph import Graph
from ..graphs.signatures import could_be_subgraph
from ..memo import BoundedMemo

__all__ = ["IndexOpCounts", "IndexView", "QueryFeatures", "QueryGraphIndex"]


class QueryFeatures(NamedTuple):
    """One query's label-path counter and the probe derived from it."""

    #: ``extract_label_paths(query, max_path_length)`` — read-only.
    counts: Counter
    #: The most selective (longest) ``(feature, count)`` pairs, longest first.
    probe: Tuple[Tuple[Tuple[str, ...], int], ...]


@dataclass
class IndexOpCounts:
    """Deterministic mutation counters of one :class:`QueryGraphIndex`.

    ``adds``/``removes`` count per-query index mutations (a rebuild's
    re-insertions also land in ``adds``); ``rebuilds`` counts whole-index
    swaps.  The maintenance benchmark asserts on :attr:`incremental_ops`
    deltas to prove a cache-update round touches O(window) index entries,
    not O(cache).  Each logical op counts once even though the double
    buffer applies it to both copies.
    """

    adds: int = 0
    removes: int = 0
    rebuilds: int = 0

    @property
    def incremental_ops(self) -> int:
        """Total per-query mutations (adds + removes)."""
        return self.adds + self.removes


class _IndexBuffer:
    """One complete copy of the index structures plus its reader count."""

    __slots__ = ("postings", "features", "graphs", "exact", "readers")

    def __init__(self) -> None:
        self.postings = Postings()
        self.features: Dict[int, QueryFeatures] = {}
        self.graphs: Dict[int, Graph] = {}
        #: Labelled structure -> serial of the indexed query equal to it.
        self.exact: Dict[Graph, int] = {}
        self.readers = 0


class IndexView:
    """A reference-counted read view over one published index snapshot.

    Obtained from :meth:`QueryGraphIndex.view` and used as a context
    manager (``with index.view() as snapshot:``); while held, the snapshot
    is immutable — an in-flight maintenance apply publishes a *new* snapshot
    and waits for this view to be released before reusing the buffer.
    """

    __slots__ = ("_index", "_buffer", "version")

    def __init__(self, index: "QueryGraphIndex", buffer: _IndexBuffer, version: int) -> None:
        self._index = index
        self._buffer = buffer
        #: Publication version of the snapshot this view reads.
        self.version = version

    # -- read API (mirrors the index's own read methods) ---------------- #
    def __len__(self) -> int:
        return len(self._buffer.graphs)

    def __contains__(self, serial: int) -> bool:
        return serial in self._buffer.graphs

    def serials(self) -> List[int]:
        """Serial numbers of every indexed query (insertion order)."""
        return list(self._buffer.graphs)

    def graph(self, serial: int) -> Graph:
        """Return the indexed query graph with the given serial."""
        return self._buffer.graphs[serial]

    def exact_serial(self, query: Graph) -> Optional[int]:
        """Serial of an indexed query equal to ``query``, if the table has one."""
        return self._buffer.exact.get(query)

    def candidate_supergraphs(self, query: Graph, features: QueryFeatures) -> FrozenSet[int]:
        """Cached queries that *may contain* ``query`` (``Resultsub`` candidates)."""
        graphs = self._buffer.graphs
        return frozenset(
            serial
            for serial in self._buffer.postings.filter_ordered(features.probe)
            if could_be_subgraph(query, graphs[serial])
        )

    def candidate_subgraphs(self, query: Graph, features: QueryFeatures) -> FrozenSet[int]:
        """Cached queries that *may be contained in* ``query`` (``Resultsuper`` candidates)."""
        counts = features.counts
        order, size = query.order, query.size
        graphs = self._buffer.graphs
        survivors: List[int] = []
        for serial, cached in self._buffer.features.items():
            cached_graph = graphs[serial]
            if cached_graph.order > order or cached_graph.size > size:
                continue  # could_be_subgraph's first test
            for feature, count in cached.probe:
                if counts.get(feature, 0) < count:
                    break
            else:
                if could_be_subgraph(cached_graph, query):
                    survivors.append(serial)
        return frozenset(survivors)

    def approximate_size_bytes(self) -> int:
        """Rough memory footprint of the snapshot (postings + feature counters)."""
        counters = sum(
            48 + 24 * len(features.counts) for features in self._buffer.features.values()
        )
        return self._buffer.postings.approximate_size_bytes() + counters

    def __enter__(self) -> "IndexView":
        return self

    def __exit__(self, *exc_info) -> None:
        self._index._release_buffer(self._buffer)


class QueryGraphIndex:
    """Counted path index over a set of cached query graphs.

    Parameters
    ----------
    max_path_length:
        Maximum label-path length (in edges) extracted from each query graph.
        Queries are small, so a modest length (3 by default in
        :class:`~repro.core.config.GraphCacheConfig`) gives good pruning at a
        tiny indexing cost.
    """

    #: Number of (longest-first) features used as the filtering probe.  Longer
    #: paths are the most selective features; using only a bounded probe keeps
    #: GC's per-query filtering overhead small and independent of query size,
    #: and is sound — weakening a necessary-condition filter can only let more
    #: candidates through to the confirmation sub-iso test.
    PROBE_LIMIT = 24

    def __init__(
        self, max_path_length: int = 3, double_buffered: bool = True
    ) -> None:
        self._max_path_length = max_path_length
        #: Deterministic mutation counters (see :class:`IndexOpCounts`).
        self.op_counts = IndexOpCounts()
        # Double buffer: readers use the published copy, writers mutate the
        # standby copy and swap.  At rest both copies hold identical content
        # and the standby has no readers.  Single-copy mode skips the second
        # copy; views then exclude writers via the write lock itself.
        self._double_buffered = double_buffered
        self._buffers = (
            (_IndexBuffer(), _IndexBuffer()) if double_buffered else (_IndexBuffer(),)
        )
        self._published = 0
        self._version = 0
        # Guards the published pointer and the per-buffer reader counts; the
        # condition wakes writers waiting for a retired buffer to drain.
        self._read_cond = make_condition("index.readers")
        # Serializes writers; single-copy views take it too.
        self._write_lock = make_rlock("index.write")
        # Query → QueryFeatures, keyed by the query's labelled structure,
        # which Zipf-skewed workloads repeat heavily.
        self._feature_memo = BoundedMemo(8192)

    # ------------------------------------------------------------------ #
    @property
    def max_path_length(self) -> int:
        """Maximum indexed label-path length in edges."""
        return self._max_path_length

    @property
    def version(self) -> int:
        """Publication counter: bumps once per published delta or rebuild.

        A reader that observes the same version before and after an
        operation is guaranteed to have read one unchanged snapshot — the
        deterministic evidence the mid-apply tests pin.
        """
        with self._read_cond:
            return self._version

    # ------------------------------------------------------------------ #
    # Read views.
    # ------------------------------------------------------------------ #
    def view(self) -> IndexView:
        """Pin the currently published snapshot for reading.

        Double-buffered: never blocks on an in-flight mutation — an apply
        that has not yet published is invisible, and one that has published
        is complete.  Single-copy: takes the (re-entrant) write lock, so
        reads and mutations exclude each other, as before the scheduler.
        Use the view as a context manager.
        """
        if not self._double_buffered:
            self._write_lock.acquire()
            return IndexView(self, self._buffers[0], self._version)
        with self._read_cond:
            buffer = self._buffers[self._published]
            buffer.readers += 1
            return IndexView(self, buffer, self._version)

    def _release_buffer(self, buffer: _IndexBuffer) -> None:
        if not self._double_buffered:
            self._write_lock.release()
            return
        with self._read_cond:
            buffer.readers -= 1
            if buffer.readers == 0:
                self._read_cond.notify_all()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self.view() as snapshot:
            return len(snapshot)

    def __contains__(self, serial: int) -> bool:
        with self.view() as snapshot:
            return serial in snapshot

    def serials(self) -> List[int]:
        """Serial numbers of every indexed query."""
        with self.view() as snapshot:
            return snapshot.serials()

    def graph(self, serial: int) -> Graph:
        """Return the indexed query graph with the given serial."""
        with self.view() as snapshot:
            return snapshot.graph(serial)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _probe_of(features: Counter) -> Tuple[Tuple[Tuple[str, ...], int], ...]:
        """The most selective features of a counter: longest first, then by key.

        Equal to ``sorted(items, key=(-len(key), key))[:PROBE_LIMIT]``, but
        only the length buckets that reach the probe are ordered.
        """
        buckets: Dict[int, list] = {}
        for item in features.items():
            buckets.setdefault(len(item[0]), []).append(item)
        probe: list = []
        room = QueryGraphIndex.PROBE_LIMIT
        for length in sorted(buckets, reverse=True):
            bucket = buckets[length]
            if len(bucket) >= room:
                probe += heapq.nsmallest(room, bucket)  # keys are distinct
                break
            bucket.sort()
            probe += bucket
            room -= len(bucket)
        return tuple(probe)

    # ------------------------------------------------------------------ #
    # Mutation: standby-apply, publish, drain, replay.
    # ------------------------------------------------------------------ #
    def _standby(self) -> _IndexBuffer:
        if not self._double_buffered:
            return self._buffers[0]
        return self._buffers[1 - self._published]

    def _apply_add(self, buffer: _IndexBuffer, serial: int, query: Graph) -> None:
        features = self.query_features(query)
        buffer.postings.insert_features(features.counts, serial)
        buffer.features[serial] = features
        buffer.graphs[serial] = query
        # Equal twins (two background rounds admitting one structure) keep
        # the lowest serial, the one the processors' loop would credit.
        buffer.exact[query] = min(serial, buffer.exact.get(query, serial))

    def _apply_remove(self, buffer: _IndexBuffer, serial: int) -> bool:
        if serial not in buffer.graphs:
            return False
        buffer.postings.remove_owner(serial, buffer.features.pop(serial).counts)
        query = buffer.graphs.pop(serial)
        # A surviving twin is not re-entered (that would scan every entry on
        # every eviction): its repeats take the processors' loop instead.
        if buffer.exact.get(query) == serial:
            del buffer.exact[query]
        return True

    def _apply_delta(
        self,
        buffer: _IndexBuffer,
        removals: Iterable[int],
        additions: Iterable[Tuple[int, Graph]],
        removed: List[int],
        added: List[Tuple[int, Graph]],
        reset: bool = False,
    ) -> None:
        """Remove, then add, on ``buffer`` (emptied first on ``reset``), logging
        each op that lands in ``removed`` (present serials only) or ``added``."""
        if reset:
            buffer.postings, buffer.features, buffer.graphs, buffer.exact = Postings(), {}, {}, {}
        for serial in removals:
            if self._apply_remove(buffer, serial):
                removed.append(serial)
        for serial, query in additions:
            self._apply_add(buffer, serial, query)
            added.append((serial, query))

    def _publish(
        self, replay: Callable[[_IndexBuffer], None], version: Optional[int] = None
    ) -> None:
        """Swap the buffers, bump the version (or set ``version``), drain the
        old copy and converge it by calling ``replay`` on it.  Called under
        the write lock with the mutation applied to the standby copy.

        Single-copy mode: mutations already landed in the only copy (under
        the write lock, which also excludes views), so publication is just
        the version bump.
        """
        if not self._double_buffered:
            with self._read_cond:
                self._version = self._version + 1 if version is None else version
            return
        with self._read_cond:
            retired = self._buffers[self._published]
            self._published = 1 - self._published
            self._version = self._version + 1 if version is None else version
            while retired.readers > 0:
                self._read_cond.wait()
        replay(retired)

    def apply_delta(
        self,
        additions: Iterable[Tuple[int, Graph]] = (),
        removals: Iterable[int] = (),
        before_publish: Optional[Callable[[], None]] = None,
    ) -> None:
        """Remove ``removals``, then index ``additions``, as one publication.

        The write lock is taken once and every op lands in the standby copy,
        so readers keep the previous snapshot until the whole delta publishes
        with one :attr:`version` bump — a maintenance round is atomic for
        concurrent lookups.  An absent serial in ``removals`` is skipped; a
        delta that changes nothing publishes nothing.  ``before_publish``
        runs with the delta applied but not yet visible.  When an op or the
        hook raises, the ops that landed before it still publish.
        """
        removed, added = [], []
        with self._write_lock:
            try:
                self._apply_delta(self._standby(), removals, additions, removed, added)
                if before_publish is not None:
                    before_publish()
            finally:
                # What landed in the standby copy publishes even when an op or
                # the hook raised, so the two copies never drift apart.
                self.op_counts.removes += len(removed)
                self.op_counts.adds += len(added)
                if removed or added:
                    self._publish(lambda buffer: self._apply_delta(buffer, removed, added, [], []))

    def add(self, serial: int, query: Graph) -> None:
        """Index a cached query graph under its serial number."""
        self.apply_delta(additions=((serial, query),))

    def remove(self, serial: int) -> None:
        """Remove a cached query from the index (no-op if absent)."""
        self.apply_delta(removals=(serial,))

    def rebuild(
        self, entries: Iterable[Tuple[int, Graph]], version: Optional[int] = None
    ) -> None:
        """Rebuild the index from scratch for a new set of cached queries.

        This mirrors the restore/warm-start path: the new index contents are
        built on the standby copy and swapped in wholesale.  ``version`` (a
        restored state record's) is published instead of the next one.
        """
        materialized, added = list(entries), []
        with self._write_lock:
            self.op_counts.rebuilds += 1
            try:
                self._apply_delta(self._standby(), (), materialized, [], added, reset=True)
            finally:
                self.op_counts.adds += len(added)
                self._publish(
                    lambda buffer: self._apply_delta(buffer, (), added, [], [], True), version
                )

    # ------------------------------------------------------------------ #
    # Candidate generation (to be confirmed by sub-iso tests).
    # ------------------------------------------------------------------ #
    def query_features(self, query: Graph) -> QueryFeatures:
        """Feature counter and probe of a new query (shared by both directions).

        Memoised on the query's labelled structure: repeated queries (the
        common case under skewed workloads) pay for path extraction and the
        probe sort once.  Callers must treat the counter as read-only.
        """
        features = self._feature_memo.get(query)
        if features is None:
            features = self._remember_features(
                query, extract_label_paths(query, self._max_path_length)
            )
        return features

    def adopt_features(self, query: Graph, paths: Counter, path_length: int) -> None:
        """Memoise ``query``'s features from ``extract_label_paths(query, path_length)``.

        Canonical keys do not depend on the length bound, so dropping keys of
        more than ``max_path_length + 1`` labels is exact; a shorter counter
        is ignored.
        """
        if path_length < self._max_path_length or query in self._feature_memo:
            return
        labels = self._max_path_length + 1
        self._remember_features(
            query,
            Counter({key: count for key, count in paths.items() if len(key) <= labels}),
        )

    def _remember_features(self, query: Graph, counts: Counter) -> QueryFeatures:
        return self._feature_memo.put(query, QueryFeatures(counts, self._probe_of(counts)))

    # ------------------------------------------------------------------ #
    def approximate_size_bytes(self) -> int:
        """Rough memory footprint of the index (postings + feature counters).

        Reports one copy's footprint — the logical index size the
        paper-facing space-overhead figure measures.  A double-buffered
        index (non-``sync`` maintenance modes) physically holds two copies.
        """
        with self.view() as snapshot:
            return snapshot.approximate_size_bytes()
