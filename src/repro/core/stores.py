"""Cache and Window data stores (the Data Layer of §6.1).

Two store groups exist:

* the **Cache stores** hold the cached queries, their answer sets and their
  statistics — these feed the GC processors and the replacement policies;
* the **Window stores** hold the queries of the current window (new queries
  not yet considered for admission) together with their answer sets and
  static statistics.

Both stores are bounded hash tables keyed by the query's serial number, as in
the paper.  Since the storage-abstraction refactor they are thin *typed
facades* over a pluggable :class:`~repro.core.backends.StorageBackend`: the
capacity policy, the typed entry classes and the error semantics live here,
while the actual record container is either the in-RAM dictionary of the seed
(:class:`~repro.core.backends.InMemoryBackend`, the default) or a packed
graph arena (:class:`~repro.core.backends.MmapBackend`).
Persistence to disk at startup/shutdown is the cache-level snapshot of
:mod:`repro.core.persistence` (plus journal recovery), so a long-running
analytics session can be resumed.

Both stores are thread-safe: every mutation **and every compound read** —
including ``is_full``, ``free_slots``, ``__len__``, ``__contains__`` and
``get`` — holds an internal re-entrant lock, so the concurrent query pipeline
(:mod:`repro.core.pipeline`) and the batched service facade can share one
store across threads.  Iteration yields a point-in-time snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from ..analysis.runtime import make_rlock
from ..exceptions import CacheError
from ..graphs.graph import Graph
from ..graphs.io import graph_from_text, graph_to_text, parse_graph_text
from ..memo import BoundedMemo
from .backends import StorageBackend, create_backend

__all__ = [
    "CacheEntry",
    "CacheEntryCodec",
    "CacheStore",
    "WindowEntry",
    "WindowEntryCodec",
    "WindowStore",
    "expensiveness",
]


def expensiveness(nodes_expanded: int, features: int) -> float:
    """Admission-control score of §6.2: verification work (search-tree nodes
    the verifier expanded) over filtering work (distinct label-path features
    of the query)."""
    if features <= 0:
        return float("inf") if nodes_expanded > 0 else 0.0
    return nodes_expanded / features


class CacheEntry(NamedTuple):
    """One cached query: the query graph plus its answer set."""

    serial: int
    query: Graph
    answer_ids: FrozenSet[int]


class WindowEntry(NamedTuple):
    """One window query awaiting the next cache-update round.

    Carries everything the admission controller and the replacement round
    need: the answer set and the query's :func:`expensiveness`.
    """

    serial: int
    query: Graph
    answer_ids: FrozenSet[int]
    expensiveness: float


def _answers(record: Dict[str, Any], dataset_size: Optional[int]) -> FrozenSet[int]:
    """An encoded entry's answer ids; given ``dataset_size`` (state records
    and journal frames), each must be a graph id of that dataset."""
    answers = frozenset(map(int, record["answers"]))
    if dataset_size is not None and answers and not (
        0 <= min(answers) and max(answers) < dataset_size
    ):
        raise ValueError(
            f"entry {record['serial']} answers graph ids outside the "
            f"dataset's {dataset_size} graphs"
        )
    return answers


class CacheEntryCodec:
    """JSON codec for :class:`CacheEntry` (backend serialization + snapshots)."""

    @staticmethod
    def encode(entry: CacheEntry) -> Dict[str, Any]:
        return {
            "serial": entry.serial,
            "query": graph_to_text(entry.query),
            "answers": sorted(entry.answer_ids),
        }

    @staticmethod
    def decode(record: Dict[str, Any], dataset_size: Optional[int] = None) -> CacheEntry:
        return CacheEntry(
            serial=int(record["serial"]),
            query=graph_from_text(record["query"]),
            answer_ids=_answers(record, dataset_size),
        )


class WindowEntryCodec:
    """JSON codec for :class:`WindowEntry`."""

    @staticmethod
    def encode(entry: WindowEntry) -> Dict[str, Any]:
        return {
            "serial": entry.serial,
            "query": graph_to_text(entry.query),
            "answers": sorted(entry.answer_ids),
            "expensiveness": entry.expensiveness,
        }

    @staticmethod
    def check(record: Dict[str, Any], dataset_size: Optional[int] = None,
              parsed: Optional[BoundedMemo] = None) -> WindowEntry:
        """Every check :meth:`decode` makes, without building the query graph:
        the entry's ``query`` is a :class:`~repro.graphs.io.ParsedGraph`, one
        per distinct text in ``parsed`` (a caller's memo for one frame stream).
        A record without ``expensiveness`` (one priced in seconds, before the
        work score) raises :class:`CacheError`."""
        serial, text = int(record["serial"]), record["query"]
        if "expensiveness" not in record:
            raise CacheError(f"window entry {serial} carries no expensiveness score")
        if not isinstance(text, str):
            raise TypeError(f"entry query must be graph text, not {type(text).__name__}")
        query = None if parsed is None else parsed.get(text)
        if query is None:
            query = parse_graph_text(text)
            if parsed is not None:
                query = parsed.put(text, query)
        return WindowEntry(serial, query, _answers(record, dataset_size),
                           float(record["expensiveness"]))

    @staticmethod
    def decode(record: Dict[str, Any], dataset_size: Optional[int] = None) -> WindowEntry:
        entry = WindowEntryCodec.check(record, dataset_size)
        return entry._replace(query=entry.query.build())


class CacheStore:
    """Bounded store of cached queries and their answer sets."""

    def __init__(self, capacity: int, backend: Optional[StorageBackend] = None) -> None:
        if capacity <= 0:
            raise CacheError("cache capacity must be positive")
        self._capacity = capacity
        # Explicit None check: an *empty* backend is falsy (it has __len__),
        # so `backend or default` would silently discard it.
        self._backend = (
            backend if backend is not None else create_backend("memory", CacheEntryCodec())
        )
        self._lock = make_rlock("store.cache")

    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Maximum number of cached queries."""
        return self._capacity

    @property
    def backend(self) -> StorageBackend:
        """The storage backend holding the entries (exposed for inspection)."""
        return self._backend

    @property
    def is_full(self) -> bool:
        """``True`` when the store reached its configured capacity."""
        with self._lock:
            return self._backend.count() >= self._capacity

    def free_slots(self) -> int:
        """Number of additional entries the store can hold."""
        with self._lock:
            return max(0, self._capacity - self._backend.count())

    def __len__(self) -> int:
        with self._lock:
            return self._backend.count()

    def __contains__(self, serial: int) -> bool:
        with self._lock:
            return self._backend.contains(serial)

    def __iter__(self) -> Iterator[CacheEntry]:
        with self._lock:
            return iter(self._backend.entries())

    def serials(self) -> List[int]:
        """Serial numbers of every cached query."""
        with self._lock:
            return self._backend.serials()

    def get(self, serial: int) -> CacheEntry:
        """Return the entry with the given serial number."""
        with self._lock:
            entry = self._backend.get(serial)
        if entry is None:
            raise CacheError(f"query {serial} is not cached")
        return entry

    def answers(self, serial: int) -> Optional[FrozenSet[int]]:
        """The answer set cached under ``serial``, or ``None`` if not cached.

        The tolerant read for the pruner, which races a background
        maintenance apply: a serial taken from a published GCindex snapshot
        may have been evicted a moment later, which is not an error.  The
        backend need not decode the query graph to answer.
        """
        with self._lock:
            entry = self._backend.get_stub(serial)
        return None if entry is None else entry.answer_ids

    # ------------------------------------------------------------------ #
    def add(self, entry: CacheEntry) -> None:
        """Add an entry; raises if the store is full (evict first)."""
        with self._lock:
            if self._backend.contains(entry.serial):
                raise CacheError(f"query {entry.serial} is already cached")
            if self._backend.count() >= self._capacity:
                raise CacheError("cache store is full; evict entries before adding")
            self._backend.put(entry.serial, entry)

    def evict(self, serial: int) -> CacheEntry:
        """Remove and return the entry with the given serial number."""
        with self._lock:
            entry = self._backend.get(serial)
            if entry is None:
                raise CacheError(f"query {serial} is not cached")
            self._backend.delete(serial)
            return entry

    def apply_delta(
        self, add: Sequence[CacheEntry], remove: Iterable[int]
    ) -> None:
        """Row-level delta update: the maintenance engine's apply step.

        Removes the ``remove`` serials, then appends the ``add`` entries —
        O(delta) backend row operations instead of the O(store) rewrite of
        :meth:`replace_contents`, with the same observable iteration order
        (survivors keep their position, additions append).  Validates the
        same invariants as the seed's swap: every removed serial must be
        cached, no added serial may collide (with the survivors or within
        the batch), and the result must fit the capacity.
        """
        add = list(add)
        removals = list(remove)
        added_serials = {entry.serial for entry in add}
        if len(added_serials) != len(add):
            raise CacheError("duplicate serial numbers in cache-store delta")
        with self._lock:
            for serial in removals:
                if not self._backend.contains(serial):
                    raise CacheError(f"query {serial} is not cached")
            removed = set(removals)
            for entry in add:
                if entry.serial not in removed and self._backend.contains(
                    entry.serial
                ):
                    raise CacheError(f"query {entry.serial} is already cached")
            resulting = self._backend.count() - len(removed) + len(add)
            if resulting > self._capacity:
                raise CacheError(
                    f"{resulting} entries exceed the cache capacity of {self._capacity}"
                )
            self._backend.apply_delta(
                ((entry.serial, entry) for entry in add), removals
            )

    def replace_contents(self, entries: List[CacheEntry]) -> None:
        """Atomically swap in a new set of entries (the index-rebuild swap)."""
        if len(entries) > self._capacity:
            raise CacheError(
                f"{len(entries)} entries exceed the cache capacity of {self._capacity}"
            )
        serials = {entry.serial for entry in entries}
        if len(serials) != len(entries):
            raise CacheError("duplicate serial numbers in new cache contents")
        with self._lock:
            self._backend.replace_all((entry.serial, entry) for entry in entries)

    def close(self) -> None:
        """Release backend resources (database connections)."""
        with self._lock:
            self._backend.close()


class WindowStore:
    """Bounded store of the current window's queries."""

    def __init__(self, capacity: int, backend: Optional[StorageBackend] = None) -> None:
        if capacity <= 0:
            raise CacheError("window capacity must be positive")
        self._capacity = capacity
        self._backend = (
            backend if backend is not None else create_backend("memory", WindowEntryCodec())
        )
        self._lock = make_rlock("store.window")

    @property
    def capacity(self) -> int:
        """Maximum number of window queries before a cache-update round."""
        return self._capacity

    @property
    def backend(self) -> StorageBackend:
        """The storage backend holding the entries (exposed for inspection)."""
        return self._backend

    def __len__(self) -> int:
        with self._lock:
            return self._backend.count()

    def __contains__(self, serial: int) -> bool:
        with self._lock:
            return self._backend.contains(serial)

    def __iter__(self) -> Iterator[WindowEntry]:
        with self._lock:
            return iter(self._backend.entries())

    def add(self, entry: WindowEntry) -> None:
        """Add a window entry; raises if the window is already full."""
        with self._lock:
            if self._backend.count() >= self._capacity:
                raise CacheError("window store is full; drain it before adding")
            if self._backend.contains(entry.serial):
                raise CacheError(f"query {entry.serial} is already in the window")
            self._backend.put(entry.serial, entry)

    def drain(self) -> List[WindowEntry]:
        """Remove and return every window entry (ordered by serial)."""
        with self._lock:
            entries = sorted(self._backend.entries(), key=lambda entry: entry.serial)
            self._backend.clear()
        return entries

    def entries(self) -> List[WindowEntry]:
        """Current window entries (ordered by serial), without draining."""
        with self._lock:
            return sorted(self._backend.entries(), key=lambda entry: entry.serial)

    def close(self) -> None:
        """Release backend resources (database connections)."""
        with self._lock:
            self._backend.close()
