"""Statistics layer: the triplet store, the Statistics Manager and per-query stats.

The paper's Cache Manager keeps per-query metadata in an in-memory key-value
store holding ``{key, column name, column value}`` triplets, accessible by
key, by column, or by both (§6.1).  The Statistics Manager wraps that store;
the Statistics Monitor is the thin layer through which the query-processing
runtime reports measurements.

On top of the generic store, :class:`CachedQueryStats` provides the typed view
the replacement policies need: hit counts, last-hit serial number, candidate
set reduction ``R`` and estimated sub-iso cost reduction ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..analysis.runtime import make_rlock

__all__ = ["TripletStore", "StatisticsManager", "CachedQueryStats"]


class TripletStore:
    """In-memory key-value store of ``{key, column, value}`` triplets.

    Mirrors the access interface described in §6.1: by key (a "row"), by
    column name (a "column"), or by key and column (a single value).  All
    operations are thread-safe: read-modify-write accesses (``increment``)
    and compound reads hold an internal re-entrant lock.
    """

    def __init__(self) -> None:
        self._rows: Dict[int, Dict[str, object]] = {}
        self._lock = make_rlock("stats")

    def put(self, key: int, column: str, value: object) -> None:
        """Insert or overwrite a single triplet."""
        with self._lock:
            self._rows.setdefault(key, {})[column] = value

    def get(self, key: int, column: str, default: object = None) -> object:
        """Return the value at ``(key, column)`` or ``default``."""
        with self._lock:
            return self._rows.get(key, {}).get(column, default)

    def row(self, key: int) -> Dict[str, object]:
        """Return a copy of all columns stored for ``key``."""
        with self._lock:
            return dict(self._rows.get(key, {}))

    def column(self, column: str) -> Dict[int, object]:
        """Return ``{key: value}`` for every key that has ``column``."""
        with self._lock:
            return {
                key: columns[column]
                for key, columns in self._rows.items()
                if column in columns
            }

    def increment(self, key: int, column: str, amount: float = 1.0) -> float:
        """Add ``amount`` to a numeric column (creating it at 0) and return it."""
        with self._lock:
            current = float(self._rows.setdefault(key, {}).get(column, 0.0))
            updated = current + amount
            self._rows[key][column] = updated
            return updated

    def update(self, key: int, increments: Dict[str, float], puts: Dict[str, object]) -> None:
        """Several ``increment``s, then ``put``s, on one row under one lock hold."""
        with self._lock:
            row = self._rows.setdefault(key, {})
            for column, amount in increments.items():
                row[column] = float(row.get(column, 0.0)) + amount
            row.update(puts)

    def delete_row(self, key: int) -> None:
        """Remove every triplet stored under ``key`` (lazily tolerated if absent)."""
        with self._lock:
            self._rows.pop(key, None)

    def keys(self) -> List[int]:
        """All keys present in the store."""
        with self._lock:
            return list(self._rows)

    def __contains__(self, key: int) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class CachedQueryStats:
    """Typed statistics snapshot for one cached query.

    Field names follow Table 1 of the paper:

    * ``hits`` — number of times the query was matched by either GC processor,
    * ``last_hit_serial`` — serial number of the last benefited query,
    * ``cs_reduction`` — total number of dataset graphs removed from candidate
      sets thanks to this cached query (the ``R`` utility component),
    * ``cost_reduction`` — total estimated sub-iso time alleviated (``C``).
    """

    serial: int
    order: int = 0
    size: int = 0
    distinct_labels: int = 0
    filter_time_s: float = 0.0
    verify_time_s: float = 0.0
    hits: int = 0
    special_hits: int = 0
    last_hit_serial: Optional[int] = None
    cs_reduction: float = 0.0
    cost_reduction: float = 0.0

    @classmethod
    def of_window_entry(cls, entry) -> "CachedQueryStats":
        """Initial statistics of a window entry: static shape + first-run costs."""
        return cls(
            serial=entry.serial,
            order=entry.query.order,
            size=entry.query.size,
            distinct_labels=len(entry.query.distinct_labels()),
            filter_time_s=entry.filter_time_s,
            verify_time_s=entry.verify_time_s,
        )

    @property
    def first_execution_time_s(self) -> float:
        """Total filtering plus verification time of the query's first run."""
        return self.filter_time_s + self.verify_time_s

    @property
    def expensiveness(self) -> float:
        """Verification/filtering time ratio used by admission control."""
        if self.filter_time_s <= 0.0:
            return float("inf") if self.verify_time_s > 0.0 else 0.0
        return self.verify_time_s / self.filter_time_s


# Column names used inside the triplet store.
_COLUMNS = {
    "order": "static.order",
    "size": "static.size",
    "distinct_labels": "static.labels",
    "filter_time_s": "time.filter",
    "verify_time_s": "time.verify",
    "hits": "hits.count",
    "special_hits": "hits.special",
    "last_hit_serial": "hits.last_serial",
    "cs_reduction": "contribution.cs_reduction",
    "cost_reduction": "contribution.cost_reduction",
}


class StatisticsManager:
    """Typed wrapper over the triplet store (the paper's Statistics Manager)."""

    def __init__(self, store: Optional[TripletStore] = None) -> None:
        self._store = store or TripletStore()

    # ------------------------------------------------------------------ #
    @property
    def store(self) -> TripletStore:
        """The underlying triplet store (exposed for inspection and tests)."""
        return self._store

    def register_query(self, stats: CachedQueryStats) -> None:
        """Store the initial statistics of a newly cached (or windowed) query."""
        key = stats.serial
        for attribute, column in _COLUMNS.items():
            value = getattr(stats, attribute)
            if value is not None:
                self._store.put(key, column, value)

    def forget_query(self, serial: int) -> None:
        """Drop every statistic of an evicted query."""
        self._store.delete_row(serial)

    def known_serials(self) -> List[int]:
        """Serial numbers of all queries with recorded statistics."""
        return self._store.keys()

    # ------------------------------------------------------------------ #
    # Statistics Monitor entry points (called by the query runtime).
    # ------------------------------------------------------------------ #
    def record_hit(
        self,
        serial: int,
        benefiting_serial: int,
        cs_reduction: float,
        cost_reduction: float,
        special: bool = False,
    ) -> None:
        """Record that cached query ``serial`` benefited ``benefiting_serial``.

        Hits on unknown serials are dropped (mirroring the utility heap's
        behaviour): under background maintenance a query can confirm a hit
        against a GCindex snapshot whose entry the worker evicts — and
        ``forget_query``s — before the query commits; re-creating the row
        here would leak a permanent ghost entry nothing ever deletes.
        Under sync scheduling the guard never fires (hits are recorded
        under the same GC lock as evictions).
        """
        if serial not in self._store:
            return
        increments = {_COLUMNS["hits"]: 1}
        if special:
            increments[_COLUMNS["special_hits"]] = 1
        if cs_reduction:
            increments[_COLUMNS["cs_reduction"]] = cs_reduction
        if cost_reduction:
            increments[_COLUMNS["cost_reduction"]] = cost_reduction
        self._store.update(serial, increments, {_COLUMNS["last_hit_serial"]: benefiting_serial})

    # ------------------------------------------------------------------ #
    def snapshot(self, serial: int) -> CachedQueryStats:
        """Return the current typed statistics of one query."""
        row = self._store.row(serial)

        def value(name: str, default: object) -> object:
            return row.get(_COLUMNS[name], default)

        return CachedQueryStats(
            serial=serial,
            order=int(value("order", 0)),
            size=int(value("size", 0)),
            distinct_labels=int(value("distinct_labels", 0)),
            filter_time_s=float(value("filter_time_s", 0.0)),
            verify_time_s=float(value("verify_time_s", 0.0)),
            hits=int(value("hits", 0)),
            special_hits=int(value("special_hits", 0)),
            last_hit_serial=(
                None
                if value("last_hit_serial", None) is None
                else int(value("last_hit_serial", 0))
            ),
            cs_reduction=float(value("cs_reduction", 0.0)),
            cost_reduction=float(value("cost_reduction", 0.0)),
        )

    def snapshots(self, serials: Iterable[int]) -> List[CachedQueryStats]:
        """Typed statistics of several queries, in the given order."""
        return [self.snapshot(serial) for serial in serials]
