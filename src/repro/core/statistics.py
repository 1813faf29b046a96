"""Statistics layer: the Statistics Manager, its per-query rows and the
victim selection over them.

The paper's Cache Manager keeps per-query metadata in an in-memory key-value
store holding ``{key, column name, column value}`` triplets, accessible by
key, by column, or by both (§6.1).  Here a key is a cached query's serial,
the columns are the typed fields of one :class:`CachedQueryStats` row, and
the three access paths are a row (:meth:`StatisticsManager.snapshot`), a
column (an attribute read over :meth:`StatisticsManager.snapshots`) and a
single value (an attribute of one row).

The manager holds exactly one mutable row per **cached** query, in the cache
store's insertion order, and selects the replacement policy's victims over
those rows (§6.3).  One lock guards the rows and the selection's lazy
recency heap, so a hit is applied once, and a victim selection on the
background worker never reads a row a commit is mutating.  A query waiting
in the window has no row: it cannot be credited before it is cached, so its
statistics are exactly :meth:`CachedQueryStats.of_window_entry`.

Victim selection never touches the storage backend:

* for *recency* policies (``age_normalized = False``, i.e. LRU), utilities
  change only on hits, so victims come from a lazy min-heap: every add/hit
  pushes a re-keyed item, stale items are discarded on pop, and selection
  costs O((k + stale) log n);
* for *age-normalized* policies (POP/PIN/PINC/HD) every utility decays as
  the current serial advances, so no stored key survives to decision time —
  selection re-evaluates the rows at the decision serial with a bounded-k
  heap (``heapq.nsmallest``), O(n + k log n).

Selection is pinned (unit tests and the maintenance benchmark) to equal the
full-sort reference oracle
(:meth:`~repro.core.policies.replacement.ReplacementPolicy.select_victims`
over copies of the rows): same utility formulas, same ``(utility, serial)``
total order, and — for HD — the same delegate choice over the same
population in the same order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.runtime import make_rlock
from ..exceptions import CacheError

if TYPE_CHECKING:  # pragma: no cover - type-only (the policies import this module)
    from .policies.replacement import ReplacementPolicy

__all__ = ["StatisticsManager", "CachedQueryStats", "SelectionOutcome"]


@dataclass
class CachedQueryStats:
    """Typed statistics of one cached query.

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
        """Initial statistics of a window entry: static shape + first-run costs.
        The shape comes from the label and edge lists, which a checked entry's
        :class:`~repro.graphs.io.ParsedGraph` carries as well as a Graph."""
        return cls(
            serial=entry.serial,
            order=len(entry.query.labels),
            size=len(entry.query.edges),
            distinct_labels=len(set(entry.query.labels)),
            filter_time_s=float(entry.filter_time_s),
            verify_time_s=float(entry.verify_time_s),
        )


class SelectionOutcome:
    """One victim selection: the victims plus the policy rationale.

    Attributes
    ----------
    victims:
        Serials of the selected victims, lowest utility first.
    policy:
        Name of the configured policy.
    delegate:
        Name of the delegate HD resolved to (``None`` for non-hybrid
        policies).
    victim_utilities:
        ``(serial, utility)`` pairs for the victims, in eviction order —
        the per-victim rationale recorded in the maintenance plan.
    copies:
        Copies of the rows the caller named, taken under the selection's
        own hold of the lock (the cross-check oracle's input).
    """

    __slots__ = ("victims", "policy", "delegate", "victim_utilities", "copies")

    def __init__(
        self,
        victims: Tuple[int, ...],
        policy: str,
        delegate: Optional[str],
        victim_utilities: Tuple[Tuple[int, float], ...],
        copies: List[CachedQueryStats],
    ) -> None:
        self.victims = victims
        self.policy = policy
        self.delegate = delegate
        self.victim_utilities = victim_utilities
        self.copies = copies


class StatisticsManager:
    """One :class:`CachedQueryStats` row per cached query (§6.1), and the
    ``policy``'s victim selection over those rows (§6.3).

    Rows mirror the cache store: :meth:`add` on admission, :meth:`remove` on
    eviction, :meth:`rebuild` on restore — so the row order is the store's
    insertion order, which HD's population-level delegate choice reads.
    """

    def __init__(self, policy: "ReplacementPolicy") -> None:
        self._policy = policy
        self._rows: Dict[int, CachedQueryStats] = {}
        # Lazy min-heap of (key, serial, stamp) for recency policies.  A
        # global monotone stamp marks the newest item per serial; anything
        # older is discarded on pop (lazy deletion).
        self._heap: List[Tuple[Tuple[float, int], int, int]] = []
        self._stamps: Dict[int, int] = {}
        self._counter = 0
        self._lock = make_rlock("stats")

    @property
    def policy(self) -> "ReplacementPolicy":
        """The replacement policy the rows are scored for."""
        return self._policy

    def __contains__(self, serial: int) -> bool:
        return serial in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------ #
    # Row mutation (the maintenance engine and the Statistics Monitor).
    # ------------------------------------------------------------------ #
    def _push(self, stats: CachedQueryStats) -> None:
        """(Re-)key one row in the lazy heap (recency policies only)."""
        if self._policy.age_normalized:
            return
        self._counter += 1
        self._stamps[stats.serial] = self._counter
        utility = self._policy.utility(stats, 0)
        heapq.heappush(self._heap, ((utility, stats.serial), stats.serial, self._counter))

    def add(self, stats: CachedQueryStats) -> None:
        """Start the row of a newly cached query and key it (O(log n))."""
        with self._lock:
            if stats.serial in self._rows:
                raise CacheError(f"query {stats.serial} already has statistics")
            self._rows[stats.serial] = stats
            self._push(stats)

    def remove(self, serial: int) -> None:
        """Drop an evicted query's row (tolerated if absent; heap items
        expire on pop)."""
        with self._lock:
            self._rows.pop(serial, None)
            self._stamps.pop(serial, None)

    def rebuild(self, rows: Iterable[CachedQueryStats]) -> None:
        """Install copies of ``rows`` as the whole population (restore / warm
        start)."""
        with self._lock:
            self._rows = {row.serial: replace(row) for row in rows}
            self._heap = []
            self._stamps = {}
            for stats in self._rows.values():
                self._push(stats)

    def record_hit(
        self,
        serial: int,
        benefiting_serial: int,
        cs_reduction: float,
        cost_reduction: float,
        special: bool = False,
    ) -> None:
        """Record that cached query ``serial`` benefited ``benefiting_serial``
        and re-key its row (O(log n)).

        Hits on serials without a row are dropped: under background
        maintenance a query can confirm a hit against a GCindex snapshot
        whose entry the worker evicts before the query commits; creating the
        row here would leak a permanent ghost row nothing ever deletes.
        """
        with self._lock:
            row = self._rows.get(serial)
            if row is None:
                return
            row.hits += 1
            if special:
                row.special_hits += 1
            row.last_hit_serial = benefiting_serial
            if cs_reduction:
                row.cs_reduction += cs_reduction
            if cost_reduction:
                row.cost_reduction += cost_reduction
            self._push(row)

    # ------------------------------------------------------------------ #
    # Reads.
    # ------------------------------------------------------------------ #
    def known_serials(self) -> List[int]:
        """Serial numbers of all queries with a row."""
        with self._lock:
            return list(self._rows)

    def snapshot(self, serial: int) -> CachedQueryStats:
        """A copy of one query's row (:class:`CacheError` if it has none)."""
        with self._lock:
            row = self._rows.get(serial)
            if row is None:
                raise CacheError(f"query {serial} has no statistics")
            return replace(row)

    def snapshots(self) -> List[CachedQueryStats]:
        """Copies of every row, in insertion order."""
        with self._lock:
            return [replace(row) for row in self._rows.values()]

    # ------------------------------------------------------------------ #
    # Victim selection (§6.3).
    # ------------------------------------------------------------------ #
    def select_victims(
        self, evict_count: int, current_serial: int, copy_serials: Sequence[int] = ()
    ) -> SelectionOutcome:
        """Pick the ``evict_count`` lowest-utility rows at ``current_serial``.

        The outcome also carries copies of the rows of ``copy_serials``, in
        that order, taken under the same hold of the lock
        (:class:`CacheError` for a serial without a row): a reference oracle
        scoring them sees exactly the rows this selection saw.
        """
        with self._lock:
            if evict_count < 0:
                raise CacheError("evict_count must be non-negative")
            if evict_count > len(self._rows):
                raise CacheError(
                    f"cannot evict {evict_count} entries from a cache of {len(self._rows)}"
                )
            rows = self._rows.values()
            scorer = self._policy.choose(rows)
            if evict_count == 0:
                victims: List[Tuple[int, float]] = []
            elif scorer.age_normalized:
                ranked = heapq.nsmallest(
                    evict_count,
                    rows,
                    key=lambda stats: (scorer.utility(stats, current_serial), stats.serial),
                )
                victims = [
                    (stats.serial, scorer.utility(stats, current_serial)) for stats in ranked
                ]
            else:
                victims = self._pop_lazy(evict_count)
            return SelectionOutcome(
                victims=tuple(serial for serial, _ in victims),
                policy=self._policy.name,
                delegate=None if scorer is self._policy else scorer.name,
                victim_utilities=tuple(victims),
                copies=[self.snapshot(serial) for serial in copy_serials],
            )

    def _pop_lazy(self, evict_count: int) -> List[Tuple[int, float]]:
        """Lazy-heap selection for recency policies (keys never decay).

        Stale items (superseded by a hit re-key, or belonging to a removed
        row) are discarded permanently; live items popped as victims are
        pushed back so that a pure *decide* (without an apply) leaves the
        heap intact.
        """
        victims: List[Tuple[int, float]] = []
        live: List[Tuple[Tuple[float, int], int, int]] = []
        while len(victims) < evict_count:
            key, serial, stamp = heapq.heappop(self._heap)
            if self._stamps.get(serial) != stamp:
                continue  # superseded or removed: drop for good
            victims.append((serial, key[0]))
            live.append((key, serial, stamp))
        for item in live:
            heapq.heappush(self._heap, item)
        return victims
