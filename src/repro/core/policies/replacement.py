"""Cache replacement policies: LRU, POP, PIN, PINC and the hybrid HD (§6.3).

Every policy assigns each cached query a *utility* value from its statistics
snapshot and evicts the entries with the lowest utility.  The GC-exclusive
policies differ in which statistics they consume:

========  =========================  =======================================
Policy    Utility                    Interpretation
========  =========================  =======================================
LRU       last hit serial            classic recency
POP       ``H / A``                  popularity (hits) over age
PIN       ``R / A``                  alleviated sub-iso *tests* over age
PINC      ``C / A``                  alleviated estimated sub-iso *cost* over age
HD        PIN or PINC                picks PIN when the ``R`` values are highly
                                     variable (squared CoV > 1), else PINC
========  =========================  =======================================

where ``A`` is the entry's age (current serial minus the entry's serial),
``H`` its hit count, ``R`` its total candidate-set reduction and ``C`` its
total estimated cost reduction.  The running example of Table 1 in the paper
is reproduced exactly by the unit tests and by ``benchmarks/bench_table1``.

:meth:`ReplacementPolicy.select_victims` over a full snapshot list is the
*reference oracle*; the production eviction path selects incrementally
through :meth:`~repro.core.statistics.StatisticsManager.select_victims`,
pinned to be identical to the oracle's.  The class attribute
``age_normalized`` tells the manager which selection strategy applies: utilities
of age-normalized policies decay as the current serial advances (they must be
re-evaluated at decision time), while recency utilities (LRU) only change on
a hit and support a true lazy heap.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Sequence

from ...exceptions import CacheError
from ..statistics import CachedQueryStats

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "POPPolicy",
    "PINPolicy",
    "PINCPolicy",
    "HybridPolicy",
    "policy_by_name",
    "available_policies",
    "squared_coefficient_of_variation",
]


def _age(stats: CachedQueryStats, current_serial: int) -> float:
    """Age of a cached entry: serial distance to the most recent query (>= 1)."""
    return max(1.0, float(current_serial - stats.serial))


def squared_coefficient_of_variation(values: Sequence[float]) -> float:
    """Squared coefficient of variation ``s² / µ²`` (sample variance).

    Returns 0.0 for fewer than two values or a zero mean; exponential
    distributions have CoV² = 1, heavy-tailed ones exceed 1 (§6.3).
    """
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0.0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return variance / (mean * mean)


class ReplacementPolicy(abc.ABC):
    """Base class: score entries, evict the lowest-utility ones."""

    #: Short policy name ("lru", "pop", ...).
    name: str = "abstract"

    #: ``True`` when the utility divides by the entry's age, so every stored
    #: utility decays as the current serial advances.  The incremental
    #: selection re-evaluates such utilities at decision time; recency utilities
    #: (``age_normalized = False``) change only on hits and live in a true
    #: lazy heap.
    age_normalized: bool = True

    @abc.abstractmethod
    def utility(self, stats: CachedQueryStats, current_serial: int) -> float:
        """Utility of one cached entry (higher = more worth keeping)."""

    def choose(self, snapshots: Iterable[CachedQueryStats]) -> "ReplacementPolicy":
        """The policy that scores this population: the policy itself, except
        for HD, which picks a delegate from the whole population."""
        return self

    def utilities(
        self, snapshots: Iterable[CachedQueryStats], current_serial: int
    ) -> Dict[int, float]:
        """Utilities of several entries keyed by serial number."""
        population = list(snapshots)
        scorer = self.choose(population)
        return {
            stats.serial: scorer.utility(stats, current_serial) for stats in population
        }

    def select_victims(
        self,
        snapshots: Sequence[CachedQueryStats],
        evict_count: int,
        current_serial: int,
    ) -> List[int]:
        """Serial numbers of the ``evict_count`` lowest-utility entries.

        Ties are broken in favour of evicting the *older* entry (smaller
        serial number), which keeps the policies deterministic.  This is the
        full-snapshot *reference oracle*; the maintenance engine's hot path
        selects through the incremental
        :meth:`~repro.core.statistics.StatisticsManager.select_victims`
        instead, with identical results by construction (same utility
        formulas, same ``(utility, serial)`` total order).
        """
        if evict_count < 0:
            raise CacheError("evict_count must be non-negative")
        if evict_count == 0:
            return []
        if evict_count > len(snapshots):
            raise CacheError(
                f"cannot evict {evict_count} entries from a cache of {len(snapshots)}"
            )
        scorer = self.choose(snapshots)
        ranked = sorted(
            snapshots,
            key=lambda stats: (scorer.utility(stats, current_serial), stats.serial),
        )
        return [stats.serial for stats in ranked[:evict_count]]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class LRUPolicy(ReplacementPolicy):
    """Least Recently Used: utility is the serial of the last benefited query."""

    name = "lru"
    age_normalized = False

    def utility(self, stats: CachedQueryStats, current_serial: int) -> float:
        if stats.last_hit_serial is None:
            # Entries that never contributed fall back to their own serial
            # (they were "used" when inserted).
            return float(stats.serial)
        return float(stats.last_hit_serial)


class POPPolicy(ReplacementPolicy):
    """Popularity-based ranking: hits per unit of age (``H / A``)."""

    name = "pop"

    def utility(self, stats: CachedQueryStats, current_serial: int) -> float:
        return stats.hits / _age(stats, current_serial)


class PINPolicy(ReplacementPolicy):
    """POP + number of alleviated sub-iso tests (``R / A``), GC-exclusive."""

    name = "pin"

    def utility(self, stats: CachedQueryStats, current_serial: int) -> float:
        return stats.cs_reduction / _age(stats, current_serial)


class PINCPolicy(ReplacementPolicy):
    """PIN + estimated sub-iso test costs (``C / A``), GC-exclusive."""

    name = "pinc"

    def utility(self, stats: CachedQueryStats, current_serial: int) -> float:
        return stats.cost_reduction / _age(stats, current_serial)


class HybridPolicy(ReplacementPolicy):
    """HD: dynamically chooses PIN or PINC based on the variability of ``R``.

    When the squared coefficient of variation of the cached entries' ``R``
    values exceeds 1 the ``R`` component alone is discriminative enough and
    PIN is used; otherwise the estimated cost component is added (PINC).
    """

    name = "hd"

    def __init__(self) -> None:
        self._pin = PINPolicy()
        self._pinc = PINCPolicy()

    def choose(self, snapshots: Iterable[CachedQueryStats]) -> ReplacementPolicy:
        """Return the delegate policy HD would use for this cache state."""
        cov_squared = squared_coefficient_of_variation(
            [stats.cs_reduction for stats in snapshots]
        )
        return self._pin if cov_squared > 1.0 else self._pinc

    def utility(self, stats: CachedQueryStats, current_serial: int) -> float:
        # Utility of a single entry in isolation defaults to PINC's view; the
        # meaningful entry points for HD are select_victims / utilities, which
        # score through the delegate chosen over the whole population.
        return self._pinc.utility(stats, current_serial)


_POLICIES = {
    "lru": LRUPolicy,
    "pop": POPPolicy,
    "pin": PINPolicy,
    "pinc": PINCPolicy,
    "hd": HybridPolicy,
}


def policy_by_name(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by (case-insensitive) name."""
    key = name.strip().lower()
    try:
        return _POLICIES[key]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise CacheError(f"unknown replacement policy {name!r}; known: {known}") from None


def available_policies() -> List[str]:
    """Names of all bundled replacement policies."""
    return sorted(_POLICIES)
