"""Maintenance decisions as pure, serializable data.

The decide/apply split (like the DB-nets line of work in PAPERS.md) makes
every cache-update round auditable: :class:`MaintenancePlan` is the complete
decision — which window queries are admitted or rejected, which cached
entries are evicted, and why — produced *before* any state is touched.  The
apply step consumes the plan mechanically, so a plan can be golden-tested
(the paper's Table 1 running example reproduces byte-for-byte from the plan
alone), logged, or shipped to a replica.

:class:`MaintenanceReport` wraps one executed round: the plan plus the
measured apply-side work (wall-clock, index ops, backend row ops).  The op
counters are the deterministic evidence that maintenance is O(window): they
scale with the window size, never with the cache size.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

__all__ = ["MaintenancePlan", "MaintenanceReport"]


class MaintenancePlan(NamedTuple):
    """One cache-update decision, as pure data.

    Attributes
    ----------
    current_serial:
        Serial of the query that filled the window (ages are measured
        against it).
    window_serials:
        Serials of the drained window queries, in serial order.
    admitted_serials:
        Window queries entering the cache, in window order.
    rejected_serials:
        Window queries denied by admission control (or truncated away when
        the window exceeds the cache capacity).  Computed per *serial*:
        a serial is rejected iff it was not admitted.
    evicted_serials:
        Cached entries leaving the cache, lowest utility first.
    policy:
        Name of the replacement policy that decided the evictions.
    policy_delegate:
        The delegate HD resolved to for this round (``None`` otherwise).
    admission_threshold:
        The admission controller's threshold at decision time (``None``
        while calibrating).
    victim_utilities:
        ``(serial, utility)`` pairs for the victims, in eviction order —
        the per-victim rationale.
    """

    current_serial: int
    window_serials: Tuple[int, ...]
    admitted_serials: Tuple[int, ...]
    rejected_serials: Tuple[int, ...]
    evicted_serials: Tuple[int, ...]
    policy: str
    policy_delegate: Optional[str] = None
    admission_threshold: Optional[float] = None
    victim_utilities: Tuple[Tuple[int, float], ...] = ()

    def to_record(self) -> Dict[str, Any]:
        """JSON-compatible record (tuples become lists)."""
        return {
            "current_serial": self.current_serial,
            "window_serials": list(self.window_serials),
            "admitted_serials": list(self.admitted_serials),
            "rejected_serials": list(self.rejected_serials),
            "evicted_serials": list(self.evicted_serials),
            "policy": self.policy,
            "policy_delegate": self.policy_delegate,
            "admission_threshold": self.admission_threshold,
            "victim_utilities": [list(pair) for pair in self.victim_utilities],
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "MaintenancePlan":
        """Rebuild a plan from a :meth:`to_record` dictionary."""
        threshold = record.get("admission_threshold")
        return cls(
            int(record["current_serial"]),
            tuple(map(int, record["window_serials"])),
            tuple(map(int, record["admitted_serials"])),
            tuple(map(int, record["rejected_serials"])),
            tuple(map(int, record["evicted_serials"])),
            str(record["policy"]),
            record.get("policy_delegate"),
            None if threshold is None else float(threshold),
            tuple([
                (int(serial), float(utility))
                for serial, utility in record.get("victim_utilities", ())
            ]),
        )


class MaintenanceReport(NamedTuple):
    """Summary of one executed cache-update round.

    The first six fields are the seed's report (kept for compatibility);
    the engine-era fields carry the plan itself and the measured apply-side
    work counters.
    """

    window_queries: int
    admitted_serials: Tuple[int, ...]
    rejected_serials: Tuple[int, ...]
    evicted_serials: Tuple[int, ...]
    cache_size_after: int
    elapsed_s: float
    #: GCindex mutations (add + remove calls) performed by the apply step.
    index_ops: int = 0
    #: Storage-backend row mutations (inserts + deletes) performed by the
    #: apply step on the cache store.
    backend_row_ops: int = 0
    #: The full decision this round executed.
    plan: Optional[MaintenancePlan] = None
