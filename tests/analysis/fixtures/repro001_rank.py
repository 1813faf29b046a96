"""Golden fixture: exactly one REPRO001 lock-rank violation (stats -> gc)."""

from repro.analysis.runtime import make_rlock


class BadNesting:
    def __init__(self) -> None:
        self._stats_lock = make_rlock("stats")
        self._gc_lock = make_rlock("gc")

    def violate(self) -> None:
        with self._stats_lock:
            with self._gc_lock:  # rank 0 under rank 35: hierarchy violation
                pass
