"""Golden fixture: exactly one REPRO003 mutation reachable from decide().

The mutation hides behind a helper call, exercising the reachability
traversal (decide -> _cleanup -> StatisticsManager.remove).
"""


class StatisticsManager:
    def remove(self, serial: int) -> None:
        pass


class ImpureEngine:
    def __init__(self, statistics: StatisticsManager) -> None:
        self._statistics = statistics

    def decide(self, window_entries: list) -> list:
        self._cleanup()
        return window_entries

    def _cleanup(self) -> None:
        self._statistics.remove(0)

    def apply(self, plan: list) -> None:
        pass
