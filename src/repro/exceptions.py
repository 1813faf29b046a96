"""Exception hierarchy for the GraphCache reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Raised for invalid graph construction or manipulation."""


class GraphFormatError(ReproError):
    """Raised when parsing a graph dataset file fails."""


class DatasetError(ReproError):
    """Raised for invalid dataset operations (unknown graph IDs, empty sets)."""


class MatcherError(ReproError):
    """Raised for invalid use of a subgraph-isomorphism matcher."""


class MatchTimeout(ReproError):
    """Raised when a subgraph-isomorphism search exceeds its time or node budget.

    ``node_limit`` is set when the node limit was the one hit; ``budget_s`` is
    the time budget (``0.0`` if none was configured).
    """

    def __init__(self, budget_s: float, node_limit: int | None = None) -> None:
        spent = f"{budget_s:.3f}s" if node_limit is None else f"{node_limit}-node"
        super().__init__(f"subgraph isomorphism search exceeded {spent} budget")
        self.budget_s = budget_s
        self.node_limit = node_limit


class CacheError(ReproError):
    """Raised for invalid GraphCache configuration or operation."""


class WorkloadError(ReproError):
    """Raised when a workload generator cannot satisfy its parameters."""


class BenchmarkError(ReproError):
    """Raised by the benchmark harness for invalid experiment configuration."""
