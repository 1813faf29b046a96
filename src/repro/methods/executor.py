"""Baseline query execution: run a query through Method M without GraphCache.

This executor reproduces the "no cache" path of Figure 2: filtering via
``Mfilter`` (``Method.candidates``), then one sub-iso test per candidate via
``Mverifier``.  It records the metrics the paper reports — filtering time,
verification time, number of sub-iso tests — and is used both as the baseline
in every benchmark and as the verification engine inside GraphCache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

from ..graphs.graph import Graph
from .base import Method, VerificationRecord

__all__ = ["QueryExecution", "execute_query", "verify_candidates"]


@dataclass(frozen=True)
class QueryExecution:
    """Full accounting of one query executed against a Method M.

    Attributes
    ----------
    query:
        The query graph.
    candidate_ids:
        Candidate set produced by filtering (``CS_M``).
    answer_ids:
        Dataset-graph ids that contain the query.
    filter_time_s:
        Wall-clock time of the filtering stage.
    verify_time_s:
        Effective wall-clock verification time (raw time divided by the
        method's simulated verification parallelism).
    raw_verify_time_s:
        Sum of per-candidate verification times before the parallelism factor.
    subiso_tests:
        Number of sub-iso tests executed.
    nodes_expanded:
        Total search-tree nodes expanded across all verifications.
    """

    query: Graph
    candidate_ids: FrozenSet[int]
    answer_ids: FrozenSet[int]
    filter_time_s: float
    verify_time_s: float
    raw_verify_time_s: float
    subiso_tests: int
    nodes_expanded: int

    @property
    def total_time_s(self) -> float:
        """Filtering plus effective verification time."""
        return self.filter_time_s + self.verify_time_s


def verify_candidates(
    method: Method,
    query: Graph,
    candidate_ids: Iterable[int],
    query_mode: str = "subgraph",
) -> Tuple[FrozenSet[int], float, int, int, List[VerificationRecord]]:
    """Sub-iso test ``query`` against every candidate; return matches and costs.

    ``query_mode`` selects the containment direction: ``"subgraph"`` tests the
    query inside each candidate, ``"supergraph"`` tests each candidate inside
    the query.

    Returns
    -------
    tuple
        ``(answer_ids, raw_verify_time_s, subiso_tests, nodes_expanded, records)``.
    """
    verify = method.verify if query_mode == "subgraph" else method.verify_supergraph
    answers: set = set()
    raw_time = 0.0
    tests = 0
    nodes = 0
    records: List[VerificationRecord] = []
    for graph_id in sorted(candidate_ids):
        record = verify(query, graph_id)
        records.append(record)
        raw_time += record.elapsed_s
        tests += 1
        nodes += record.nodes_expanded
        if record.matched:
            answers.add(graph_id)
    return frozenset(answers), raw_time, tests, nodes, records


def execute_query(
    method: Method, query: Graph, query_mode: str = "subgraph"
) -> QueryExecution:
    """Execute ``query`` against ``method`` without any caching."""
    started = time.perf_counter()
    candidate_ids = method.candidates(query)
    filter_time = time.perf_counter() - started

    answers, raw_verify_time, tests, nodes, _ = verify_candidates(
        method, query, candidate_ids, query_mode=query_mode
    )
    effective_verify_time = raw_verify_time / max(1, method.verify_parallelism)
    return QueryExecution(
        query=query,
        candidate_ids=frozenset(candidate_ids),
        answer_ids=answers,
        filter_time_s=filter_time,
        verify_time_s=effective_verify_time,
        raw_verify_time_s=raw_verify_time,
        subiso_tests=tests,
        nodes_expanded=nodes,
    )
