"""Analytic sub-iso cost model used by the PINC replacement policy (§5.2).

The paper estimates the cost of a sub-iso test of query ``g`` (with ``n``
vertices and ``L`` distinct labels) against a dataset graph ``G`` (with ``N``
vertices) as::

    c(g, G) = N * N! / (L^(n+1) * (N - n)!)

i.e. the number of injective assignments of the ``n`` query vertices onto the
``N`` target vertices, discounted by label agreement, times a linear factor.
Factorials blow up quickly, so everything is computed in log-space with
``math.lgamma`` and only exponentiated at the end (clamped to ``float`` max).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

from ..graphs.graph import Graph

__all__ = ["estimate_subiso_cost", "estimate_query_cost", "subiso_cost_row"]

_LOG_FLOAT_MAX = math.log(1.7976931348623157e308)


def estimate_subiso_cost(
    query_order: int,
    query_distinct_labels: int,
    target_order: int,
) -> float:
    """Estimated cost of one sub-iso test, per the paper's formula.

    Parameters
    ----------
    query_order:
        Number of vertices ``n`` in the query graph.
    query_distinct_labels:
        Number of distinct labels ``L`` in the query graph (at least 1).
    target_order:
        Number of vertices ``N`` in the dataset graph.

    Returns
    -------
    float
        ``N * N! / (L^(n+1) * (N-n)!)``, or ``0.0`` when ``N < n`` (the test
        is trivially negative and costs effectively nothing).
    """
    n = int(query_order)
    big_n = int(target_order)
    labels = max(1, int(query_distinct_labels))
    if n <= 0 or big_n <= 0 or big_n < n:
        return 0.0
    # log of N * N!/(N-n)!  ==  log N + lgamma(N+1) - lgamma(N-n+1)
    log_cost = (
        math.log(big_n)
        + math.lgamma(big_n + 1)
        - math.lgamma(big_n - n + 1)
        - (n + 1) * math.log(labels)
    )
    if log_cost >= _LOG_FLOAT_MAX:
        return float("inf")
    return math.exp(log_cost)


@lru_cache(maxsize=256)
def subiso_cost_row(n: int, labels: int, max_order: int) -> Tuple[float, ...]:
    """``estimate_subiso_cost(n, labels, N)`` for every ``N`` in ``0..max_order``.

    Memoised for hit crediting, which indexes it by each pruned candidate's order.
    """
    return tuple(estimate_subiso_cost(n, labels, order) for order in range(max_order + 1))


def estimate_query_cost(query: Graph, target: Graph) -> float:
    """Convenience wrapper taking :class:`Graph` objects."""
    return estimate_subiso_cost(
        query_order=query.order,
        query_distinct_labels=len(query.distinct_labels()),
        target_order=target.order,
    )
