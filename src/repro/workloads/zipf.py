"""Zipf sampling over finite populations.

The paper's workload generators select source graphs, start nodes and pool
queries either uniformly or according to a Zipf distribution with skew
parameter ``α`` (1.1 / 1.4 / 1.7 in the evaluation; web page popularity is
``α ≈ 2.4`` for reference).  This module provides a small deterministic Zipf
sampler over ranks ``1..n`` where rank ``r`` has probability ``r^-α / H``.
"""

from __future__ import annotations

import bisect
import random
from typing import List

from ..exceptions import WorkloadError

__all__ = ["ZipfSampler", "zipf_weights"]


def zipf_weights(population_size: int, alpha: float) -> List[float]:
    """Normalised Zipf probabilities for ranks ``1..population_size``."""
    if population_size <= 0:
        raise WorkloadError("population_size must be positive")
    if alpha < 0:
        raise WorkloadError("alpha must be non-negative")
    raw = [1.0 / (rank ** alpha) for rank in range(1, population_size + 1)]
    total = sum(raw)
    return [value / total for value in raw]


class ZipfSampler:
    """Samples indices ``0..n-1`` with Zipf-distributed popularity.

    Index 0 is the most popular item; an ``alpha`` of 0 degenerates to the
    uniform distribution.  Sampling uses the inverse-CDF method over the
    precomputed cumulative weights, so each draw costs ``O(log n)``.
    """

    def __init__(self, population_size: int, alpha: float, rng: random.Random) -> None:
        self._weights = zipf_weights(population_size, alpha)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in self._weights:
            running += weight
            self._cumulative.append(running)
        # Guard against floating-point drift at the top end.
        self._cumulative[-1] = 1.0
        self._rng = rng
        self._alpha = alpha

    @property
    def alpha(self) -> float:
        """Skew parameter of the distribution."""
        return self._alpha

    @property
    def population_size(self) -> int:
        """Number of items in the population."""
        return len(self._weights)

    def probability(self, index: int) -> float:
        """Probability of drawing ``index``."""
        return self._weights[index]

    def sample(self) -> int:
        """Draw one index."""
        return bisect.bisect_left(self._cumulative, self._rng.random())
