"""Cheap structural summaries and necessary-condition checks.

Subgraph isomorphism is NP-complete, so every layer of the system first
applies *necessary conditions* that are cheap to evaluate:

* a query cannot be contained in a dataset graph that has fewer vertices,
  fewer edges, or fewer occurrences of some vertex label;
* degree sequences must dominate element-wise after sorting;
* per-label degree profiles must be matchable.

These checks can only ever rule containment *out* — they never prove it — and
are used by the SI matchers as a fast pre-filter and by tests as sanity
oracles.
"""

from __future__ import annotations

from .graph import Graph

__all__ = [
    "could_be_subgraph",
    "label_histogram_dominates",
    "degree_sequence_dominates",
]


def label_histogram_dominates(small: Graph, large: Graph) -> bool:
    """Return ``True`` if ``large`` has at least as many vertices of every label of ``small``.

    Compares the precomputed interned-label histograms: no dict copies and no
    label-object hashing on this per-match-call hot path.
    """
    large_counts = large.label_id_histogram
    for label_id, count in small.label_id_histogram.items():
        if large_counts.get(label_id, 0) < count:
            return False
    return True


def degree_sequence_dominates(small: Graph, large: Graph) -> bool:
    """Return ``True`` if ``large``'s degree sequence dominates ``small``'s.

    For non-induced subgraph isomorphism, the i-th largest degree of the
    pattern can never exceed the i-th largest degree of the target.
    """
    small_seq = small.degree_sequence()
    large_seq = large.degree_sequence()
    if len(small_seq) > len(large_seq):
        return False
    return all(s <= l for s, l in zip(small_seq, large_seq, strict=False))


def could_be_subgraph(pattern: Graph, target: Graph) -> bool:
    """Fast necessary-condition check for ``pattern ⊆ target``.

    Returns ``False`` only when containment is provably impossible; ``True``
    means "maybe" and must be confirmed by a full sub-iso test.
    """
    if pattern.order > target.order or pattern.size > target.size:
        return False
    if not label_histogram_dominates(pattern, target):
        return False
    if not degree_sequence_dominates(pattern, target):
        return False
    return True
