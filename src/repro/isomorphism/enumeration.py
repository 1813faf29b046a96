"""Embedding enumeration: find every occurrence of a pattern in a target.

Subgraph *queries* only need the decision problem, but the matching problem
(all occurrences) is useful for analytics on top of the answer set, for the
Grapes-style "stop after first match" comparison the paper mentions, and for
tests (the number of embeddings is an isomorphism invariant that all matchers
must agree on).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..graphs.graph import Graph
from .base import SearchBudget
from .vf2_plus import VF2PlusMatcher

__all__ = ["iter_embeddings", "count_embeddings", "find_all_embeddings"]


def iter_embeddings(
    pattern: Graph,
    target: Graph,
    budget: Optional[SearchBudget] = None,
) -> Iterator[Dict[int, int]]:
    """Yield every injective, label-preserving, edge-preserving embedding.

    Embeddings are yielded as ``pattern vertex -> target vertex`` dictionaries.
    Two embeddings that differ only by an automorphism of the pattern are
    reported separately (standard "all distinct injections" semantics).
    """
    if pattern.order == 0:
        yield {}
        return
    budget = budget or SearchBudget()
    budget.start()

    # The matcher's own compiled plan and per-call base masks (VF2+ order).
    plan = VF2PlusMatcher().compile(pattern, target)
    order, anchor_positions = plan.order, plan.anchors
    base_masks = plan.base_masks(target)
    n = len(order)
    target_masks = target.neighbor_masks

    images: List[int] = [0] * n

    def backtrack(pos: int, used_mask: int) -> Iterator[Dict[int, int]]:
        if pos == n:
            yield dict(zip(order, images, strict=True))
            return
        # Candidates: label/degree-compatible, unused, adjacent to the images
        # of every already-mapped pattern neighbour.  Bits are consumed in
        # ascending vertex order, matching the previous sorted() behaviour.
        pool = base_masks[pos] & ~used_mask
        for anchor in anchor_positions[pos]:
            pool &= target_masks[images[anchor]]
            if not pool:
                return
        while pool:
            low = pool & -pool
            pool ^= low
            budget.tick()
            images[pos] = low.bit_length() - 1
            yield from backtrack(pos + 1, used_mask | low)

    yield from backtrack(0, 0)


def count_embeddings(
    pattern: Graph,
    target: Graph,
    limit: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> int:
    """Count embeddings of ``pattern`` in ``target`` (up to ``limit`` if given)."""
    count = 0
    for _ in iter_embeddings(pattern, target, budget=budget):
        count += 1
        if limit is not None and count >= limit:
            break
    return count


def find_all_embeddings(
    pattern: Graph,
    target: Graph,
    limit: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> List[Dict[int, int]]:
    """Materialise embeddings of ``pattern`` in ``target`` (up to ``limit``)."""
    result: List[Dict[int, int]] = []
    for embedding in iter_embeddings(pattern, target, budget=budget):
        result.append(embedding)
        if limit is not None and len(result) >= limit:
            break
    return result
