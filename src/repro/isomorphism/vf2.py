"""VF2: backtracking subgraph-isomorphism search (Cordella et al., 2004).

This is the "vanilla VF2" verifier that most FTV implementations bundle
(GraphGrepSX, Grapes) and one of the SI methods evaluated in the paper.  The
implementation solves the *non-induced* decision problem on vertex-labelled
undirected graphs:

* pattern vertices are mapped in a connectivity-preserving static order
  (each vertex after the first of its component has an already-mapped
  neighbour);
* a candidate target vertex must carry the same label, have sufficient
  degree, not be used already, and be adjacent to the images of all mapped
  pattern neighbours;
* a standard one-step look-ahead prunes candidates whose unmapped
  neighbourhood cannot cover the pattern vertex's unmapped neighbourhood.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from ..memo import BoundedMemo
from .base import SearchBudget, SubgraphMatcher

__all__ = ["PatternPlan", "VF2Matcher"]


def connectivity_order(pattern: Graph, priority: Optional[Sequence[float]] = None) -> List[int]:
    """Return a vertex order where each vertex has a previously-ordered neighbour.

    ``priority`` (higher = earlier) breaks ties among frontier vertices; by
    default vertices are taken in id order, which reproduces the behaviour of
    the original VF2 on its input ordering.  Implemented with lazy-deletion
    heaps over ``(-priority, vertex)`` so each step costs ``O(log n)`` instead
    of a linear scan; the selection rule (highest priority, then lowest vertex
    id, new components seeded from the best remaining vertex) is unchanged.
    """
    n = pattern.order
    if n == 0:
        return []
    if priority is None:
        priority = [0.0] * n
    neighbor_masks = pattern.neighbor_masks
    ordered: List[int] = []
    placed_mask = 0
    remaining_heap = [(-priority[v], v) for v in range(n)]
    heapq.heapify(remaining_heap)
    frontier: List[tuple] = []
    while len(ordered) < n:
        # Prefer the component frontier; fall back to the best remaining
        # vertex (starting a new component).  Stale heap entries (vertices
        # placed since they were pushed) are skipped lazily.
        heap = frontier if frontier else remaining_heap
        vertex = heapq.heappop(heap)[1]
        if placed_mask >> vertex & 1:
            continue
        placed_mask |= 1 << vertex
        ordered.append(vertex)
        fresh = neighbor_masks[vertex] & ~placed_mask
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            neighbour = low.bit_length() - 1
            heapq.heappush(frontier, (-priority[neighbour], neighbour))
    return ordered


class PatternPlan(NamedTuple):
    """The pattern-only half of a search, indexed by position in ``order``.

    ``anchors[pos]`` are the positions of the pattern neighbours already mapped
    when ``pos`` is reached (they drive candidate generation), ``lookahead[pos]``
    counts the neighbours still unmapped there (one-step look-ahead) and
    ``qualifiers[pos]`` is the ``(label id, degree)`` a target vertex must meet.
    """

    order: Tuple[int, ...]
    anchors: Tuple[Tuple[int, ...], ...]
    lookahead: Tuple[int, ...]
    qualifiers: Tuple[Tuple[int, int], ...]

    def base_masks(self, target: Graph) -> List[int]:
        """Per-position candidate masks: the target-dependent half, two table
        probes per pattern vertex, computed per call and never stored."""
        label_mask, degree_mask = target.label_id_mask, target.degree_ge_mask
        return [label_mask(label) & degree_mask(degree) for label, degree in self.qualifiers]


class VF2Matcher(SubgraphMatcher):
    """Vanilla VF2 for non-induced, vertex-labelled subgraph isomorphism.

    One :class:`PatternPlan` is memoised on the matcher per *pattern* (by
    labelled structure): workloads match a query against many dataset graphs
    and repeat query structures, so plan construction (which otherwise
    dominates cheap searches) amortises to a dict probe.  No target is stored.
    """

    name = "vf2"

    def __init__(self) -> None:
        self._plans = BoundedMemo(16384)

    def _order(self, pattern: Graph, target: Graph) -> List[int]:
        """Pattern vertex processing order; subclasses override to reorder."""
        return connectivity_order(pattern)

    def _plan_key(self, pattern: Graph, target: Graph) -> object:
        """Everything :meth:`_order` reads — for VF2, the pattern alone."""
        return pattern

    def compile(self, pattern: Graph, target: Graph) -> PatternPlan:
        """The memoised plan of ``pattern`` (``target`` only informs the order)."""
        key = self._plan_key(pattern, target)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        order = self._order(pattern, target)
        position_of = {vertex: pos for pos, vertex in enumerate(order)}
        anchors = tuple(
            tuple(position_of[nb] for nb in pattern.neighbors(vertex) if position_of[nb] < pos)
            for pos, vertex in enumerate(order)
        )
        degrees = [pattern.degree(vertex) for vertex in order]
        plan = PatternPlan(
            tuple(order),
            anchors,
            tuple(d - len(mapped) for d, mapped in zip(degrees, anchors, strict=True)),
            tuple(zip(map(pattern.label_id, order), degrees, strict=True)),
        )
        return self._plans.put(key, plan)

    def _search(
        self,
        pattern: Graph,
        target: Graph,
        budget: SearchBudget,
        want_embedding: bool,
    ) -> Optional[Dict[int, int]]:
        plan = self.compile(pattern, target)
        order, anchors, lookahead, _ = plan
        if not order:
            return {}
        base_masks = plan.base_masks(target)
        target_masks = target.neighbor_masks
        last = len(order) - 1
        # Explicit-stack depth-first search, one frame per position: the bit
        # chosen there, its neighbour mask, and the candidates not yet tried.
        chosen, image_masks, pools = [0] * len(order), [0] * len(order), [0] * len(order)
        pos = 0
        pool, need = base_masks[0], lookahead[0]
        free_mask = target.full_vertex_mask  # target vertices not yet used
        # An unlimited budget is counted in a local; a limited one is checked
        # at every node, exactly as ``SearchBudget.tick`` would.
        check = None if budget.unlimited else budget.check
        nodes = budget.nodes_expanded
        try:
            while True:
                while pool:
                    low = pool & -pool
                    pool ^= low
                    nodes += 1
                    if check is not None:
                        check(nodes)
                    reach = target_masks[low.bit_length() - 1]
                    # One-step look-ahead: the candidate needs at least as many
                    # unmapped neighbours as the pattern vertex.  It cannot
                    # fail where no pattern neighbour is left unmapped.
                    if need and (reach & free_mask).bit_count() < need:
                        continue
                    chosen[pos] = low
                    if pos == last:
                        images = [bit.bit_length() - 1 for bit in chosen]
                        return dict(zip(order, images, strict=True))
                    image_masks[pos], pools[pos] = reach, pool
                    free_mask ^= low
                    pos += 1
                    need = lookahead[pos]
                    # Candidate pool: label- and degree-compatible target
                    # vertices, unused, adjacent to the image of every mapped
                    # pattern neighbour (which also enforces adjacency).
                    pool = base_masks[pos] & free_mask
                    for anchor in anchors[pos]:
                        pool &= image_masks[anchor]
                        if not pool:
                            break
                # Every candidate at ``pos`` is spent: resume the frame below.
                if pos == 0:
                    return None
                pos -= 1
                pool, need = pools[pos], lookahead[pos]
                free_mask ^= chosen[pos]
        finally:
            budget.nodes_expanded = nodes
