"""GraphQL-style subgraph matching (He & Singh, 2008).

GraphQL (the *graph query language* system, not the web API) is one of the SI
methods evaluated by the paper.  Its matcher differs from VF2 in two ways that
we reproduce here:

1. **Neighbourhood-signature pruning.**  Before search, every pattern vertex
   gets a candidate set of target vertices whose label matches and whose
   *neighbour-label multiset* covers the pattern vertex's neighbour-label
   multiset (a 1-hop profile test).  Candidate sets are then refined by
   iterative pseudo-isomorphism checking: a candidate survives only if there
   is a semi-perfect matching between the pattern vertex's neighbours and the
   candidate's neighbours' candidate sets (approximated here by bipartite
   feasibility via Hall-style counting).
2. **Search-order optimisation.**  The backtracking search maps pattern
   vertices in ascending order of candidate-set size (most selective first),
   refined at each level.

Candidate sets are carried as integer bitmasks (one bit per target vertex) so
that refinement and the per-level adjacency restriction are single ``&``
operations; see :class:`repro.graphs.graph.Graph` for the precomputed masks.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..graphs.graph import Graph
from .base import SearchBudget, SubgraphMatcher

__all__ = ["GraphQLMatcher"]


def _neighbour_label_counter(graph: Graph, vertex: int) -> Counter:
    label_ids = graph.label_ids
    mask = graph.neighbor_mask(vertex)
    counter: Counter = Counter()
    while mask:
        low = mask & -mask
        mask ^= low
        counter[label_ids[low.bit_length() - 1]] += 1
    return counter


class GraphQLMatcher(SubgraphMatcher):
    """GraphQL-style matcher: profile pruning + selectivity-ordered search."""

    name = "graphql"

    #: Number of global refinement sweeps applied before search.
    refinement_rounds = 2

    def _initial_candidate_masks(self, pattern: Graph, target: Graph) -> List[int]:
        """Per-pattern-vertex candidate bitmasks after the 1-hop profile test.

        The neighbour-label multiset coverage test runs entirely on the
        target's cached per-label threshold masks: a candidate needs at least
        ``count`` neighbours of label ``l`` for every ``(l, count)`` in the
        pattern vertex's profile, which is one ``&`` per profile entry.
        """
        masks: List[int] = []
        for p_vertex in pattern.vertices():
            pool = target.label_id_mask(pattern.label_id(p_vertex)) & target.degree_ge_mask(
                pattern.degree(p_vertex)
            )
            if pool:
                for label_id, count in _neighbour_label_counter(pattern, p_vertex).items():
                    pool &= target.neighbor_label_ge_mask(label_id, count)
                    if not pool:
                        break
            masks.append(pool)
        return masks

    def _refine(self, pattern: Graph, target: Graph, candidates: List[int]) -> bool:
        """Pseudo-isomorphism refinement: neighbours must be coverable.

        A candidate ``t`` for pattern vertex ``p`` survives a round if every
        pattern neighbour of ``p`` has at least one of its own candidates
        inside the target neighbourhood of ``t``.  (This is the 1-round
        approximation of GraphQL's bipartite semi-perfect matching test; it is
        sound — it never removes a true match.)  ``candidates`` is a list of
        bitmasks, mutated in place.
        """
        target_masks = target.neighbor_masks
        pattern_neighbors = [list(pattern.neighbors(v)) for v in pattern.vertices()]
        for _ in range(self.refinement_rounds):
            changed = False
            for p_vertex in pattern.vertices():
                survivors = 0
                probe = candidates[p_vertex]
                while probe:
                    low = probe & -probe
                    probe ^= low
                    t_neighbourhood = target_masks[low.bit_length() - 1]
                    for p_neighbour in pattern_neighbors[p_vertex]:
                        if not candidates[p_neighbour] & t_neighbourhood:
                            break
                    else:
                        survivors |= low
                if survivors != candidates[p_vertex]:
                    candidates[p_vertex] = survivors
                    changed = True
                    if not survivors:
                        return False
            if not changed:
                break
        return True

    def _search_order(self, pattern: Graph, candidates: List[int]) -> List[int]:
        """Order pattern vertices by increasing candidate-set size, keeping
        connectivity: after the first vertex, prefer vertices adjacent to the
        already-ordered prefix.  ``candidates`` are bitmasks."""
        n = pattern.order
        sizes = [c.bit_count() for c in candidates]
        ordered: List[int] = []
        placed = set()
        remaining = set(range(n))
        while remaining:
            adjacent = {
                v
                for v in remaining
                if any(nb in placed for nb in pattern.neighbors(v))
            }
            pool = adjacent if adjacent else remaining
            vertex = min(pool, key=lambda v: (sizes[v], v))
            ordered.append(vertex)
            placed.add(vertex)
            remaining.discard(vertex)
        return ordered

    def _search(
        self,
        pattern: Graph,
        target: Graph,
        budget: SearchBudget,
        want_embedding: bool,
    ) -> Optional[Dict[int, int]]:
        candidates = self._initial_candidate_masks(pattern, target)
        if any(not c for c in candidates):
            return None
        if not self._refine(pattern, target, candidates):
            return None

        order = self._search_order(pattern, candidates)
        n = len(order)
        target_masks = target.neighbor_masks
        position_of = {vertex: pos for pos, vertex in enumerate(order)}
        anchor_positions: List[List[int]] = [
            [position_of[nb] for nb in pattern.neighbors(vertex) if position_of[nb] < pos]
            for pos, vertex in enumerate(order)
        ]

        images: List[int] = [0] * n
        used_mask = 0

        def backtrack(pos: int) -> bool:
            nonlocal used_mask
            if pos == n:
                return True
            # Restrict by adjacency to already-mapped neighbours; bits are
            # consumed in ascending vertex order (the previous sorted() order).
            pool = candidates[order[pos]] & ~used_mask
            for anchor in anchor_positions[pos]:
                pool &= target_masks[images[anchor]]
                if not pool:
                    return False
            while pool:
                low = pool & -pool
                pool ^= low
                budget.tick()
                images[pos] = low.bit_length() - 1
                used_mask |= low
                if backtrack(pos + 1):
                    return True
                used_mask &= ~low
            return False

        if backtrack(0):
            return {vertex: images[position_of[vertex]] for vertex in order}
        return None
