"""Ullmann's subgraph-isomorphism algorithm (Ullmann, 1976).

Ullmann's algorithm maintains a boolean compatibility matrix ``M`` where
``M[i][j] = 1`` means pattern vertex ``i`` may still map onto target vertex
``j``.  Before each branching step the matrix is *refined*: a pair ``(i, j)``
survives only if every pattern neighbour of ``i`` still has at least one
compatible target neighbour of ``j``.  Refinement to a fixpoint is exactly the
arc-consistency propagation that modern CP solvers use, and it is what makes
Ullmann competitive on densely-constrained patterns despite its age.

This implementation decides the non-induced, vertex-labelled variant used
throughout the library.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..graphs.graph import Graph
from .base import SearchBudget, SubgraphMatcher

__all__ = ["UllmannMatcher"]


class UllmannMatcher(SubgraphMatcher):
    """Ullmann's algorithm with arc-consistency refinement."""

    name = "ullmann"

    def _initial_domains(self, pattern: Graph, target: Graph) -> List[set]:
        domains: List[set] = []
        for p_vertex in pattern.vertices():
            label = pattern.label(p_vertex)
            degree = pattern.degree(p_vertex)
            domain = {
                t_vertex
                for t_vertex in target.vertices_with_label(label)
                if target.degree(t_vertex) >= degree
            }
            domains.append(domain)
        return domains

    @staticmethod
    def _refine(pattern: Graph, target: Graph, domains: List[set]) -> bool:
        """Propagate neighbourhood constraints until a fixpoint.

        Returns ``False`` if some domain becomes empty (no embedding possible).
        """
        changed = True
        while changed:
            changed = False
            for p_vertex in pattern.vertices():
                survivors = set()
                for t_candidate in domains[p_vertex]:
                    ok = True
                    for p_neighbour in pattern.neighbors(p_vertex):
                        t_neighbourhood = target.neighbors(t_candidate)
                        if domains[p_neighbour].isdisjoint(t_neighbourhood):
                            ok = False
                            break
                    if ok:
                        survivors.add(t_candidate)
                if len(survivors) != len(domains[p_vertex]):
                    domains[p_vertex] = survivors
                    changed = True
                    if not survivors:
                        return False
        return True

    # ------------------------------------------------------------------ #
    # Bitmask twin of ``_initial_domains``: the search operates on integer
    # domain masks (one bit per target vertex) so that copy-and-restrict and
    # arc-consistency propagation are plain ``&`` operations.  (The set-based
    # helpers above are kept as the inspectable/reference API.)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _initial_domain_masks(pattern: Graph, target: Graph) -> List[int]:
        return [
            target.label_id_mask(pattern.label_id(p_vertex))
            & target.degree_ge_mask(pattern.degree(p_vertex))
            for p_vertex in pattern.vertices()
        ]

    def _search(
        self,
        pattern: Graph,
        target: Graph,
        budget: SearchBudget,
        want_embedding: bool,
    ) -> Optional[Dict[int, int]]:
        domains = self._initial_domain_masks(pattern, target)
        if any(not d for d in domains):
            return None

        n = pattern.order
        target_masks = target.neighbor_masks
        pattern_neighbors = [list(pattern.neighbors(v)) for v in pattern.vertices()]
        mapping: Dict[int, int] = {}

        def refine(domains: List[int], dirty: set) -> bool:
            """Worklist arc-consistency: re-check only vertices whose
            neighbourhood constraints may have changed."""
            while dirty:
                p_vertex = dirty.pop()
                survivors = 0
                probe = domains[p_vertex]
                while probe:
                    low = probe & -probe
                    probe ^= low
                    t_neighbourhood = target_masks[low.bit_length() - 1]
                    for p_neighbour in pattern_neighbors[p_vertex]:
                        if not domains[p_neighbour] & t_neighbourhood:
                            break
                    else:
                        survivors |= low
                if survivors != domains[p_vertex]:
                    if not survivors:
                        return False
                    domains[p_vertex] = survivors
                    dirty.update(pattern_neighbors[p_vertex])
            return True

        if not refine(domains, set(range(n))):
            return None

        def backtrack(depth: int, domains: List[int], used_mask: int) -> bool:
            if depth == n:
                return True
            # Choose the unassigned pattern vertex with the smallest domain
            # (fail-first heuristic).
            unassigned = [v for v in range(n) if v not in mapping]
            vertex = min(unassigned, key=lambda v: domains[v].bit_count())
            pool = domains[vertex] & ~used_mask
            while pool:
                low = pool & -pool
                pool ^= low
                candidate = low.bit_length() - 1
                budget.tick()
                # Copy-and-restrict domains for the recursive call, tracking
                # which domains actually shrank: the parent state is already
                # arc-consistent, so only neighbours of shrunk domains can
                # lose support and need re-checking.
                next_domains = list(domains)
                next_domains[vertex] = low
                changed = [vertex]
                for other in range(n):
                    if other != vertex:
                        restricted = next_domains[other] & ~low
                        if restricted != next_domains[other]:
                            next_domains[other] = restricted
                            changed.append(other)
                # Pattern neighbours of ``vertex`` must map to target
                # neighbours of ``candidate``.
                feasible = True
                candidate_neighbourhood = target_masks[candidate]
                for neighbour in pattern_neighbors[vertex]:
                    if neighbour in mapping:
                        if not candidate_neighbourhood & (1 << mapping[neighbour]):
                            feasible = False
                            break
                    else:
                        restricted = next_domains[neighbour] & candidate_neighbourhood
                        if not restricted:
                            feasible = False
                            break
                        if restricted != next_domains[neighbour]:
                            next_domains[neighbour] = restricted
                            changed.append(neighbour)
                if not feasible:
                    continue
                dirty: set = set()
                for c in changed:
                    dirty.update(pattern_neighbors[c])
                if not refine(next_domains, dirty):
                    continue
                mapping[vertex] = candidate
                if backtrack(depth + 1, next_domains, used_mask | low):
                    return True
                del mapping[vertex]
            return False

        if backtrack(0, domains, 0):
            return dict(mapping)
        return None
