"""Algorithm-specific tests: vertex orderings and refinement internals."""

from __future__ import annotations

import random

from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.isomorphism.graphql_match import GraphQLMatcher
from repro.isomorphism.vf2 import VF2Matcher, connectivity_order
from repro.isomorphism.vf2_plus import VF2PlusMatcher


class TestConnectivityOrder:
    def test_order_is_permutation(self, house_graph):
        order = connectivity_order(house_graph)
        assert sorted(order) == list(range(house_graph.order))

    def test_each_vertex_has_earlier_neighbour(self, house_graph):
        order = connectivity_order(house_graph)
        placed = {order[0]}
        for vertex in order[1:]:
            assert any(n in placed for n in house_graph.neighbors(vertex))
            placed.add(vertex)

    def test_disconnected_graph_covered(self):
        g = Graph(labels=["C", "C", "O", "O"], edges=[(0, 1), (2, 3)])
        order = connectivity_order(g)
        assert sorted(order) == [0, 1, 2, 3]

    def test_empty_graph(self):
        assert connectivity_order(Graph(labels=[])) == []

    def test_priority_controls_start(self, path_graph):
        order = connectivity_order(path_graph, priority=[0, 0, 0, 10])
        assert order[0] == 3

    def test_random_graphs_connectivity_property(self):
        rng = random.Random(0)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 20), 2.4, ["C", "O"], rng)
            order = connectivity_order(g)
            placed = {order[0]}
            for vertex in order[1:]:
                assert any(n in placed for n in g.neighbors(vertex))
                placed.add(vertex)


class TestVF2PlusOrdering:
    def test_rare_label_first(self):
        pattern = Graph(labels=["C", "C", "N"], edges=[(0, 1), (1, 2)])
        target = Graph(
            labels=["C"] * 8 + ["N"],
            edges=[(i, i + 1) for i in range(8)],
        )
        order = VF2PlusMatcher()._order(pattern, target)
        assert order[0] == 2  # the N vertex is rarest in the target

    def test_same_result_as_vf2(self):
        rng = random.Random(1)
        for seed in range(10):
            rng = random.Random(seed)
            target = random_connected_graph(12, 2.5, ["C", "N", "O"], rng)
            pattern = target.induced_subgraph(rng.sample(range(12), k=5))
            assert VF2Matcher().is_subgraph(pattern, target) == VF2PlusMatcher().is_subgraph(
                pattern, target
            )


class TestGraphQLInternals:
    def test_initial_candidates_use_profiles(self, path_graph):
        pattern = Graph(labels=["C", "O"], edges=[(0, 1)])
        matcher = GraphQLMatcher()
        candidates = matcher._initial_candidate_masks(pattern, path_graph)
        # Pattern vertex 0 is a C adjacent to an O: only vertex 1 qualifies.
        assert candidates[0] == 1 << 1

    def test_search_order_prefers_small_candidate_sets(self, path_graph):
        pattern = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        matcher = GraphQLMatcher()
        candidates = matcher._initial_candidate_masks(pattern, path_graph)
        order = matcher._search_order(pattern, candidates)
        assert sorted(order) == [0, 1, 2]
        assert candidates[order[0]].bit_count() == min(c.bit_count() for c in candidates)
