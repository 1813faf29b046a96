"""The compiled-plan, explicit-stack VF2 kernel against the recursive one it replaced.

The pre-refactor kernel — one plan per ``(pattern, target)`` pair and a
recursive ``backtrack`` closure — lives on here, test-side only, as the oracle
(the way ``benchmarks/test_bench_matchers.py`` keeps the set-based core).  The
library kernel must walk **the same search tree in the same order**: equal
verdict, equal witness embedding, equal ``nodes_expanded``, and a budget blown
at the same node.
"""

from __future__ import annotations

import gc
import random
import weakref
from typing import Dict, List, Optional, Tuple

import pytest

from repro.exceptions import MatchTimeout
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.packed import PackedGraphView
from repro.isomorphism import VF2Matcher, VF2PlusMatcher
from repro.isomorphism.base import SearchBudget
from repro.isomorphism.vf2 import connectivity_order

from .helpers import LABELS, contained_pair, random_pair


class _RecursiveVF2(VF2Matcher):
    """The pre-refactor kernel, verbatim: pair-keyed plans, recursive search."""

    name = "vf2-recursive-oracle"

    def __init__(self) -> None:
        super().__init__()
        self._plan_cache: Dict[Tuple[Graph, Graph], tuple] = {}

    def _order(self, pattern: Graph, target: Graph) -> List[int]:
        return connectivity_order(pattern)

    def _plan(self, pattern: Graph, target: Graph) -> tuple:
        key = (pattern, target)
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan
        order = self._order(pattern, target)
        position_of = {vertex: pos for pos, vertex in enumerate(order)}
        anchor_positions: List[List[int]] = []
        unmapped_pattern_degree: List[int] = []
        base_masks: List[int] = []
        for pos, vertex in enumerate(order):
            anchors = [
                position_of[nb] for nb in pattern.neighbors(vertex) if position_of[nb] < pos
            ]
            anchor_positions.append(anchors)
            unmapped_pattern_degree.append(pattern.degree(vertex) - len(anchors))
            base_masks.append(
                target.label_id_mask(pattern.label_id(vertex))
                & target.degree_ge_mask(pattern.degree(vertex))
            )
        plan = (order, anchor_positions, unmapped_pattern_degree, base_masks)
        self._plan_cache[key] = plan
        return plan

    def _search(
        self,
        pattern: Graph,
        target: Graph,
        budget: SearchBudget,
        want_embedding: bool,
    ) -> Optional[Dict[int, int]]:
        order, anchor_positions, unmapped_pattern_degree, base_masks = self._plan(
            pattern, target
        )
        n = len(order)
        target_masks = target.neighbor_masks
        images: List[int] = [0] * n
        used_mask = 0

        def backtrack(pos: int) -> bool:
            nonlocal used_mask
            if pos == n:
                return True
            pool = base_masks[pos] & ~used_mask
            for anchor in anchor_positions[pos]:
                pool &= target_masks[images[anchor]]
                if not pool:
                    return False
            lookahead = unmapped_pattern_degree[pos]
            while pool:
                low = pool & -pool
                pool ^= low
                candidate = low.bit_length() - 1
                budget.tick()
                if (target_masks[candidate] & ~used_mask).bit_count() < lookahead:
                    continue
                images[pos] = candidate
                used_mask |= low
                if backtrack(pos + 1):
                    return True
                used_mask &= ~low
            return False

        if backtrack(0):
            return {vertex: images[pos] for pos, vertex in enumerate(order)}
        return None


class _RecursiveVF2Plus(_RecursiveVF2):
    """The pre-refactor VF2+ ordering (label frequency by mask popcount)."""

    name = "vf2plus-recursive-oracle"

    def _order(self, pattern: Graph, target: Graph) -> List[int]:
        total = max(1, target.order)
        priorities = []
        for vertex in pattern.vertices():
            frequency = target.label_id_mask(pattern.label_id(vertex)).bit_count() / total
            priorities.append((1.0 - frequency) * 1000.0 + pattern.degree(vertex))
        return connectivity_order(pattern, priority=priorities)


KERNELS = [
    pytest.param(VF2Matcher, _RecursiveVF2, id="vf2"),
    pytest.param(VF2PlusMatcher, _RecursiveVF2Plus, id="vf2plus"),
]


def _disconnected_pair(seed: int) -> Tuple[Graph, Graph]:
    """A two-component pattern (one component possibly a lone vertex)."""
    rng = random.Random(seed)
    target = random_connected_graph(rng.randint(8, 16), 2.6, LABELS, rng)
    left = random_connected_graph(rng.randint(2, 4), 2.0, LABELS, rng)
    right = random_connected_graph(rng.randint(1, 3), 2.0, LABELS, rng)
    shift = left.order
    pattern = Graph(
        labels=left.labels + right.labels,
        edges=list(left.edges) + [(u + shift, v + shift) for u, v in right.edges],
    )
    return pattern, target


def _single_vertex_pair(seed: int) -> Tuple[Graph, Graph]:
    rng = random.Random(seed)
    target = random_connected_graph(rng.randint(1, 12), 2.4, LABELS, rng)
    return Graph(labels=[rng.choice(LABELS + ["S"])]), target


def _pairs() -> List[Tuple[Graph, Graph]]:
    """Seeded pairs: contained, arbitrary, disconnected, single-vertex, and
    every other one again with a ``PackedGraphView`` target."""
    pairs: List[Tuple[Graph, Graph]] = []
    for seed in range(130):
        pairs.append(contained_pair(seed, target_order=10 + seed % 12))
        pairs.append(random_pair(seed, target_order=8 + seed % 10, pattern_order=3 + seed % 5))
    for seed in range(40):
        pairs.append(_disconnected_pair(seed))
        pairs.append(_single_vertex_pair(seed))
    # >64 vertices: multi-word masks.
    rng = random.Random(99)
    big = random_connected_graph(90, 3.0, LABELS, rng)
    for _ in range(10):
        pairs.append((big.induced_subgraph(rng.sample(range(90), k=8)), big))
    views = [
        (pattern, PackedGraphView(target.to_packed())) for pattern, target in pairs[::2]
    ]
    # Views as patterns too (cached queries are matched in both roles).
    views += [
        (PackedGraphView(pattern.to_packed()), target) for pattern, target in pairs[1:120:4]
    ]
    return pairs + views


PAIRS = _pairs()


def _run(matcher, pattern, target, via_match, **limits):
    """``(matched, embedding, nodes)`` or ``("timeout", node_limit, nodes)``."""
    budget = SearchBudget(**limits)
    try:
        if via_match:
            outcome = matcher.match(pattern, target, budget=budget)
            assert outcome.nodes_expanded == budget.nodes_expanded
            result = (outcome.matched, outcome.embedding)
        else:
            # Straight into the kernel: no ``could_be_subgraph`` pre-check, so
            # hopeless pairs and empty base masks reach the search itself.
            budget.start()
            embedding = matcher._search(pattern, target, budget, True)
            result = (embedding is not None, embedding)
    except MatchTimeout as timeout:
        return ("timeout", timeout.node_limit, budget.nodes_expanded)
    if result[1] is not None:
        assert matcher.verify_embedding(pattern, target, result[1])
        result = (result[0], list(result[1].items()))
    return (*result, budget.nodes_expanded)


def test_pair_corpus_has_at_least_500_pairs():
    assert len(PAIRS) >= 500


@pytest.mark.parametrize("kernel_cls, oracle_cls", KERNELS)
class TestSameSearchTree:
    @pytest.mark.parametrize("via_match", [True, False], ids=["match", "search"])
    def test_verdict_embedding_and_nodes_equal(self, kernel_cls, oracle_cls, via_match):
        kernel, oracle = kernel_cls(), oracle_cls()
        matched = expanded = 0
        for pattern, target in PAIRS:
            got = _run(kernel, pattern, target, via_match)
            assert got == _run(oracle, pattern, target, via_match)
            # A second call runs off the memoised plan and must not drift.
            assert got == _run(kernel, pattern, target, via_match)
            matched += got[0]
            expanded += got[2]
        assert 0 < matched < len(PAIRS) and expanded > len(PAIRS)

    def test_empty_base_mask(self, kernel_cls, oracle_cls):
        target = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        absent_label = Graph(labels=["C", "C", "S"], edges=[(0, 1), (1, 2)])
        degree_too_high = Graph(labels=["C", "C", "O", "O"], edges=[(0, 1), (0, 2), (0, 3)])
        for pattern in (absent_label, degree_too_high):
            got = _run(kernel_cls(), pattern, target, False)
            assert got == _run(oracle_cls(), pattern, target, False)
            assert got[0] is False

    def test_empty_pattern_reaches_kernel_safely(self, kernel_cls, oracle_cls):
        target = Graph(labels=["C"])
        budget = SearchBudget()
        budget.start()
        assert kernel_cls()._search(Graph(labels=[]), target, budget, True) == {}
        assert budget.nodes_expanded == 0

    def test_compiled_plan_matches_the_pair_plan(self, kernel_cls, oracle_cls):
        kernel, oracle = kernel_cls(), oracle_cls()
        for pattern, target in PAIRS[:200]:
            order, anchors, lookahead, base_masks = oracle._plan(pattern, target)
            plan = kernel.compile(pattern, target)
            assert list(plan.order) == order
            assert [list(mapped) for mapped in plan.anchors] == anchors
            assert list(plan.lookahead) == lookahead
            assert plan.lookahead[-1] == 0  # the look-ahead is skipped there
            assert plan.base_masks(target) == base_masks

    def test_node_limit_raises_at_the_same_node(self, kernel_cls, oracle_cls):
        kernel, oracle = kernel_cls(), oracle_cls()
        raised = finished = 0
        for pattern, target in PAIRS[:60:3] + PAIRS[-40::8]:
            total = _run(oracle, pattern, target, True)[2]
            for limit in [*range(0, min(total, 12) + 2), total - 1, total, total + 1]:
                if limit < 0:
                    continue
                got = _run(kernel, pattern, target, True, node_limit=limit)
                assert got == _run(oracle, pattern, target, True, node_limit=limit)
                if got[0] == "timeout":
                    # Which limit, and the exact node the search stopped on.
                    assert got[1:] == (limit, limit + 1) and limit < total
                    raised += 1
                else:
                    assert got[2] == total <= limit
                    finished += 1
        assert raised > 50 and finished > 50

    def test_time_and_node_limit_together(self, kernel_cls, oracle_cls):
        pattern, target = contained_pair(5, target_order=16)
        total = _run(oracle_cls(), pattern, target, True)[2]
        got = _run(kernel_cls(), pattern, target, True, node_limit=total, time_limit_s=60.0)
        assert got == _run(oracle_cls(), pattern, target, True)


def _hard_instance() -> Tuple[Graph, Graph]:
    """An odd cycle never fits a bipartite graph: the search must exhaust."""
    cycle = Graph(labels=["C"] * 9, edges=[(i, (i + 1) % 9) for i in range(9)])
    bipartite = Graph(
        labels=["C"] * 24, edges=[(u, v) for u in range(12) for v in range(12, 24)]
    )
    return cycle, bipartite


@pytest.mark.parametrize("kernel_cls", [VF2Matcher, VF2PlusMatcher])
class TestBudgetReporting:
    def test_tiny_time_limit_raises_on_a_hard_instance(self, kernel_cls):
        pattern, target = _hard_instance()
        budget = SearchBudget(time_limit_s=1e-6)
        with pytest.raises(MatchTimeout) as raised:
            kernel_cls().is_subgraph(pattern, target, budget=budget)
        assert raised.value.node_limit is None
        assert raised.value.budget_s == 1e-6
        assert "0.000s" in str(raised.value)
        # The clock is read every 64th node; the count survives the raise.
        assert budget.nodes_expanded == 64

    def test_node_limit_names_the_limit_that_was_hit(self, kernel_cls):
        pattern, target = _hard_instance()
        budget = SearchBudget(node_limit=1000, time_limit_s=30.0)
        with pytest.raises(MatchTimeout) as raised:
            kernel_cls().is_subgraph(pattern, target, budget=budget)
        assert raised.value.node_limit == 1000
        assert raised.value.budget_s == 30.0
        assert "1000-node" in str(raised.value) and "0.000s" not in str(raised.value)
        assert budget.nodes_expanded == 1001

    def test_unlimited_budget_counts_in_a_local_and_writes_back(self, kernel_cls):
        pattern, target = contained_pair(3, target_order=16)
        plain, ticking = SearchBudget(), SearchBudget(node_limit=10**9)
        kernel_cls().match(pattern, target, budget=plain)
        kernel_cls().match(pattern, target, budget=ticking)
        assert plain.nodes_expanded == ticking.nodes_expanded > 0


class _Tracked(Graph):
    """``Graph`` is slotted without ``__weakref__``; a plain subclass is not."""


@pytest.mark.parametrize("kernel_cls", [VF2Matcher, VF2PlusMatcher])
class TestPlanMemo:
    def test_no_target_is_reachable_from_the_matcher(self, kernel_cls):
        matcher = kernel_cls()
        pattern = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        targets = []
        for seed in range(50):
            rng = random.Random(seed)
            graph = random_connected_graph(rng.randint(6, 80), 2.6, LABELS, rng)
            targets.append(_Tracked(labels=graph.labels, edges=graph.edges, graph_id=seed))
        assert len(set(targets)) == 50
        verdicts = [matcher.is_subgraph(pattern, target) for target in targets]
        assert any(verdicts)
        if kernel_cls is VF2Matcher:
            assert len(matcher._plans) == 1  # one pattern, one compiled plan
        else:
            assert 1 <= len(matcher._plans) <= 50  # per label-count profile
        references = [weakref.ref(target) for target in targets]
        del targets
        gc.collect()
        assert not any(reference() is not None for reference in references)
        # Nor a target-sized bitmask: a plan holds positions, degrees, label ids.
        for plan in matcher._plans.values():
            small = [*plan.order, *plan.lookahead, *(x for row in plan.anchors for x in row)]
            assert all(0 <= value < pattern.order for value in small)
            assert all(degree <= 2 for _, degree in plan.qualifiers)

    def test_memo_is_bounded(self, kernel_cls):
        matcher = kernel_cls()
        matcher._plans.limit = 4
        for seed in range(10):
            pattern, target = contained_pair(seed, target_order=10)
            assert matcher.is_subgraph(pattern, target)
            assert len(matcher._plans) <= 4
        assert len(matcher._plans) > 0
