"""Tests for the containment-memo layer of the GC processors.

Skewed workloads repeat query structures heavily; the memo turns the second
and later confirmations of the same ``(pattern, target)`` structure pair into
dictionary lookups.  Correctness requirement: a memoised processor run must
return exactly the outcomes of an unmemoised run (modulo timing and the
test/memo counters).
"""

from __future__ import annotations

import random

import pytest

from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.processors import CacheProcessors
from repro.core.query_index import QueryGraphIndex
from repro.graphs.generators import aids_like, random_connected_graph
from repro.graphs.graph import Graph
from repro.methods.si import SIMethod
from repro.workloads import extract_query_bfs


def build_index(entries):
    index = QueryGraphIndex(max_path_length=3)
    for serial, graph in entries:
        index.add(serial, graph)
    return index


def _query_pool(seed: int = 23, count: int = 12):
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        order = rng.randint(3, 8)
        pool.append(random_connected_graph(order, 2.2, ["C", "N", "O"], rng))
    return pool


class MatcherVerdicts(CacheProcessors):
    """The memo-free reference: every verdict straight from the matcher's
    ``is_subgraph``."""

    def _contains(self, pattern, target):
        return self.matcher.is_subgraph(pattern, target), False


CC_EDGE = Graph(labels=["C", "C"], edges=[(0, 1)])
CCO_PATH = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
CCON_PATH = Graph(labels=["C", "C", "O", "N"], edges=[(0, 1), (1, 2), (2, 3)])


class TestContainmentMemo:
    def test_repeated_query_runs_zero_new_tests(self):
        processors = CacheProcessors(build_index([(1, CCON_PATH), (2, CC_EDGE)]))
        first = processors.process(CCO_PATH)
        assert first.containment_tests >= 1
        assert first.memo_hits == 0
        # Same structure again (a fresh object): every verdict is memoised.
        repeat = processors.process(Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)]))
        assert repeat.containment_tests == 0
        assert repeat.memo_hits == first.containment_tests
        assert repeat.result_sub == first.result_sub
        assert repeat.result_super == first.result_super
        assert repeat.exact_match_serial == first.exact_match_serial

    def test_memoised_equals_unmemoised(self):
        pool = _query_pool()
        entries = [(serial, graph) for serial, graph in enumerate(pool[:6])]
        memoised = CacheProcessors(build_index(entries))
        plain = MatcherVerdicts(build_index(entries))
        rng = random.Random(7)
        # A Zipf-ish stream: heavy repetition of a few pool structures.
        stream = [pool[min(rng.randint(0, 11), rng.randint(0, 11))] for _ in range(60)]
        for query in stream:
            a = memoised.process(query)
            b = plain.process(query)
            assert a.result_sub == b.result_sub
            assert a.result_super == b.result_super
            assert a.exact_match_serial == b.exact_match_serial
        assert memoised.memo_hits > 0
        assert plain.memo_hits == 0

    def test_memo_limit_clears(self):
        processors = CacheProcessors(build_index([(1, CCON_PATH)]))
        processors.MEMO_LIMIT = 1
        processors.process(CCO_PATH)
        processors.process(CC_EDGE)
        assert processors.memo_size <= 1

    def test_unmemoised_counts_every_test(self):
        processors = MatcherVerdicts(build_index([(1, CCON_PATH)]))
        first = processors.process(CCO_PATH)
        second = processors.process(CCO_PATH)
        assert first.containment_tests == second.containment_tests >= 1
        assert second.memo_hits == 0


class TestGraphCacheMemoIntegration:
    @pytest.fixture(scope="class")
    def cache_run(self):
        dataset = aids_like(scale=0.06, seed=5)
        method = SIMethod(dataset, matcher="vf2plus")
        cache = GraphCache(
            method, config=GraphCacheConfig(cache_capacity=8, window_size=4)
        )
        rng = random.Random(3)
        bases = []
        while len(bases) < 3:
            source = dataset[rng.randrange(len(dataset))]
            query = extract_query_bfs(source, rng.randrange(source.order), rng.randint(3, 5))
            if query is not None and query not in bases:
                bases.append(query)
        # Each base again with its vertex numbering reversed: isomorphic, not
        # equal, so only the processors' loop (and its memo) finds the hit.
        pool = bases + [
            Graph(
                labels=list(reversed(base.labels)),
                edges=[(base.order - 1 - u, base.order - 1 - v) for u, v in base.edges],
            )
            for base in bases
        ]
        results = []
        # Three identical passes over the pool.  Pass one populates the cache;
        # pass two still runs real tests against cached structures that did
        # not exist during pass one; by pass three every structure pair the
        # index can propose has been confirmed once, so the memo answers all.
        for query in pool * 3:
            results.append(cache.query(query))
        return cache, pool, results

    def test_repeated_identical_queries_hit_memo(self, cache_run):
        cache, pool, results = cache_run
        third_pass = results[2 * len(pool):]
        assert sum(r.containment_tests for r in third_pass) == 0
        assert sum(r.containment_memo_hits for r in third_pass) > 0
        assert cache.runtime_statistics.containment_memo_hits > 0

    def test_answers_identical_across_passes(self, cache_run):
        cache, pool, results = cache_run
        first_pass = results[: len(pool)]
        third_pass = results[2 * len(pool):]
        for a, b in zip(first_pass, third_pass, strict=True):
            assert a.answer_ids == b.answer_ids

    def test_memo_counters_flow_to_runtime_statistics(self, cache_run):
        cache, _, results = cache_run
        runtime = cache.runtime_statistics
        assert runtime.containment_tests == sum(r.containment_tests for r in results)
        assert runtime.containment_memo_hits == sum(
            r.containment_memo_hits for r in results
        )
        assert "containment_memo_hits" in runtime.as_dict()
