"""End-to-end correctness of GraphCache: no false positives, no false negatives.

The central claim of the paper (proved formally in its companion paper [34])
is that GraphCache returns exactly the answer set Method M would return on
its own, for every query, regardless of replacement policy, cache/window
sizes, admission control, or query mode.  These tests exercise that claim on
generated datasets and workloads, including property-based variants.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.exceptions import CacheError
from repro.ftv import CTIndex, GraphGrepSX
from repro.graphs.generators import aids_like
from repro.isomorphism import VF2PlusMatcher
from repro.methods import SIMethod, execute_query
from repro.workloads import generate_type_a

MATCHER = VF2PlusMatcher()


def baseline_answers(method, queries, query_mode="subgraph"):
    return [execute_query(method, q, query_mode=query_mode).answer_ids for q in queries]


@pytest.fixture(scope="module")
def module_dataset():
    return aids_like(scale=0.08, seed=23)


@pytest.fixture(scope="module")
def module_workload(module_dataset):
    return generate_type_a(
        module_dataset, "ZZ", 40, query_sizes=(3, 5, 8, 12), seed=2
    )


class TestAnswerEquivalence:
    @pytest.mark.parametrize("policy", ["lru", "pop", "pin", "pinc", "hd"])
    def test_si_method_all_policies(self, module_dataset, module_workload, policy):
        method = SIMethod(module_dataset, matcher="vf2plus")
        expected = baseline_answers(method, module_workload)
        cache = GraphCache(
            method,
            GraphCacheConfig(cache_capacity=8, window_size=4, replacement_policy=policy),
        )
        for query, answer in zip(module_workload, expected, strict=True):
            assert cache.query(query).answer_ids == answer

    def test_ftv_method_ggsx(self, module_dataset, module_workload):
        method = GraphGrepSX(module_dataset, max_path_length=3)
        expected = baseline_answers(method, module_workload)
        cache = GraphCache(method, GraphCacheConfig(cache_capacity=8, window_size=4))
        for query, answer in zip(module_workload, expected, strict=True):
            assert cache.query(query).answer_ids == answer

    def test_ftv_method_ctindex(self, module_dataset, module_workload):
        method = CTIndex(module_dataset, max_tree_size=3, max_cycle_size=4, fingerprint_bits=1024)
        expected = baseline_answers(method, module_workload)
        cache = GraphCache(method, GraphCacheConfig(cache_capacity=8, window_size=4))
        for query, answer in zip(module_workload, expected, strict=True):
            assert cache.query(query).answer_ids == answer

    def test_with_admission_control(self, module_dataset, module_workload):
        method = SIMethod(module_dataset, matcher="vf2plus")
        expected = baseline_answers(method, module_workload)
        cache = GraphCache(
            method,
            GraphCacheConfig(
                cache_capacity=8, window_size=4, admission_control=True,
            ),
        )
        for query, answer in zip(module_workload, expected, strict=True):
            assert cache.query(query).answer_ids == answer

    def test_tiny_cache_and_window(self, module_dataset, module_workload):
        method = SIMethod(module_dataset, matcher="vf2plus")
        expected = baseline_answers(method, module_workload)
        cache = GraphCache(method, GraphCacheConfig(cache_capacity=1, window_size=1))
        for query, answer in zip(module_workload, expected, strict=True):
            assert cache.query(query).answer_ids == answer

    def test_supergraph_query_mode(self, module_dataset):
        method = SIMethod(module_dataset, matcher="vf2plus")
        # Supergraph queries: use whole dataset graphs (and fragments) as queries.
        rng = random.Random(4)
        queries = []
        for _ in range(15):
            source = module_dataset[rng.randrange(len(module_dataset))]
            queries.append(source)
        expected = baseline_answers(method, queries, query_mode="supergraph")
        cache = GraphCache(
            method,
            GraphCacheConfig(cache_capacity=6, window_size=3, query_mode="supergraph"),
        )
        for query, answer in zip(queries, expected, strict=True):
            assert cache.query(query).answer_ids == answer

    def test_supergraph_mode_requires_capable_method(self, module_dataset):
        method = GraphGrepSX(module_dataset, max_path_length=2)
        with pytest.raises(CacheError):
            GraphCache(method, GraphCacheConfig(query_mode="supergraph"))


class TestPropertyBased:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        capacity=st.integers(1, 10),
        window=st.integers(1, 6),
        policy=st.sampled_from(["lru", "pop", "pin", "pinc", "hd"]),
    )
    def test_random_configurations_preserve_answers(self, seed, capacity, window, policy):
        dataset = aids_like(scale=0.05, seed=seed % 7)
        workload = generate_type_a(
            dataset, "ZZ", 15, query_sizes=(3, 5, 8), seed=seed
        )
        method = SIMethod(dataset, matcher="vf2plus")
        expected = baseline_answers(method, workload)
        cache = GraphCache(
            method,
            GraphCacheConfig(
                cache_capacity=capacity,
                window_size=window,
                replacement_policy=policy,
            ),
        )
        for query, answer in zip(workload, expected, strict=True):
            result = cache.query(query)
            assert result.answer_ids == answer
            # Internal consistency of the per-query accounting.
            assert result.subiso_tests == result.final_candidates
            assert result.method_candidates >= result.final_candidates
