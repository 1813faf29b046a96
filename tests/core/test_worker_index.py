"""Sealed feature index on the multi-process serving path.

PR 8 removed per-worker dataset copies; this pins the same property for the
FTV *index*: the pool owner compiles its built index into one
``*.ftv.arena`` segment at :meth:`ProcessPoolCacheService.start`, every
forked worker attaches it read-only, and worker startup over the packed
dataset constructs **zero** ``Graph`` objects.  A stale segment (left over
from a different dataset) must fail the content-hash handshake and fall
back to an in-process rebuild — with identical answers either way.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.core import GraphCacheConfig, ProcessPoolCacheService, ShardedGraphCache
from repro.core.packed_dataset import PackedGraphDataset, seal_dataset
from repro.ftv.ctindex import CTIndex
from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.grapes import Grapes
from repro.graphs.generators import aids_like
from repro.graphs.graph import graph_constructions
from repro.workloads import generate_type_a


@functools.lru_cache(maxsize=1)
def _dataset():
    return aids_like(scale=0.05, seed=1)


def _workload(count=24, seed=7):
    return list(
        generate_type_a(_dataset(), "ZZ", count, query_sizes=(3, 5, 8), seed=seed)
    )


def _config(tmp_path, **overrides):
    defaults = dict(
        cache_capacity=8,
        window_size=4,
        shards=2,
        backend="mmap",
        backend_path=str(tmp_path / "cache.db"),
    )
    defaults.update(overrides)
    return GraphCacheConfig(**defaults)


class TestPoolSealsFeatureIndex:
    def test_start_seals_index_segment(self, tmp_path):
        with ProcessPoolCacheService(
            GraphGrepSX(_dataset()), _config(tmp_path), workers=2
        ) as pool:
            pool.start()
            assert pool.feature_index_path is not None
            assert pool.feature_index_path.endswith(".ftv.arena")
            assert os.path.exists(pool.feature_index_path)

    def test_non_ftv_method_has_no_index_path(self, tmp_path):
        from repro.methods import SIMethod

        with ProcessPoolCacheService(
            SIMethod(_dataset(), matcher="vf2plus"), _config(tmp_path), workers=2
        ) as pool:
            pool.start()
            assert pool.feature_index_path is None

    @pytest.mark.parametrize("method_cls", [GraphGrepSX, Grapes, CTIndex])
    def test_pool_answers_match_sharded_cache(self, tmp_path, method_cls):
        workload = _workload()
        sharded = ShardedGraphCache(
            method_cls(_dataset()), GraphCacheConfig(cache_capacity=8, window_size=4, shards=2)
        )
        expected = [sharded.query(query).answer_ids for query in workload]
        sharded.close()

        with ProcessPoolCacheService(
            method_cls(_dataset()), _config(tmp_path), workers=2
        ) as pool:
            answers = [result.answer_ids for result in pool.run(workload)]
        assert answers == expected


class TestDecodeFreeStartup:
    @pytest.mark.parametrize("method_cls", [GraphGrepSX, Grapes, CTIndex])
    def test_build_over_packed_dataset_constructs_no_graphs(self, tmp_path, method_cls):
        path = seal_dataset(_dataset(), tmp_path / "dataset.arena")
        packed = PackedGraphDataset.attach(path)
        try:
            before = graph_constructions()
            method_cls(packed)
            assert graph_constructions() == before
        finally:
            packed.close()

    def test_attach_prebuilt_index_constructs_no_graphs(self, tmp_path):
        index_path = tmp_path / "index.ftv.arena"
        GraphGrepSX(_dataset()).seal_feature_index(index_path)
        path = seal_dataset(_dataset(), tmp_path / "dataset.arena")
        packed = PackedGraphDataset.attach(path)
        try:
            method = GraphGrepSX(packed)
            before = graph_constructions()
            assert method.attach_feature_index(index_path) is True
            assert graph_constructions() == before
        finally:
            packed.close()


class TestStaleIndexFallback:
    def test_stale_segment_detected_and_rebuilt(self, tmp_path):
        workload = _workload(count=16)
        config = _config(tmp_path)
        # Pre-place an index sealed over a *different* dataset at the pool's
        # segment path: start() keeps the existing file, the workers' hash
        # handshake rejects it, and they rebuild in-process.
        stale_source = GraphGrepSX(aids_like(scale=0.05, seed=2))
        stale_source.seal_feature_index(f"{config.backend_path}.ftv.arena")

        fresh = ShardedGraphCache(
            GraphGrepSX(_dataset()),
            GraphCacheConfig(cache_capacity=8, window_size=4, shards=2),
        )
        expected = [fresh.query(query).answer_ids for query in workload]
        fresh.close()

        with ProcessPoolCacheService(
            GraphGrepSX(_dataset()), config, workers=2
        ) as pool:
            answers = [result.answer_ids for result in pool.run(workload)]
        assert answers == expected

    def test_stale_attach_unit_warns_and_rebuilds(self, tmp_path):
        index_path = tmp_path / "index.ftv.arena"
        GraphGrepSX(aids_like(scale=0.05, seed=2)).seal_feature_index(index_path)
        method = GraphGrepSX(_dataset())
        with pytest.warns(UserWarning, match="stale"):
            attached = method.attach_feature_index(index_path)
        assert attached is False
        assert method._findex is None
        method.rebuild_index()
        probe = _workload(count=4)[0]
        assert method.candidates(probe) == GraphGrepSX(_dataset()).candidates(probe)
