"""Sealed feature-index segments: round-trip, filter identity, staleness.

The ``*.ftv.arena`` segment is the compiled form of a built FTV index.
These tests pin (a) the seal → attach round-trip against the live postings and
fingerprint structures it replaces — same postings, same filter answers on
real workloads; (b) the attach handshake on the method side: family/params
mismatches and a stale dataset hash must be *detected* (warn + rebuild),
never silently served.
"""

from __future__ import annotations

import warnings

import pytest

from repro.exceptions import CacheError
from repro.ftv.base import FTVMethod
from repro.ftv.ctindex import CTIndex
from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.grapes import Grapes
from repro.ftv.index_arena import FeatureIndexArena, dataset_content_hash
from repro.graphs.generators import aids_like
from repro.graphs.graph import Graph
from repro.workloads import generate_type_a


@pytest.fixture(scope="module")
def dataset():
    return aids_like(scale=0.05, seed=1)


@pytest.fixture(scope="module")
def queries(dataset):
    return generate_type_a(dataset, "ZZ", 15, seed=7, query_sizes=(3, 5, 8))


class TestSealAttachRoundTrip:
    @pytest.mark.parametrize("method_cls", [GraphGrepSX, Grapes, CTIndex])
    def test_candidates_identical_after_attach(
        self, tmp_path, dataset, queries, method_cls
    ):
        baseline = method_cls(dataset)
        expected = [baseline.candidates(query) for query in queries]

        sealer = method_cls(dataset)
        path = tmp_path / "index.ftv.arena"
        sealer.seal_feature_index(path)

        attacher = method_cls(dataset)
        assert attacher.attach_feature_index(path) is True
        assert attacher._findex is not None
        for query, answer in zip(queries, expected, strict=True):
            assert attacher.candidates(query) == answer

    def test_sealed_postings_match_built_postings(self, tmp_path, dataset):
        method = GraphGrepSX(dataset)
        path = tmp_path / "index.ftv.arena"
        method.seal_feature_index(path)
        arena = FeatureIndexArena.attach(path)
        postings = method._postings
        for feature, counts in postings.iter_features():
            assert arena.posting(feature) == dict(counts)
        assert arena.feature_count == sum(1 for _ in postings.iter_features())

    def test_empty_query_features_answer_owners(self, tmp_path, dataset):
        method = GraphGrepSX(dataset)
        path = tmp_path / "index.ftv.arena"
        method.seal_feature_index(path)
        arena = FeatureIndexArena.attach(path)
        assert arena.filter_counted({}) == arena.owners

    def test_missing_feature_answers_empty(self, tmp_path, dataset):
        method = GraphGrepSX(dataset)
        path = tmp_path / "index.ftv.arena"
        method.seal_feature_index(path)
        arena = FeatureIndexArena.attach(path)
        assert arena.filter_counted({("no-such-label",): 1}) == frozenset()

    def test_ctindex_fingerprints_round_trip(self, tmp_path, dataset):
        method = CTIndex(dataset)
        path = tmp_path / "index.ftv.arena"
        method.seal_feature_index(path)
        attacher = CTIndex(dataset)
        assert attacher.attach_feature_index(path) is True
        arena = attacher._findex
        assert sorted(arena._graph_ids) == sorted(dataset.graph_ids)
        for row, graph_id in enumerate(arena._graph_ids):
            bits = int.from_bytes(arena._fp_matrix[row].tobytes(), "little")
            assert bits == method._fingerprints[graph_id].bits

    def test_sealed_bytes_deterministic(self, tmp_path, dataset):
        first = tmp_path / "a.ftv.arena"
        second = tmp_path / "b.ftv.arena"
        GraphGrepSX(dataset).seal_feature_index(first)
        GraphGrepSX(dataset).seal_feature_index(second)
        assert first.read_bytes() == second.read_bytes()


class TestAttachHandshake:
    def test_not_a_segment_file_warns_and_declines(self, tmp_path, dataset):
        path = tmp_path / "junk.ftv.arena"
        path.write_bytes(b"not an index segment at all")
        method = GraphGrepSX(dataset)
        with pytest.warns(UserWarning, match="attach failed"):
            assert method.attach_feature_index(path) is False
        assert method._findex is None

    def test_params_mismatch_declines(self, tmp_path, dataset):
        GraphGrepSX(dataset, max_path_length=2).seal_feature_index(
            tmp_path / "short.ftv.arena"
        )
        method = GraphGrepSX(dataset, max_path_length=4)
        with pytest.warns(UserWarning):
            assert method.attach_feature_index(tmp_path / "short.ftv.arena") is False

    def test_family_mismatch_declines(self, tmp_path, dataset):
        CTIndex(dataset).seal_feature_index(tmp_path / "ct.ftv.arena")
        method = GraphGrepSX(dataset)
        with pytest.warns(UserWarning):
            assert method.attach_feature_index(tmp_path / "ct.ftv.arena") is False

    def test_stale_dataset_hash_declines(self, tmp_path, dataset):
        path = tmp_path / "index.ftv.arena"
        GraphGrepSX(dataset).seal_feature_index(path)
        other = aids_like(scale=0.05, seed=2)
        method = GraphGrepSX(other)
        with pytest.warns(UserWarning, match="stale"):
            assert method.attach_feature_index(path) is False
        # The method still answers (from its own built index).
        assert method.candidates(other[0]) is not None

    def test_seal_unsupported_raises(self, dataset, tmp_path):
        class Bare(FTVMethod):
            name = "bare"

            def _build_index(self):
                pass

            def _filter(self, query: Graph) -> frozenset:
                return frozenset()

            def index_size_bytes(self) -> int:
                return 0

        with pytest.raises(CacheError, match="does not support sealed"):
            Bare(dataset).seal_feature_index(tmp_path / "bare.ftv.arena")


class TestDatasetContentHash:
    def test_hash_is_content_addressed(self, dataset):
        assert dataset_content_hash(dataset) == dataset_content_hash(dataset)
        assert dataset_content_hash(dataset) != dataset_content_hash(
            aids_like(scale=0.05, seed=2)
        )

    def test_packed_and_decoded_datasets_hash_identically(self, tmp_path, dataset):
        from repro.core.packed_dataset import PackedGraphDataset, seal_dataset

        path = seal_dataset(dataset, tmp_path / "dataset.arena")
        packed = PackedGraphDataset.attach(path)
        try:
            assert dataset_content_hash(packed) == dataset_content_hash(dataset)
        finally:
            packed.close()


def test_no_warnings_on_clean_attach(tmp_path, dataset):
    path = tmp_path / "index.ftv.arena"
    GraphGrepSX(dataset).seal_feature_index(path)
    method = GraphGrepSX(dataset)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert method.attach_feature_index(path) is True
