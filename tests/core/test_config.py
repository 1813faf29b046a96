"""Tests for GraphCacheConfig defaults and validation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import GraphCacheConfig
from repro.core.policies import admission_by_name
from repro.exceptions import CacheError


class TestDefaults:
    def test_paper_defaults(self):
        config = GraphCacheConfig()
        assert config.cache_capacity == 100
        assert config.window_size == 20
        assert config.replacement_policy == "hd"
        assert config.admission_control is False
        assert config.query_mode == "subgraph"

    def test_label(self):
        assert GraphCacheConfig().label() == "c100-b20"
        assert GraphCacheConfig(cache_capacity=500, window_size=20).label() == "c500-b20"


class TestValidation:
    @pytest.mark.parametrize("field, value", [
        ("cache_capacity", 0),
        ("cache_capacity", -5),
        ("window_size", 0),
        ("index_path_length", 0),
        ("warmup_windows", -1),
    ])
    def test_invalid_numeric_fields(self, field, value):
        with pytest.raises(CacheError):
            GraphCacheConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        "admission_expensive_fraction", "admission_calibration_windows", "admission_threshold",
    ])
    def test_admission_calibration_is_not_a_field(self, field):
        """Only the switch and the controller kind are settable."""
        with pytest.raises(TypeError):
            GraphCacheConfig(**{field: 1})

    def test_invalid_policy(self):
        with pytest.raises(CacheError):
            GraphCacheConfig(replacement_policy="mru")

    def test_invalid_query_mode(self):
        with pytest.raises(CacheError):
            GraphCacheConfig(query_mode="bidirectional")

    def test_policy_name_case_insensitive(self):
        assert GraphCacheConfig(replacement_policy="PINC").replacement_policy == "PINC"


class TestReplace:
    """Derived configs are made with ``dataclasses.replace``, which keeps
    every other field and validates the result like the constructor."""

    def test_policy(self):
        config = replace(GraphCacheConfig(), replacement_policy="lru")
        assert config.replacement_policy == "lru"
        assert config.cache_capacity == 100

    def test_capacity(self):
        config = replace(GraphCacheConfig(), cache_capacity=300)
        assert config.cache_capacity == 300
        assert config.window_size == 20

    def test_capacity_and_window(self):
        config = replace(GraphCacheConfig(), cache_capacity=500, window_size=50)
        assert (config.cache_capacity, config.window_size) == (500, 50)

    def test_admission_control(self):
        config = replace(GraphCacheConfig(), admission_control=True, admission_kind="adaptive")
        assert config.admission_control
        assert config.admission_kind == "adaptive"

    def test_admission_control_threshold(self):
        """The threshold is calibrated: the top quarter of two windows' scores."""
        config = replace(GraphCacheConfig(), admission_control=True)
        record = admission_by_name(config.admission_kind, config.admission_control).state_record()
        assert (record["expensive_fraction"], record["calibration_windows"]) == (0.25, 2)
        assert record["explicit_threshold"] is None

    def test_original_config_unchanged(self):
        base = GraphCacheConfig()
        replace(base, replacement_policy="pin")
        assert base.replacement_policy == "hd"

    @pytest.mark.parametrize("field, value", [
        ("cache_capacity", 0),
        ("replacement_policy", "mru"),
        ("backend_path", "graphs.arena"),  # only meaningful with backend="mmap"
    ])
    def test_replace_validates(self, field, value):
        with pytest.raises(CacheError):
            replace(GraphCacheConfig(), **{field: value})

    def test_backend_path_on_mmap(self):
        config = replace(GraphCacheConfig(backend="mmap"), backend_path="graphs.arena.lru")
        assert config.backend_path == "graphs.arena.lru"
        assert config.backend == "mmap"
