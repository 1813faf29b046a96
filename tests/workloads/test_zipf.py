"""Tests for the Zipf sampler."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.zipf import ZipfSampler, zipf_weights


class TestZipfWeights:
    def test_weights_normalised(self):
        assert sum(zipf_weights(50, 1.4)) == pytest.approx(1.0)

    def test_weights_monotone_decreasing(self):
        weights = zipf_weights(20, 1.1)
        assert all(a >= b for a, b in zip(weights, weights[1:], strict=False))

    def test_alpha_zero_is_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_invalid_population(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(WorkloadError):
            zipf_weights(5, -1.0)

    def test_higher_alpha_more_skewed(self):
        low = zipf_weights(100, 1.1)
        high = zipf_weights(100, 1.7)
        assert high[0] > low[0]


class TestZipfSampler:
    def test_samples_in_range(self):
        sampler = ZipfSampler(10, 1.4, random.Random(0))
        for _ in range(200):
            assert 0 <= sampler.sample() < 10

    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(50, 1.4, random.Random(1))
        counts = Counter(sampler.sample() for _ in range(3000))
        assert counts[0] == max(counts.values())

    def test_empirical_frequency_matches_probability(self):
        sampler = ZipfSampler(20, 1.4, random.Random(2))
        counts = Counter(sampler.sample() for _ in range(20000))
        assert counts[0] / 20000 == pytest.approx(sampler.probability(0), rel=0.15)

    def test_deterministic_given_seed(self):
        a, b = (ZipfSampler(30, 1.4, random.Random(7)) for _ in range(2))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_properties(self):
        sampler = ZipfSampler(30, 1.7, random.Random(0))
        assert sampler.alpha == 1.7
        assert sampler.population_size == 30
