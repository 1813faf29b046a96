"""Tests for the matcher registry."""

from __future__ import annotations

import pytest

from repro.exceptions import MatcherError
from repro.isomorphism import (
    GraphQLMatcher,
    VF2Matcher,
    VF2PlusMatcher,
    available_matchers,
    matcher_by_name,
)


class TestRegistry:
    def test_builtin_matchers_available(self):
        assert available_matchers() == ["graphql", "vf2", "vf2plus"]

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("vf2", VF2Matcher),
            ("vf2plus", VF2PlusMatcher),
            ("graphql", GraphQLMatcher),
        ],
    )
    def test_matcher_by_name(self, name, cls):
        assert isinstance(matcher_by_name(name), cls)

    def test_name_is_case_insensitive(self):
        assert isinstance(matcher_by_name("  VF2Plus "), VF2PlusMatcher)

    def test_unknown_matcher_raises(self):
        with pytest.raises(MatcherError):
            matcher_by_name("turbo-iso")

    def test_each_call_returns_new_instance(self):
        assert matcher_by_name("vf2") is not matcher_by_name("vf2")
