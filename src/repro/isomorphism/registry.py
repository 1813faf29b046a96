"""Registry of bundled subgraph-isomorphism algorithms.

The paper bundles three SI algorithms (VF2, VF2+, GraphQL); this registry
names exactly those three.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..exceptions import MatcherError
from .base import SubgraphMatcher
from .graphql_match import GraphQLMatcher
from .vf2 import VF2Matcher
from .vf2_plus import VF2PlusMatcher

__all__ = ["matcher_by_name", "available_matchers"]

_FACTORIES: Dict[str, Callable[[], SubgraphMatcher]] = {
    "vf2": VF2Matcher,
    "vf2plus": VF2PlusMatcher,
    "graphql": GraphQLMatcher,
}


def matcher_by_name(name: str) -> SubgraphMatcher:
    """Instantiate a registered matcher by name."""
    key = name.strip().lower()
    try:
        factory = _FACTORIES[key]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise MatcherError(f"unknown matcher {name!r}; known matchers: {known}") from None
    return factory()


def available_matchers() -> List[str]:
    """Names of all registered matchers, sorted."""
    return sorted(_FACTORIES)
