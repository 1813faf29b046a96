"""Subgraph-isomorphism algorithms (the "Mverifier" substrate)."""

from .base import MatchOutcome, SearchBudget, SubgraphMatcher
from .cost import estimate_subiso_cost
from .graphql_match import GraphQLMatcher
from .registry import available_matchers, matcher_by_name
from .vf2 import VF2Matcher
from .vf2_plus import VF2PlusMatcher

__all__ = [
    "MatchOutcome",
    "SearchBudget",
    "SubgraphMatcher",
    "VF2Matcher",
    "VF2PlusMatcher",
    "GraphQLMatcher",
    "estimate_subiso_cost",
    "available_matchers",
    "matcher_by_name",
]
