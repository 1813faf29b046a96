"""Factory helpers for building Method M instances by name.

The benchmark harness and examples describe experiments declaratively
("ctindex on AIDS", "grapes6 on PCM", "vf2plus on PDBS"); this module turns
those names into configured :class:`~repro.methods.base.Method` objects,
mirroring the six methods bundled with GraphCache in the paper (three FTV and
three SI).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..exceptions import BenchmarkError
from ..ftv.ctindex import CTIndex
from ..ftv.ggsx import GraphGrepSX
from ..ftv.grapes import Grapes
from ..graphs.dataset import GraphDataset
from .base import Method
from .si import SIMethod

__all__ = ["method_by_name", "available_methods"]

_BUILDERS: Dict[str, Callable[[GraphDataset], Method]] = {
    # FTV methods (paper defaults: paths of length 4, CT-Index trees/cycles).
    "ggsx": lambda dataset: GraphGrepSX(dataset),
    "grapes1": lambda dataset: Grapes(dataset, threads=1),
    "grapes6": lambda dataset: Grapes(dataset, threads=6),
    "ctindex": lambda dataset: CTIndex(dataset),
    # SI methods.
    "vf2": lambda dataset: SIMethod(dataset, matcher="vf2"),
    "vf2plus": lambda dataset: SIMethod(dataset, matcher="vf2plus"),
    "graphql": lambda dataset: SIMethod(dataset, matcher="graphql"),
}


def method_by_name(name: str, dataset: GraphDataset) -> Method:
    """Build a Method M by name over ``dataset``."""
    key = name.strip().lower()
    try:
        builder = _BUILDERS[key]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise BenchmarkError(f"unknown method {name!r}; known methods: {known}") from None
    return builder(dataset)


def available_methods() -> List[str]:
    """Names of every registered Method M builder."""
    return sorted(_BUILDERS)
