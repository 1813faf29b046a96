"""GraphCache reproduction: a semantic caching system for graph queries.

This library reproduces *"GraphCache: A Caching System for Graph Queries"*
(Wang, Ntarmos, Triantafillou — EDBT 2017) as a pure-Python system:

* :mod:`repro.graphs` — labelled-graph substrate, datasets, generators, I/O;
* :mod:`repro.isomorphism` — subgraph-isomorphism algorithms (VF2, VF2+,
  GraphQL-style) and the analytic cost model;
* :mod:`repro.ftv` — filter-then-verify methods (GraphGrepSX, Grapes,
  CT-Index);
* :mod:`repro.methods` — the pluggable "Method M" abstraction and SI methods;
* :mod:`repro.core` — GraphCache itself: the semantic cache, its query index,
  candidate-set pruning, replacement policies (LRU/POP/PIN/PINC/HD), window
  manager and admission control;
* :mod:`repro.workloads` — Type A / Type B query workload generators;
* :mod:`repro.bench` — the experiment harness regenerating the paper's
  figures.

Quickstart
----------
>>> from repro import GraphCache, GraphCacheConfig
>>> from repro.graphs.generators import aids_like
>>> from repro.methods import SIMethod
>>> dataset = aids_like(scale=0.05)
>>> cache = GraphCache(SIMethod(dataset, matcher="vf2plus"))
>>> query = dataset[0].induced_subgraph(range(6))
>>> sorted(cache.answer(query))  # doctest: +SKIP
[0, 17, 23]
"""

from .core.cache import CacheQueryResult, GraphCache
from .core.config import GraphCacheConfig
from .exceptions import ReproError
from .graphs.dataset import GraphDataset
from .graphs.graph import Graph
from .methods.base import Method
from .methods.si import SIMethod

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphDataset",
    "GraphCache",
    "GraphCacheConfig",
    "CacheQueryResult",
    "Method",
    "SIMethod",
    "ReproError",
    "__version__",
]
