"""Shared, cached experiment building blocks for the benchmark suite.

Every figure's benchmark needs the same ingredients — stand-in datasets,
Method M instances, Type A / Type B workloads, a GraphCache configuration —
and building them repeatedly (FTV indexes, query pools) would dominate the
benchmark runtime.  This module centralises the benchmark-scale parameters
(documented in EXPERIMENTS.md) and memoises every expensive artefact.

Scaling note: the paper uses cache capacity 100 / window 20 with 5,000-10,000
query workloads on datasets of 200-40,000 graphs.  The pure-Python
reproduction keeps the same *ratios* at roughly 1/10 the size so the whole
suite runs on a laptop: cache 30 / window 10, 120-160 query workloads,
datasets of 20-60 graphs.  Figure-specific sweeps (cache sizes, Zipf skew,
admission control) scale the same way.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from ..core.config import GraphCacheConfig
from ..graphs.dataset import GraphDataset
from ..graphs.generators import aids_like, pcm_like, pdbs_like, synthetic_like
from ..methods.base import Method
from ..methods.registry import method_by_name
from ..workloads.base import Workload
from ..workloads.type_a import TypeAWorkloadGenerator
from ..workloads.type_b import QueryPools, TypeBWorkloadGenerator

__all__ = [
    "BENCH_DATASET_SCALES",
    "BENCH_QUERY_COUNTS",
    "BENCH_QUERY_SIZES",
    "bench_config",
    "get_dataset",
    "get_method",
    "get_query_pools",
    "type_a_workload",
    "type_b_workload",
]

#: Dataset scale factors used by the benchmark suite (fraction of the default
#: stand-in size, which is itself a scaled-down analogue of the paper's data).
BENCH_DATASET_SCALES: Dict[str, float] = {
    "aids": 1.0,        # 200 molecule-like graphs
    "pdbs": 1.0,        # 60 protein-structure-like graphs
    "pcm": 0.75,        # 30 dense contact-map-like graphs
    "synthetic": 0.60,  # 36 dense synthetic graphs
}

#: Number of workload queries per experiment cell.
BENCH_QUERY_COUNTS: Dict[str, int] = {
    "aids": 200,
    "pdbs": 160,
    "pcm": 90,
    "synthetic": 90,
}

#: Query sizes (edges) per dataset.  Sparse datasets follow the paper
#: (4..20); the dense datasets use 12..24 — scaled down with the dataset
#: graphs themselves so that pure-Python verification stays tractable.
BENCH_QUERY_SIZES: Dict[str, Tuple[int, ...]] = {
    "aids": (4, 8, 12, 16, 20),
    "pdbs": (4, 8, 12, 16, 20),
    "pcm": (12, 16, 20, 24),
    "synthetic": (12, 16, 20, 24),
}

_DATASET_FACTORIES = {
    "aids": aids_like,
    "pdbs": pdbs_like,
    "pcm": pcm_like,
    "synthetic": synthetic_like,
}

#: Benchmark-scale cache configuration (the paper's c100-b20, scaled by ~1/3).
_DEFAULT_CACHE_CAPACITY = 30
_DEFAULT_WINDOW_SIZE = 10


def bench_config(
    policy: str = "hd",
    cache_capacity: int = _DEFAULT_CACHE_CAPACITY,
    window_size: int = _DEFAULT_WINDOW_SIZE,
    admission_control: bool = False,
    query_mode: str = "subgraph",
    shards: int = 1,
    backend: str = "memory",
) -> GraphCacheConfig:
    """The benchmark suite's GraphCache configuration (HD, c30-b10 by default).

    ``shards``/``backend`` select the storage layout for the sharded scenario
    rows (the harness builds a ShardedGraphCache whenever ``shards > 1``).
    """
    return GraphCacheConfig(
        cache_capacity=cache_capacity,
        window_size=window_size,
        replacement_policy=policy,
        admission_control=admission_control,
        query_mode=query_mode,
        warmup_windows=1,
        shards=shards,
        backend=backend,
    )


@lru_cache(maxsize=None)
def get_dataset(name: str) -> GraphDataset:
    """Build (once) the benchmark-scale stand-in dataset ``name``."""
    key = name.lower()
    factory = _DATASET_FACTORIES[key]
    return factory(scale=BENCH_DATASET_SCALES[key])


@lru_cache(maxsize=None)
def get_method(dataset_name: str, method_name: str) -> Method:
    """Build (once) Method M ``method_name`` over dataset ``dataset_name``.

    The dense datasets (PCM-like, Synthetic) use path length 3 for the
    path-index FTV methods: indexing every length-4 path of a dense graph is
    a C++-implementation affair in the paper and would dominate the runtime
    of this pure-Python suite without changing which system wins.
    """
    key = dataset_name.lower()
    method_key = method_name.lower()
    dataset = get_dataset(key)
    if key in ("pcm", "synthetic") and method_key.startswith(("grapes", "ggsx")):
        from ..ftv.ggsx import GraphGrepSX
        from ..ftv.grapes import Grapes

        if method_key.startswith("grapes"):
            threads = 6 if method_key.endswith("6") else 1
            return Grapes(dataset, threads=threads, max_path_length=3)
        return GraphGrepSX(dataset, max_path_length=3)
    return method_by_name(method_name, dataset)


@lru_cache(maxsize=None)
def type_a_workload(
    dataset_name: str,
    category: str,
    alpha: float = 1.4,
    query_count: int | None = None,
    seed: int = 42,
) -> Workload:
    """Build (once) a Type A workload for the benchmark suite."""
    key = dataset_name.lower()
    generator = TypeAWorkloadGenerator(
        get_dataset(key),
        category=category,
        query_sizes=BENCH_QUERY_SIZES[key],
        alpha=alpha,
        seed=seed,
    )
    return generator.generate(query_count or BENCH_QUERY_COUNTS[key])


@lru_cache(maxsize=None)
def get_query_pools(dataset_name: str, seed: int = 7) -> QueryPools:
    """Build (once) the Type B query pools for ``dataset_name``."""
    key = dataset_name.lower()
    return QueryPools(
        get_dataset(key),
        query_sizes=BENCH_QUERY_SIZES[key],
        answer_pool_size=60,
        no_answer_pool_size=20,
        seed=seed,
    )


@lru_cache(maxsize=None)
def type_b_workload(
    dataset_name: str,
    no_answer_probability: float,
    alpha: float = 1.4,
    query_count: int | None = None,
    seed: int = 21,
) -> Workload:
    """Build (once) a Type B workload for the benchmark suite."""
    key = dataset_name.lower()
    generator = TypeBWorkloadGenerator(
        get_query_pools(key),
        no_answer_probability=no_answer_probability,
        alpha=alpha,
        seed=seed,
    )
    return generator.generate(
        query_count or BENCH_QUERY_COUNTS[key], dataset_name=get_dataset(key).name
    )
