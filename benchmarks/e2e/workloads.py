"""The four named workloads and their seeded request streams.

Every workload is GraphGrepSX ("Method M") over one of the repo's stand-in
datasets at scale 1.0 with query sizes 4-20 edges.  The dataset and, for the
pool workloads, the Type B query pools are the fixed stand-ins (a deployment's
database and its application's query templates); ``--seed`` draws the request
stream from them: it orders the requests within each window (see
:func:`generate`).
The program under test only ever receives the resulting ``Graph`` objects.

Request counts are those of one *pass*; a run makes three passes over the same
stream (see ``engine.py``), so a run at ``RUN_SECONDS`` sends 8000 / 3000 /
6000 / 6000 measured requests and 500 warm-up requests in total and measures
for about that many seconds on the 2-vCPU reference box.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs.dataset import GraphDataset
from repro.graphs.generators import aids_like, pdbs_like
from repro.graphs.graph import Graph
from repro.workloads.base import extract_query_bfs
from repro.workloads.type_b import QueryPools
from repro.workloads.zipf import zipf_weights

__all__ = [
    "RUN_SECONDS",
    "SPECS",
    "Stream",
    "WorkloadSpec",
    "build_dataset",
    "generate",
]

#: ``--seconds`` at which the request counts below apply (``run_seconds`` in
#: ``BENCHMARK.json``); other values scale every count linearly.
RUN_SECONDS = 10

#: Warm-up requests before each measured pass at ``RUN_SECONDS`` (they count
#: toward ``setup_s``).
WARMUP_REQUESTS = 170

QUERY_SIZES = (4, 8, 12, 16, 20)

#: Seed of the fixed Type B query pools (the repo's benchmark-suite value).
_POOL_SEED = 7

#: Seed of the fixed coarse order of every stream, and the block below which
#: ``--seed`` orders the requests (see :func:`generate`).
_ORDER_SEED = 7
_BLOCK = 10

_DATASETS = {"aids": aids_like, "pdbs": pdbs_like}


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: stream shape plus cache configuration."""

    name: str
    why: str
    dataset: str
    requests: int
    #: ``GraphCacheConfig`` fields (paths are added per pass by the engine).
    config: Dict[str, object]
    #: Type B pool sizes ``(answer, no_answer)``; ``None`` means Type A "UU".
    pools: Optional[Tuple[int, int]] = None
    alpha: float = 1.4
    #: Share of measured requests served read-only by ``ReplicaSet.lookup``.
    read_share: float = 0.0


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="aids_pool_hit",
            why="Zipf pool of 80 queries: 3 in 4 requests are exact hits, so "
            "Mfilter, processors and commit carry the time, not verification",
            dataset="aids",
            requests=2670,
            config={"cache_capacity": 30, "window_size": 10},
            pools=(60, 20),
        ),
        WorkloadSpec(
            name="pdbs_uniform_miss",
            why="uniform stream, 9 in 10 requests distinct: verification "
            "dominates and the cache layers are pure overhead",
            dataset="pdbs",
            requests=1000,
            config={"cache_capacity": 30, "window_size": 10},
        ),
        WorkloadSpec(
            name="aids_write_durable",
            why="mmap backend, window of 2: a maintenance round, journal "
            "append and storage delta every second request, then a restart",
            dataset="aids",
            requests=2000,
            config={"cache_capacity": 20, "window_size": 2, "backend": "mmap"},
            pools=(300, 100),
            alpha=1.1,
        ),
        WorkloadSpec(
            name="aids_replica_readmix",
            why="4 in 5 requests are read-only lookups on a journal-fed "
            "follower beside a primary that admits and ships frames",
            dataset="aids",
            requests=2000,
            config={"cache_capacity": 30, "window_size": 10},
            pools=(60, 20),
            read_share=0.8,
        ),
    )
}


@dataclass
class Stream:
    """A generated request stream; ``reads[i]`` marks read-only requests."""

    spec: WorkloadSpec
    warmup: List[Graph]
    measured: List[Graph]
    reads: List[bool]
    #: sha256 over every request's packed bytes and read flag.
    fingerprint: str
    #: Distinct queries / measured requests.
    distinct_share: float
    #: The distinct measured queries, in order of first appearance.
    distinct: List[Graph]


def build_dataset(name: str) -> GraphDataset:
    """A fresh copy of the stand-in dataset ``name`` at scale 1.0."""
    return _DATASETS[name](scale=1.0)


@lru_cache(maxsize=None)
def _dataset(name: str) -> GraphDataset:
    return build_dataset(name)


@lru_cache(maxsize=None)
def _pools(dataset: str, sizes: Tuple[int, int]) -> QueryPools:
    return QueryPools(
        _dataset(dataset),
        query_sizes=QUERY_SIZES,
        answer_pool_size=sizes[0],
        no_answer_pool_size=sizes[1],
        seed=_POOL_SEED,
    )


def _scaled(count: int, seconds: float) -> int:
    """Scale a request count to ``seconds``, kept a multiple of 10.

    Multiples of 10 make every stream end exactly on a maintenance-round
    boundary (windows are 10 and 2), where the recovered state can be compared
    to the live one digest for digest.
    """
    return max(20, 10 * round(count * seconds / RUN_SECONDS / 10))


def _quota(weights: Sequence[float], total: int, rng: random.Random) -> List[int]:
    """Split ``total`` draws over items in proportion to ``weights``.

    Largest-remainder rounding of the expected counts, ties broken by ``rng``:
    the stratified stand-in for ``total`` independent draws.
    """
    scale = total / sum(weights)
    counts = [int(weight * scale) for weight in weights]
    order = list(range(len(weights)))
    rng.shuffle(order)
    order.sort(key=lambda index: counts[index] - weights[index] * scale)
    for index in order[: total - sum(counts)]:
        counts[index] += 1
    return counts


def _type_a_query(dataset: GraphDataset, cell: Tuple[int, int], rng: random.Random) -> Graph:
    """A BFS-extracted query of the cell's size from a uniform node of its graph."""
    source = dataset[cell[0]]
    for _ in range(1000):
        query = extract_query_bfs(source, rng.randrange(source.order), min(cell[1], source.size))
        if query is not None:
            return query
    raise RuntimeError(f"no {cell[1]}-edge query could be extracted from graph {cell[0]}")


def _reorder(requests: List[object], coarse: random.Random, fine: random.Random) -> None:
    """Shuffle in place: ``coarse`` decides which block each request lands in,
    ``fine`` the order within each block of ``_BLOCK``."""
    coarse.shuffle(requests)
    for start in range(0, len(requests), _BLOCK):
        block = requests[start : start + _BLOCK]
        fine.shuffle(block)
        requests[start : start + _BLOCK] = block


def generate(spec: WorkloadSpec, seed: int, seconds: float) -> Stream:
    """Build the workload's stream for ``seed``, sized for ``seconds``.

    Two things keep run-to-run spread a property of the program and the
    machine rather than of the sample:

    * the draws are **stratified**, not independent.  Type B: each pool query
      appears exactly its expected number of times (coin x Zipf rank), and so
      does each among the read-only requests.  Type A "UU": every (graph, size)
      pair gets the same number of queries, each from a uniformly drawn node;
    * a cache's hit pattern is chaotic in the order of its requests (which
      queries meet in which window decides what is admitted, hence every later
      hit), so the requests and their **coarse order are fixed** and the seed
      acts below it: it orders the requests within each block of ``_BLOCK``
      (one window).  Ten seeds over a fully shuffled order spread
      ``throughput_qps`` by 5-13 % of the median and ``query_p95_ms`` by up to
      18 % — the same ten seeds alike in two sets, i.e. by their order and not
      by noise; below the window they spread them by 1-6 %.
    """
    coarse = random.Random(_ORDER_SEED)
    rng = random.Random(seed)
    dataset = _dataset(spec.dataset)
    if spec.pools is not None:
        pools = _pools(spec.dataset, spec.pools)
        items: List[object] = pools.answer_pool + pools.no_answer_pool
        weights = [0.8 * w for w in zipf_weights(len(pools.answer_pool), spec.alpha)]
        weights += [0.2 * w for w in zipf_weights(len(pools.no_answer_pool), spec.alpha)]

        def draw(item: object) -> Graph:
            return item

    else:
        items = [(graph.graph_id, size) for graph in dataset for size in QUERY_SIZES]
        weights = [1.0] * len(items)

        def draw(item: object) -> Graph:
            return _type_a_query(dataset, item, coarse)

    def draws(total: int) -> List[List[Graph]]:
        return [
            [draw(item) for _ in range(count)]
            for item, count in zip(items, _quota(weights, total, coarse), strict=True)
        ]

    measured_count = _scaled(spec.requests, seconds)
    warmup = [query for group in draws(_scaled(WARMUP_REQUESTS, seconds)) for query in group]
    groups = draws(measured_count)
    # The writes number a multiple of 10: they fill whole windows, so the
    # primary ends on a maintenance-round boundary.
    read_count = 10 * round(spec.read_share * measured_count / 10)
    read_quota = _quota([len(group) for group in groups], read_count, coarse)
    requests = [
        (query, position < reads)
        for group, reads in zip(groups, read_quota, strict=True)
        for position, query in enumerate(group)
    ]
    _reorder(warmup, coarse, rng)
    _reorder(requests, coarse, rng)
    measured = [query for query, _ in requests]
    reads = [read for _, read in requests]

    distinct = list(dict.fromkeys(measured))
    packed = {query: query.to_packed().to_bytes() for query in set(warmup + measured)}
    digest = hashlib.sha256()
    for query in warmup:
        digest.update(packed[query])
    for query, read in zip(measured, reads, strict=True):
        digest.update(packed[query])
        digest.update(b"r" if read else b"w")
    return Stream(
        spec=spec,
        warmup=warmup,
        measured=measured,
        reads=reads,
        fingerprint=digest.hexdigest(),
        distinct_share=len(distinct) / measured_count,
        distinct=distinct,
    )
