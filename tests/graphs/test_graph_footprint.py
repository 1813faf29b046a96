"""What a dataset graph costs, and what its representation must not change.

A ``Graph`` keeps its labels, one neighbour tuple per vertex and the bitmask
core the matchers read; its edge tuple and label buckets are derived on first
use.  These tests pin both sides of that choice:

* the Type B query pools of the aids stand-in, by sha256 over their packed
  bytes — the pools are drawn by random walks over ``neighbors()``, so a
  representation change that reorders neighbours re-draws every aids stream
  of the end-to-end benchmark, and must fail here first;
* the retained bytes per dataset graph (tracemalloc, after a collection),
  bounded at 1.15x the figure of the tuple representation.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import pytest

from repro.graphs.generators import aids_like, pdbs_like
from repro.workloads.type_b import QueryPools

#: ``(answer, no_answer)`` pool sizes -> sha256 over the packed bytes of the
#: answer pool then the no-answer pool, as the frozenset-adjacency graph drew
#: them.  The sizes are those of the aids end-to-end workloads.
POOL_SHA256 = {
    (60, 20): "31cb99f5145e6324a33d55b2854951fd79ed538cd19ed38f65b247665304b0fc",
    (300, 100): "0260d5f318c95643aada7e0149c9381912e62a61936c307d4b52512d12beec6a",
}

#: Retained bytes per graph at scale 1: the tuple representation measured
#: 6 887 (aids) and 66 362 (pdbs); the frozenset representation before it
#: retained 18 715 and 174 846.  The bound is 1.15x the former.
BYTES_PER_GRAPH_BOUND = {"aids": 1.15 * 6_887, "pdbs": 1.15 * 66_362}

_GENERATORS = {"aids": aids_like, "pdbs": pdbs_like}


@pytest.mark.parametrize("sizes", sorted(POOL_SHA256))
def test_type_b_pools_are_pinned(sizes):
    pools = QueryPools(
        aids_like(),
        (4, 8, 12, 16, 20),
        answer_pool_size=sizes[0],
        no_answer_pool_size=sizes[1],
        seed=7,
    )
    digest = hashlib.sha256()
    for query in pools.answer_pool + pools.no_answer_pool:
        digest.update(query.packed_bytes())
    assert digest.hexdigest() == POOL_SHA256[sizes]


@pytest.mark.parametrize("name", sorted(BYTES_PER_GRAPH_BOUND))
def test_retained_bytes_per_dataset_graph(name):
    generate = _GENERATORS[name]
    generate(scale=0.05)  # labels interned, modules imported
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dataset = generate()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_graph = retained / len(dataset)
    assert per_graph <= BYTES_PER_GRAPH_BOUND[name], per_graph
