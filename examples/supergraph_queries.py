#!/usr/bin/env python3
"""Supergraph queries through GraphCache.

A supergraph query asks the inverse question of a subgraph query: *which
dataset graphs are contained in my query graph?*  This is the natural shape
for "find all known fragments / motifs inside this new compound" workloads.
GraphCache handles both query types with the same machinery (§5.1); the roles
of the cached subgraph/supergraph relationships are simply swapped.

Run with::

    python examples/supergraph_queries.py
"""

from __future__ import annotations

import random

from repro import GraphCache, GraphCacheConfig
from repro.graphs.dataset import GraphDataset
from repro.graphs.generators import aids_like
from repro.methods import SIMethod, execute_query
from repro.workloads import extract_query_bfs
from repro.workloads.zipf import ZipfSampler


def main() -> None:
    # The stored dataset is a library of small fragments (functional groups /
    # motifs) extracted from a pool of molecules.
    molecules = aids_like(scale=0.15, seed=19)
    rng = random.Random(3)
    fragments = []
    for molecule in molecules:
        for size in (4, 6, 8):
            fragment = extract_query_bfs(molecule, rng.randrange(molecule.order), size)
            if fragment is not None:
                fragments.append(fragment)
    dataset = GraphDataset(fragments, name="fragment-library")
    print(f"dataset: {dataset.name} with {len(dataset)} fragment graphs")

    method = SIMethod(dataset, matcher="vf2plus")
    cache = GraphCache(
        method,
        GraphCacheConfig(cache_capacity=15, window_size=5, query_mode="supergraph"),
    )

    # Queries: full compounds, asked for the known fragments they contain.
    # Popular compounds repeat (Zipf), which is what the cache exploits.
    sampler = ZipfSampler(len(molecules), alpha=1.4, rng=rng)
    compounds = [molecules[sampler.sample()] for _ in range(40)]

    total_plain = 0.0
    total_cached = 0.0
    total_answers = 0
    for compound in compounds:
        plain = execute_query(method, compound, query_mode="supergraph")
        cached = cache.query(compound)
        assert plain.answer_ids == cached.answer_ids
        total_plain += plain.total_time_s
        total_cached += cached.total_time_s
        total_answers += len(cached.answer_ids)

    stats = cache.runtime_statistics
    print(f"supergraph queries     : {len(compounds)}")
    print(f"fragments per answer   : {total_answers / len(compounds):.1f} on average")
    print(f"cache hits             : {stats.cache_hits} (exact: {stats.exact_hits})")
    print(f"plain vs cached time   : {total_plain * 1000:.1f} ms -> {total_cached * 1000:.1f} ms "
          f"({total_plain / max(1e-9, total_cached):.2f}x)")


if __name__ == "__main__":
    main()
