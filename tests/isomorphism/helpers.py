"""Shared helpers for the sub-iso test modules."""

from __future__ import annotations

import random
from typing import Tuple

import networkx as nx

from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph

LABELS = ["C", "N", "O"]


def to_networkx(graph: Graph) -> "nx.Graph":
    """Convert a repro Graph to a networkx graph with ``label`` attributes."""
    result = nx.Graph()
    for vertex in graph.vertices():
        result.add_node(vertex, label=graph.label(vertex))
    result.add_edges_from(graph.edges)
    return result


def networkx_is_subgraph(pattern: Graph, target: Graph) -> bool:
    """Reference oracle: non-induced, label-preserving subgraph isomorphism."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_networkx(target),
        to_networkx(pattern),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return matcher.subgraph_is_monomorphic()


def random_pair(seed: int, target_order: int = 12, pattern_order: int = 5) -> Tuple[Graph, Graph]:
    """A random (pattern, target) pair; the pattern is not necessarily contained."""
    rng = random.Random(seed)
    target = random_connected_graph(target_order, 2.6, LABELS, rng)
    pattern = random_connected_graph(pattern_order, 2.2, LABELS, rng)
    return pattern, target


def contained_pair(seed: int, target_order: int = 14) -> Tuple[Graph, Graph]:
    """A random (pattern, target) pair where the pattern is guaranteed contained."""
    rng = random.Random(seed)
    target = random_connected_graph(target_order, 2.8, LABELS, rng)
    k = rng.randint(2, max(2, target_order // 2))
    vertices = rng.sample(range(target.order), k=k)
    pattern = target.induced_subgraph(vertices)
    # Drop some edges to exercise the non-induced semantics.
    if pattern.size > 1:
        keep = rng.sample(list(pattern.edges), k=max(1, pattern.size - 1))
        pattern = pattern.edge_subgraph(keep)
    return pattern, target


def near_miss_pair(seed: int, target_order: int = 10) -> Tuple[Graph, Graph]:
    """An induced subgraph of four to six vertices of a random target, with
    one change: an extra edge or one relabelled vertex.  The change breaks
    containment about half the time, so these pairs sit on the boundary the
    matchers' pruning rules must get right."""
    rng = random.Random(seed)
    target = random_connected_graph(target_order, 2.8, LABELS, rng)
    k = rng.randint(4, min(6, target_order))
    pattern = target.induced_subgraph(rng.sample(range(target.order), k=k))
    missing = [
        (u, v)
        for u in pattern.vertices()
        for v in pattern.vertices()
        if u < v and not pattern.has_edge(u, v)
    ]
    if missing and rng.random() < 0.5:
        return Graph(labels=pattern.labels, edges=[*pattern.edges, rng.choice(missing)]), target
    vertex = rng.randrange(pattern.order)
    label = rng.choice([label for label in LABELS if label != pattern.label(vertex)])
    return pattern.relabelled({vertex: label}), target
