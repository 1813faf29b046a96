"""Labelled-graph substrate: graph type, datasets, I/O, generators."""

from .builder import GraphBuilder
from .dataset import DatasetStatistics, GraphDataset
from .graph import Graph
from .packed import PackedGraph
from .io import (
    graph_from_text,
    graph_to_text,
    load_dataset,
    read_transaction_text,
    save_dataset,
    write_transaction_text,
)
from .signatures import (
    could_be_subgraph,
    degree_sequence_dominates,
    label_histogram_dominates,
)

__all__ = [
    "Graph",
    "PackedGraph",
    "GraphBuilder",
    "GraphDataset",
    "DatasetStatistics",
    "graph_from_text",
    "graph_to_text",
    "load_dataset",
    "save_dataset",
    "read_transaction_text",
    "write_transaction_text",
    "could_be_subgraph",
    "degree_sequence_dominates",
    "label_histogram_dominates",
]
