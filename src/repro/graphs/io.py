"""Reading and writing graph datasets in a simple text transaction format.

The format is the line-oriented "transaction" format widely used by graph
indexing tools (gIndex, GraphGrepSX, Grapes benchmarks):

.. code-block:: text

    t # 0
    v 0 C
    v 1 O
    e 0 1
    t # 1
    ...

* ``t # <id>`` starts a new graph,
* ``v <vertex> <label>`` declares a vertex (ids must be ``0..n-1`` in order),
* ``e <u> <v>`` declares an undirected edge.

Blank lines and lines starting with ``%`` or ``//`` are ignored.

A label that is empty, contains whitespace or starts with ``"`` is written as
a JSON string literal (``v 0 "N H"``) and read back from the rest of its line;
any other label is written bare.  A non-``str`` label persists as its ``str``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, NamedTuple, TextIO, Tuple, Union

from ..exceptions import GraphError, GraphFormatError
from .dataset import GraphDataset
from .graph import Graph, canonical_edge_set

__all__ = [
    "ParsedGraph",
    "read_transaction_text",
    "write_transaction_text",
    "load_dataset",
    "save_dataset",
    "graph_to_text",
    "graph_from_text",
    "parse_graph_text",
]

PathLike = Union[str, Path]


class ParsedGraph(NamedTuple):
    """A graph record that passed every check :class:`Graph` makes; its label
    and (duplicate-free) edge tuples give its shape without building it.
    Tuples of atoms, unlike lists, leave the garbage collector's lists on its
    first pass, so a recovery's memo of parses is not rescanned."""

    graph_id: object
    labels: Tuple[str, ...]
    edges: Tuple[Tuple[int, int], ...]

    def build(self) -> Graph:
        return Graph(self.labels, self.edges, graph_id=self.graph_id)


def _parse_lines(lines: Iterable[str], build: bool = True) -> list:
    """Every :class:`Graph` in ``lines``, or with ``build=False`` every graph
    as a checked :class:`ParsedGraph`; the checks and errors are the same."""
    graphs: list = []
    labels: List[str] | None = None
    edges: List[Tuple[int, int]] = []
    current_id: object | None = None

    def flush() -> None:
        if labels is None:
            return
        try:
            if build:
                graphs.append(Graph(labels=labels, edges=edges, graph_id=current_id))
            else:
                canonical_edge_set(edges, len(labels))
                graphs.append(ParsedGraph(current_id, tuple(labels), tuple(edges)))
        except GraphError as exc:  # re-raise with format context
            raise GraphFormatError(f"invalid graph {current_id!r}: {exc}") from exc

    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "v":
            if labels is None:
                raise GraphFormatError(f"line {line_no}: vertex before any 't' record")
            if len(parts) < 3:
                raise GraphFormatError(f"line {line_no}: malformed vertex record {raw.strip()!r}")
            vertex = int(parts[1])
            if vertex != len(labels):
                raise GraphFormatError(
                    f"line {line_no}: vertex ids must be consecutive "
                    f"(expected {len(labels)}, got {vertex})"
                )
            label = parts[2]
            if label[0] == '"':
                try:
                    label = json.loads(raw.strip().split(None, 2)[2])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"line {line_no}: malformed quoted label {raw.strip()!r}"
                    ) from exc
            labels.append(label)
        elif tag == "e":
            if labels is None:
                raise GraphFormatError(f"line {line_no}: edge before any 't' record")
            if len(parts) < 3:
                raise GraphFormatError(f"line {line_no}: malformed edge record {raw.strip()!r}")
            edges.append((int(parts[1]), int(parts[2])))
        elif tag == "t":
            flush()
            labels, edges = [], []
            current_id = parts[-1] if len(parts) > 1 else len(graphs)
        elif not tag.startswith(("%", "//")):
            raise GraphFormatError(f"line {line_no}: unknown record type {tag!r}")
    flush()
    return graphs


def read_transaction_text(source: Union[str, TextIO]) -> List[Graph]:
    """Parse graphs from a transaction-format string or open text stream."""
    return _parse_lines(source.split("\n") if isinstance(source, str) else source)


def _single(graphs: list) -> object:
    if len(graphs) != 1:
        raise GraphFormatError(f"expected exactly one graph, found {len(graphs)}")
    return graphs[0]


def _label_text(label: object) -> str:
    text = str(label)
    if text.isalnum() or (text.split() == [text] and text[0] != '"'):
        return text
    return json.dumps(text)


def _graph_text(graph: Graph, fallback_id: object) -> str:
    graph_id = graph.graph_id if graph.graph_id is not None else fallback_id
    vertices = "".join([f"v {i} {_label_text(label)}\n" for i, label in enumerate(graph.labels)])
    edges = "".join([f"e {u} {v}\n" for u, v in graph.edges])
    return f"t # {graph_id}\n{vertices}{edges}"


def write_transaction_text(graphs: Iterable[Graph], stream: TextIO) -> None:
    """Write ``graphs`` to ``stream`` in transaction format."""
    for index, graph in enumerate(graphs):
        stream.write(_graph_text(graph, index))


def graph_to_text(graph: Graph) -> str:
    """Serialise a single graph to transaction-format text."""
    return _graph_text(graph, 0)


def parse_graph_text(text: str) -> ParsedGraph:
    """:func:`graph_from_text` without building the graph: same checks, same
    errors; ``parse_graph_text(text).build()`` is ``graph_from_text(text)``."""
    return _single(_parse_lines(text.split("\n"), build=False))


def graph_from_text(text: str) -> Graph:
    """Parse a single graph from transaction-format text."""
    return _single(read_transaction_text(text))


def load_dataset(path: PathLike, name: str | None = None) -> GraphDataset:
    """Load a :class:`GraphDataset` from a transaction-format file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        graphs = _parse_lines(handle)
    if not graphs:
        raise GraphFormatError(f"{path}: no graphs found")
    return GraphDataset(graphs, name=name or path.stem)


def save_dataset(dataset: GraphDataset, path: PathLike) -> None:
    """Write a :class:`GraphDataset` to ``path`` in transaction format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        write_transaction_text(dataset, handle)
