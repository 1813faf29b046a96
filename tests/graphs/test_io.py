"""Unit tests for transaction-format graph I/O."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphFormatError
from repro.graphs.graph import Graph
from repro.graphs.io import (
    ParsedGraph,
    graph_from_text,
    graph_to_text,
    load_dataset,
    parse_graph_text,
    read_transaction_text,
    save_dataset,
    write_transaction_text,
)

SAMPLE = """
t # 0
v 0 C
v 1 O
e 0 1
t # 1
v 0 N
% a comment
// another comment
"""


class TestParsing:
    def test_parse_two_graphs(self):
        graphs = read_transaction_text(SAMPLE)
        assert len(graphs) == 2
        assert graphs[0].order == 2 and graphs[0].size == 1
        assert graphs[1].order == 1 and graphs[1].size == 0

    def test_graph_ids_from_header(self):
        graphs = read_transaction_text(SAMPLE)
        assert graphs[0].graph_id == "0"
        assert graphs[1].graph_id == "1"

    def test_parse_from_stream(self):
        graphs = read_transaction_text(io.StringIO(SAMPLE))
        assert len(graphs) == 2

    def test_vertex_before_t_rejected(self):
        with pytest.raises(GraphFormatError):
            read_transaction_text("v 0 C\n")

    def test_edge_before_t_rejected(self):
        with pytest.raises(GraphFormatError):
            read_transaction_text("e 0 1\n")

    def test_non_consecutive_vertex_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            read_transaction_text("t # 0\nv 1 C\n")

    def test_malformed_vertex_rejected(self):
        with pytest.raises(GraphFormatError):
            read_transaction_text("t # 0\nv 0\n")

    def test_malformed_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            read_transaction_text("t # 0\nv 0 C\ne 0\n")

    def test_unknown_record_rejected(self):
        with pytest.raises(GraphFormatError):
            read_transaction_text("x nonsense\n")

    def test_invalid_edge_target_reported_with_graph(self):
        with pytest.raises(GraphFormatError):
            read_transaction_text("t # 9\nv 0 C\ne 0 5\n")


class TestRoundTrip:
    def test_single_graph_round_trip(self, path_graph):
        text = graph_to_text(path_graph)
        parsed = graph_from_text(text)
        assert parsed == path_graph

    def test_graph_from_text_requires_single_graph(self):
        with pytest.raises(GraphFormatError):
            graph_from_text(SAMPLE)

    def test_write_read_stream_round_trip(self, triangle, star_graph):
        buffer = io.StringIO()
        write_transaction_text([triangle, star_graph], buffer)
        parsed = read_transaction_text(buffer.getvalue())
        assert parsed[0] == triangle
        assert parsed[1] == star_graph

    def test_dataset_round_trip(self, tmp_path, handmade_dataset):
        path = tmp_path / "data.txt"
        save_dataset(handmade_dataset, path)
        loaded = load_dataset(path, name="reloaded")
        assert len(loaded) == len(handmade_dataset)
        assert loaded.name == "reloaded"
        for original, restored in zip(handmade_dataset, loaded, strict=True):
            assert original == restored

    def test_load_dataset_default_name(self, tmp_path, handmade_dataset):
        path = tmp_path / "molecules.txt"
        save_dataset(handmade_dataset, path)
        assert load_dataset(path).name == "molecules"

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(GraphFormatError):
            load_dataset(path)


TRICKY_LABELS = st.text(st.sampled_from('aCN "\t\\\n\xa0\u00e9%/'), max_size=4) | st.text(
    max_size=6
)


@st.composite
def graphs(draw, labels=TRICKY_LABELS):
    vertex_labels = draw(st.lists(labels, max_size=7))
    n = len(vertex_labels)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    return Graph(vertex_labels, edges)


class TestLabels:
    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_every_str_label_round_trips(self, graph):
        parsed = graph_from_text(graph_to_text(graph))
        assert parsed == graph
        assert parsed.labels == graph.labels

    def test_plain_labels_are_written_bare(self):
        graph = Graph(["C", "Cl", "1"], [(0, 1), (1, 2)])
        assert graph_to_text(graph) == "t # 0\nv 0 C\nv 1 Cl\nv 2 1\ne 0 1\ne 1 2\n"

    def test_labels_that_would_not_read_back_are_quoted(self):
        graph = Graph(["N H", "", '"x'], [(0, 1)])
        assert graph_to_text(graph) == 't # 0\nv 0 "N H"\nv 1 ""\nv 2 "\\"x"\ne 0 1\n'

    def test_a_bare_label_ignores_trailing_tokens(self):
        assert graph_from_text("t # 0\nv 0 C extra\n").labels == ("C",)

    def test_a_label_starting_with_a_quote_reads_as_json(self):
        # Before quoting existed these read back verbatim ('"C"', '"x'): an
        # existing file with such a label reads differently now.
        assert graph_from_text('t # 0\nv 0 "C"\n').labels == ("C",)
        assert graph_from_text('t # 0\nv 0 "N H" \n').labels == ("N H",)
        with pytest.raises(GraphFormatError, match="malformed quoted label"):
            graph_from_text('t # 0\nv 0 "x\n')

    def test_a_broken_quoted_label_is_a_format_error(self):
        with pytest.raises(GraphFormatError):
            graph_from_text('t # 0\nv 0 "N H\n')

    def test_other_labels_persist_as_their_str(self):
        graph = Graph([1, 2.5, None], [(0, 1)])
        assert graph_from_text(graph_to_text(graph)).labels == ("1", "2.5", "None")


TOKENS = ["x", "-1", "0", "1", "2", "99", "1.0", "t", "v", "e", "%", "/", "//", ""]
TOKENS += ['"', '"C"', '"a b"', '"\\']  # labels starting with a quote


@st.composite
def mutated_texts(draw):
    """A valid graph's text with dropped, duplicated, edited or added lines:
    bad ints, out-of-range, self-loop and duplicate edges, and zero or two
    ``t`` records all occur."""
    graph = draw(graphs(labels=st.sampled_from(["C", "N", "O", "N H", "", '"C']))).with_id(
        draw(st.sampled_from([None, 7, "g"]))
    )
    lines = graph_to_text(graph).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "duplicate", "edit", "edge", "t"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "edge":
            u, v = (draw(st.integers(-1, graph.order + 1)) for _ in range(2))
            lines.insert(at, f"e {u} {v}")
        elif kind == "t":
            lines.insert(at, "t # 1")
        elif lines:
            at = min(at, len(lines) - 1)
            if kind == "drop":
                del lines[at]
            elif kind == "duplicate":
                lines.insert(at, lines[at])
            else:
                tokens = lines[at].split(" ")
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
                lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _reference_parse(text):
    """The parser as it was before the check step was split out of it (lines
    from ``io.StringIO``, ``strip``, ``Graph()`` at each flush), plus the one
    intended change: a label starting with ``"`` is read as a JSON string
    literal.  It is the oracle :func:`parse_graph_text`, ``graph_from_text``
    and ``read_transaction_text`` are pinned against."""
    graphs = []
    labels = None
    edges = []
    current_id = None

    def flush():
        nonlocal labels, edges, current_id
        if labels is None:
            return
        try:
            graphs.append(Graph(labels=labels, edges=edges, graph_id=current_id))
        except Exception as exc:
            raise GraphFormatError(f"invalid graph {current_id!r}: {exc}") from exc
        labels, edges, current_id = None, [], None

    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("//"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "t":
            flush()
            labels = []
            edges = []
            current_id = parts[-1] if len(parts) > 1 else len(graphs)
        elif tag == "v":
            if labels is None:
                raise GraphFormatError(f"line {line_no}: vertex before any 't' record")
            if len(parts) < 3:
                raise GraphFormatError(f"line {line_no}: malformed vertex record {line!r}")
            vertex = int(parts[1])
            if vertex != len(labels):
                raise GraphFormatError(
                    f"line {line_no}: vertex ids must be consecutive "
                    f"(expected {len(labels)}, got {vertex})"
                )
            label = parts[2]
            if label.startswith('"'):
                try:
                    label = json.loads(line.split(None, 2)[2])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"line {line_no}: malformed quoted label {line!r}"
                    ) from exc
            labels.append(label)
        elif tag == "e":
            if labels is None:
                raise GraphFormatError(f"line {line_no}: edge before any 't' record")
            if len(parts) < 3:
                raise GraphFormatError(f"line {line_no}: malformed edge record {line!r}")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphFormatError(f"line {line_no}: unknown record type {tag!r}")
    flush()
    return graphs


def _reference_single(text):
    graphs = _reference_parse(text)
    if len(graphs) != 1:
        raise GraphFormatError(f"expected exactly one graph, found {len(graphs)}")
    return graphs[0]


def _shape(graph):
    return (graph.labels, graph.edges, graph.graph_id)


def _outcome(parse, text):
    """What ``parse(text)`` gives: the graphs' labels, edges and ids, or the
    exception's class and message."""
    try:
        result = parse(text)
    except Exception as exc:
        return (type(exc), str(exc))
    if isinstance(result, list):
        return [_shape(graph) for graph in result]
    if isinstance(result, ParsedGraph):
        result = result.build()
    return _shape(result)


class TestCheckParity:
    @settings(max_examples=500, deadline=None)
    @given(mutated_texts())
    def test_every_entry_point_matches_the_reference_parser(self, text):
        expected = _outcome(_reference_single, text)
        assert _outcome(graph_from_text, text) == expected
        assert _outcome(parse_graph_text, text) == expected
        assert _outcome(read_transaction_text, text) == _outcome(_reference_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(mutated_texts())
    def test_a_checked_graph_has_the_built_graphs_shape(self, text):
        try:
            built = graph_from_text(text)
        except Exception:
            return
        parsed = parse_graph_text(text)
        assert (len(parsed.labels), len(parsed.edges)) == (built.order, built.size)
        assert len(set(parsed.labels)) == len(built.distinct_labels())

    @pytest.mark.parametrize(
        "text, error",
        [
            ("t # 0\nv 0 C\ne 0 1\n", GraphFormatError),  # out of range
            ("t # 0\nv 0 C\nv 1 C\ne 1 1\n", GraphFormatError),  # self-loop
            ("t # 0\nv 0 C\nv 1 C\ne 0 1\ne 1 0\n", GraphFormatError),  # duplicate
            ("t # 0\nv 0 C\ne 0 0\nv x C\n", ValueError),  # a bad line outranks a bad edge
            ("v 0 C\n", GraphFormatError),  # no t record
            ("t # 0\nt # 1\n", GraphFormatError),  # two graphs
        ],
    )
    def test_the_check_raises_what_graph_from_text_raises(self, text, error):
        expected = _outcome(_reference_single, text)
        assert expected[0] is error
        for parse in (parse_graph_text, graph_from_text):
            assert _outcome(parse, text) == expected
