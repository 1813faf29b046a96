"""A damaged segment table fails closed in both of its readers.

Graph arenas and sealed ``*.ftv.arena`` feature indexes share one segment
layout: a header, the payload, then a JSON offset table, read back by
``read_segment_table``.  A file cut short or with a flipped table byte must
surface as :class:`CacheError` from ``GraphArena.attach`` and as a declined
attach (``False`` plus a warning, the built index still serving) from
``FTVMethod.attach_feature_index`` — never as a raw ``JSONDecodeError`` or
``UnicodeDecodeError``, nor as the ``KeyError`` of a table that parses but
lacks its keys.  A sealed feature index also carries its payload's CRC-32,
so a flipped *payload* bit declines the attach the same way instead of
serving wrong candidate sets; the graph arena has no checksum.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.backends.arena import GraphArena
from repro.exceptions import CacheError
from repro.ftv.ctindex import CTIndex
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.generators import aids_like
from repro.workloads import generate_type_a

DATASET = aids_like(scale=0.05, seed=1)


def _table_offset(data: bytes) -> int:
    # Header: 8-byte magic, then version, payload length, table offset and
    # table length as little-endian int64.
    return int.from_bytes(data[24:32], "little")


def _truncated(data: bytes) -> bytes:
    return data[:-10]


def _non_utf8_table_byte(data: bytes) -> bytes:
    damaged = bytearray(data)
    damaged[(_table_offset(data) + len(data)) // 2] ^= 0x80
    return bytes(damaged)


def _broken_json_table(data: bytes) -> bytes:
    damaged = bytearray(data)
    damaged[_table_offset(data)] ^= 0x01  # the opening "{" becomes "z"
    return bytes(damaged)


def _keyless_table(data: bytes) -> bytes:
    # Valid JSON of the table's length, holding none of the keys a reader needs.
    offset = _table_offset(data)
    filler = len(data) - offset - len(b'{"x":""}')
    return data[:offset] + b'{"x":"' + b" " * filler + b'"}'


DAMAGES = [_truncated, _non_utf8_table_byte, _broken_json_table, _keyless_table]
DAMAGE_IDS = ["truncated", "non-utf8-byte", "broken-json", "keyless-table"]


def _damage(path: Path, damage) -> None:
    path.write_bytes(damage(path.read_bytes()))


@pytest.mark.parametrize("damage", DAMAGES, ids=DAMAGE_IDS)
def test_graph_arena_attach_raises_cache_error(tmp_path, damage):
    arena = GraphArena()
    extents = [arena.append_graph(graph) for graph in list(DATASET)[:8]]
    path = tmp_path / "graphs.arena"
    arena.seal(extents, path)
    arena.close()
    _damage(path, damage)
    with pytest.raises(CacheError, match="graphs.arena"):
        GraphArena.attach(path)


def _payload_bit(position: float):
    """Flip the low bit of the payload byte at ``position`` (0 first, 1 last)."""

    def damage(data: bytes) -> bytes:
        first, last = 40, _table_offset(data) - 1  # 40: the header's length
        damaged = bytearray(data)
        damaged[first + round(position * (last - first))] ^= 0x01
        return bytes(damaged)

    return damage


PAYLOAD_FLIPS = [_payload_bit(position) for position in (0.0, 0.37, 1.0)]
PAYLOAD_FLIP_IDS = ["payload-first-byte", "payload-inner-byte", "payload-last-byte"]


@pytest.mark.parametrize("method_cls", [GraphGrepSX, CTIndex])
@pytest.mark.parametrize(
    "damage", DAMAGES + PAYLOAD_FLIPS, ids=DAMAGE_IDS + PAYLOAD_FLIP_IDS
)
def test_feature_index_attach_declines_and_keeps_serving(tmp_path, method_cls, damage):
    path = tmp_path / "index.ftv.arena"
    method_cls(DATASET).seal_feature_index(path)
    _damage(path, damage)
    method = method_cls(DATASET)
    queries = generate_type_a(DATASET, "ZZ", 8, seed=7, query_sizes=(3, 5))
    before = [method.candidates(query) for query in queries]
    with pytest.warns(UserWarning, match="attach failed"):
        assert method.attach_feature_index(path) is False
    assert method._findex is None
    assert [method.candidates(query) for query in queries] == before
