"""Sealed, fork-shareable FTV feature indexes (``*.ftv.arena`` segments).

The FTV methods build their dataset index by scanning every graph at
startup.  On the multi-process serving path that scan used to run once *per
forked worker* — the exact per-consumer rederivation the packed-storage
line of work removes everywhere else.  A :class:`FeatureIndexArena` is the
compiled form of a built index, published once by the pool owner and
attached read-only by every worker:

* **postings** (GraphGrepSX / Grapes): the in-RAM
  :class:`~repro.ftv.postings.Postings` map compiles into CSR arrays —
  ``post_ptr`` (feature-id → slice), ``post_ids`` (sorted owner graph ids)
  and ``post_counts`` (parallel occurrence counts) — plus the sorted
  feature-key table.  Filtering intersects the per-feature sorted id arrays
  with ``searchsorted``, reproducing :meth:`Postings.filter` exactly.
* **fingerprints** (CT-Index): one ``uint8`` matrix row per graph
  (little-endian bitmap bytes); filtering is a vectorised row-wise subset
  test.

The segment file reuses the :class:`~repro.core.backends.arena.GraphArena`
idiom byte for byte: fixed header (magic + version/payload/table offsets),
8-aligned numpy sections, trailing JSON table, atomic tempfile +
``os.replace`` publish, read-only ``np.memmap`` attach.  The JSON table
additionally records the *build parameters* and a *dataset content hash*
(:func:`dataset_content_hash`), so an attaching worker can prove the index
matches both its method configuration and the exact sealed dataset — a
stale index (dataset resealed after the build) fails the hash check and the
worker falls back to an in-process rebuild with a warning.  It also holds
the payload's CRC-32, so a flipped payload bit declines the attach the same
way instead of serving wrong candidate sets.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.backends.arena import SEGMENT_HEADER_BYTES, read_segment_table, write_segment
from ..exceptions import CacheError

__all__ = ["FeatureIndexArena", "dataset_content_hash"]

PathLike = Union[str, os.PathLike]

#: Segment-file header: 8-byte magic + four little-endian int64 fields
#: (version, payload length, table offset, table length) — the GraphArena
#: layout with a distinct magic.
_MAGIC = b"GCFTVIX1"
_VERSION = 1


def _pad8(length: int) -> int:
    return (-length) % 8


def dataset_content_hash(dataset) -> str:
    """Content hash of a dataset's packed record bytes, in graph-id order.

    Both sides of the seal→fork→attach handshake can compute it cheaply:
    an arena-backed dataset (:class:`~repro.core.packed_dataset.PackedGraphDataset`)
    hashes the raw record bytes straight out of its segment, while the
    owner's original ``Graph`` dataset packs each graph — ``seal`` copies
    record bytes verbatim, so the two digests agree exactly when the sealed
    file holds this dataset's graphs.
    """
    digest = hashlib.blake2b(digest_size=16)
    arena = getattr(dataset, "arena", None)
    if arena is not None:
        for extent in arena.extents():
            digest.update(arena.bytes_at(extent))
    else:
        for graph in dataset:
            digest.update(graph.packed_bytes())
    return digest.hexdigest()


class FeatureIndexArena:
    """One sealed FTV index segment (see module docstring)."""

    def __init__(
        self,
        path: Path,
        table: Dict[str, object],
        post_ptr: np.ndarray,
        post_ids: np.ndarray,
        post_counts: np.ndarray,
        fp_matrix: Optional[np.ndarray],
        nbytes: int,
    ) -> None:
        self._path = path
        self._table = table
        self._post_ptr = post_ptr
        self._post_ids = post_ids
        self._post_counts = post_counts
        self._fp_matrix = fp_matrix
        self._nbytes = nbytes
        self._features: List[Tuple[str, ...]] = [
            tuple(feature) for feature in table["features"]
        ]
        self._feature_ids: Optional[Dict[Tuple[str, ...], int]] = None
        self._owners = frozenset(table["owners"])
        self._graph_ids: List[int] = list(table["graph_ids"])
        self._family = str(table["family"])
        self._params: Dict[str, object] = dict(table["params"])
        self._dataset_hash = str(table["dataset_hash"])

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """Segment file this index was attached from."""
        return self._path

    @property
    def family(self) -> str:
        """Feature family the index was built for (``paths`` / ``ctindex``)."""
        return self._family

    @property
    def params(self) -> Dict[str, object]:
        """Build parameters recorded at seal time."""
        return dict(self._params)

    @property
    def dataset_hash(self) -> str:
        """Content hash of the dataset the index was built over."""
        return self._dataset_hash

    @property
    def owners(self) -> frozenset:
        """Graph ids holding at least one posting (the no-feature answer set)."""
        return self._owners

    @property
    def feature_count(self) -> int:
        """Number of distinct features with postings."""
        return len(self._features)

    @property
    def fingerprint_bits(self) -> int:
        """Fingerprint width in bits (0 when no fingerprint section)."""
        return int(self._table.get("fingerprint_bits", 0))

    @property
    def nbytes(self) -> int:
        """Size of the sealed segment file."""
        return self._nbytes

    # ------------------------------------------------------------------ #
    # Sealing
    # ------------------------------------------------------------------ #
    @classmethod
    def seal(
        cls,
        path: PathLike,
        *,
        family: str,
        params: Mapping[str, object],
        dataset_hash: str,
        postings: Iterable[Tuple[Sequence[str], Mapping[int, int]]] = (),
        fingerprints: Optional[Mapping[int, int]] = None,
        fingerprint_bits: int = 0,
    ) -> Path:
        """Compile and atomically publish an index segment at ``path``.

        ``postings`` yields ``(feature, {owner: count})`` pairs (the shape
        of :meth:`Postings.iter_features`); ``fingerprints`` maps graph id →
        integer bitmap of ``fingerprint_bits`` width.  Features are stored
        sorted so the sealed bytes are deterministic for a given index.
        """
        target = Path(path)
        ordered = sorted(
            ((tuple(feature), dict(counts)) for feature, counts in postings),
            key=lambda item: item[0],
        )
        ptr: List[int] = [0]
        ids: List[int] = []
        counts: List[int] = []
        owners: set = set()
        for _, posting in ordered:
            for owner in sorted(posting):
                ids.append(int(owner))
                counts.append(int(posting[owner]))
            owners.update(posting)
            ptr.append(len(ids))
        post_ptr = np.asarray(ptr, dtype="<i8")
        post_ids = np.asarray(ids, dtype="<i4")
        post_counts = np.asarray(counts, dtype="<i4")

        graph_ids: List[int] = []
        if fingerprints:
            if fingerprint_bits <= 0 or fingerprint_bits % 8:
                raise CacheError("fingerprint_bits must be a positive multiple of 8")
            width_bytes = fingerprint_bits // 8
            graph_ids = sorted(int(graph_id) for graph_id in fingerprints)
            rows = b"".join(
                int(fingerprints[graph_id]).to_bytes(width_bytes, "little")
                for graph_id in graph_ids
            )
            fp_blob = rows
        else:
            fingerprint_bits = 0
            fp_blob = b""

        sections: List[Tuple[str, bytes]] = [
            ("post_ptr", post_ptr.tobytes()),
            ("post_ids", post_ids.tobytes()),
            ("post_counts", post_counts.tobytes()),
            ("fp_matrix", fp_blob),
        ]
        payload = bytearray()
        layout: Dict[str, List[int]] = {}
        for name, blob in sections:
            layout[name] = [len(payload), len(blob)]
            payload += blob
            payload += b"\x00" * _pad8(len(payload))
        table = {
            "version": _VERSION,
            "crc32": zlib.crc32(payload),
            "family": family,
            "params": dict(params),
            "dataset_hash": dataset_hash,
            "features": [list(feature) for feature, _ in ordered],
            "owners": sorted(int(owner) for owner in owners),
            "graph_ids": graph_ids,
            "fingerprint_bits": fingerprint_bits,
            "sections": layout,
        }
        write_segment(target, _MAGIC, [bytes(payload)], table)
        return target

    # ------------------------------------------------------------------ #
    # Attaching
    # ------------------------------------------------------------------ #
    @classmethod
    def attach(cls, path: PathLike) -> "FeatureIndexArena":
        """Open a sealed index segment read-only (shared pages across processes).

        A damaged file raises :class:`CacheError`, never a raw decode error;
        a payload whose CRC-32 differs from the table's is damaged.
        """
        target = Path(path)
        payload_length, table = read_segment_table(target, _MAGIC, "feature-index")
        buffer = np.memmap(target, dtype=np.uint8, mode="r")
        payload = buffer[SEGMENT_HEADER_BYTES:SEGMENT_HEADER_BYTES + payload_length]
        if zlib.crc32(payload) != table.get("crc32"):
            raise CacheError(f"{target}: feature-index payload fails its checksum")

        def section(name: str, dtype: str) -> np.ndarray:
            offset, length = (int(x) for x in table["sections"][name])
            return np.frombuffer(
                buffer, dtype=dtype, count=length // np.dtype(dtype).itemsize,
                offset=SEGMENT_HEADER_BYTES + offset,
            )

        try:
            post_ptr = section("post_ptr", "<i8")
            post_ids = section("post_ids", "<i4")
            post_counts = section("post_counts", "<i4")
            fp_matrix = None
            bits = int(table.get("fingerprint_bits", 0))
            if bits:
                flat = section("fp_matrix", "u1")
                fp_matrix = flat.reshape(len(table["graph_ids"]), bits // 8)
            nbytes = target.stat().st_size
            return cls(target, table, post_ptr, post_ids, post_counts, fp_matrix, nbytes)
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"{target}: malformed feature-index table ({exc!r})") from None

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def _feature_id(self, feature: Tuple[str, ...]) -> Optional[int]:
        if self._feature_ids is None:
            self._feature_ids = {
                feature: fid for fid, feature in enumerate(self._features)
            }
        return self._feature_ids.get(feature)

    def posting(self, feature: Sequence[str]) -> Dict[int, int]:
        """``{owner: count}`` for one feature (:meth:`Postings.lookup` shape)."""
        fid = self._feature_id(tuple(feature))
        if fid is None:
            return {}
        lo, hi = int(self._post_ptr[fid]), int(self._post_ptr[fid + 1])
        return dict(
            zip(
                self._post_ids[lo:hi].tolist(),
                self._post_counts[lo:hi].tolist(),
                strict=True,
            )
        )

    def filter_counted(self, query_features: Mapping[Sequence[str], int]) -> frozenset:
        """Owners containing every query feature with sufficient multiplicity.

        Semantics are :meth:`Postings.filter` exactly (same evaluation
        order, same no-feature answer), but each step is a ``searchsorted``
        intersection of sorted id arrays instead of a dictionary probe.
        """
        if not query_features:
            return self._owners
        survivors: Optional[np.ndarray] = None
        ordered = sorted(query_features.items(), key=lambda item: -len(item[0]))
        for feature, needed in ordered:
            fid = self._feature_id(tuple(feature))
            if fid is None:
                return frozenset()
            lo, hi = int(self._post_ptr[fid]), int(self._post_ptr[fid + 1])
            matching = self._post_ids[lo:hi][self._post_counts[lo:hi] >= needed]
            if survivors is None:
                survivors = matching
            else:
                survivors = _intersect_sorted(survivors, matching)
            if not len(survivors):
                return frozenset()
        return frozenset(survivors.tolist())

    def fingerprint_filter(self, query_bits: int) -> frozenset:
        """Graph ids whose bitmap is a superset of ``query_bits`` (row-wise)."""
        if self._fp_matrix is None:
            raise CacheError(f"{self._path}: index has no fingerprint section")
        width_bytes = self.fingerprint_bits // 8
        query_row = np.frombuffer(
            int(query_bits).to_bytes(width_bytes, "little"), dtype=np.uint8
        )
        hits = ((self._fp_matrix & query_row) == query_row).all(axis=1)
        ids = np.asarray(self._graph_ids, dtype=np.int64)
        return frozenset(ids[hits].tolist())

    def __repr__(self) -> str:
        return (
            f"<FeatureIndexArena {self.family!r} features={self.feature_count} "
            f"graphs={len(self._owners) or len(self._graph_ids)} path={str(self._path)!r}>"
        )


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted int arrays via ``searchsorted``."""
    if not len(a) or not len(b):
        return a[:0]
    positions = np.searchsorted(b, a)
    positions[positions == len(b)] = len(b) - 1
    return a[b[positions] == a]
