"""Base class for filter-then-verify (FTV) methods.

An FTV method builds an index over the dataset graphs in a pre-processing
step; at query time the index prunes graphs that provably cannot contain the
query (filtering), and only the surviving candidate set is sub-iso tested
(verification).  The filtering must be *sound*: it may never prune a graph
that actually contains the query — the library's property tests check exactly
this invariant for every bundled method.
"""

from __future__ import annotations

import abc
import time
import warnings
from pathlib import Path
from typing import Dict, Optional, Union

from ..exceptions import CacheError
from ..graphs.dataset import GraphDataset
from ..graphs.graph import Graph
from ..isomorphism.base import SubgraphMatcher
from ..isomorphism.vf2_plus import VF2PlusMatcher
from ..methods.base import FilterResult, Method
from .features import dataset_path_features, extract_label_paths
from .index_arena import FeatureIndexArena, dataset_content_hash
from .postings import Postings

__all__ = ["FTVMethod", "PathFTVMethod"]

PathLike = Union[str, "Path"]


class FTVMethod(Method):
    """A Method M with a dataset index and a filtering stage.

    Subclasses implement :meth:`_index_graph` (producing the per-graph feature
    representation at build time) and :meth:`_filter` (producing the candidate
    set from the query's features at query time).

    A built index can be compiled into a sealed, fork-shareable segment with
    :meth:`seal_feature_index` and adopted in another process with
    :meth:`attach_feature_index` — see
    :class:`~repro.ftv.index_arena.FeatureIndexArena`.  Attaching validates
    the recorded build parameters and dataset content hash; on any mismatch
    it warns and leaves the method on its in-process index (the caller falls
    back to :meth:`rebuild_index`).
    """

    def __init__(
        self,
        dataset: GraphDataset,
        matcher: Optional[SubgraphMatcher] = None,
    ) -> None:
        self._findex: Optional[FeatureIndexArena] = None
        super().__init__(dataset, matcher or VF2PlusMatcher())
        started = time.perf_counter()
        self._build_index()
        self._build_time_s = time.perf_counter() - started

    # ------------------------------------------------------------------ #
    @property
    def build_time_s(self) -> float:
        """Wall-clock time spent building the dataset index."""
        return self._build_time_s

    # ------------------------------------------------------------------ #
    # Sealed-index lifecycle
    # ------------------------------------------------------------------ #
    def _index_family(self) -> str:
        """Feature family tag recorded in (and required of) a sealed index."""
        raise CacheError(f"{type(self).__name__} does not support sealed feature indexes")

    def _index_params(self) -> Dict[str, object]:
        """Build parameters recorded in (and required of) a sealed index."""
        raise CacheError(f"{type(self).__name__} does not support sealed feature indexes")

    def seal_feature_index(self, path: PathLike) -> Path:
        """Compile the built index into a sealed segment at ``path``."""
        raise CacheError(f"{type(self).__name__} does not support sealed feature indexes")

    def _adopt_index(self, arena: FeatureIndexArena) -> None:
        """Subclass hook: switch filtering onto ``arena`` (drop built state)."""
        raise CacheError(f"{type(self).__name__} does not support sealed feature indexes")

    def attach_feature_index(self, path: PathLike) -> bool:
        """Adopt the sealed index at ``path`` if it matches this method.

        Returns ``False`` (with a warning, leaving the current index in
        place) when the file is unreadable, was built with different
        parameters, or is *stale* — its recorded dataset content hash no
        longer matches this method's dataset (e.g. the dataset segment was
        resealed after the index was built).
        """
        try:
            arena = FeatureIndexArena.attach(path)
        except (CacheError, OSError) as exc:
            warnings.warn(f"feature index {path}: attach failed ({exc}); rebuilding")
            return False
        if arena.family != self._index_family() or arena.params != self._index_params():
            warnings.warn(
                f"feature index {path}: built for {arena.family}{arena.params}, "
                f"need {self._index_family()}{self._index_params()}; rebuilding"
            )
            return False
        if arena.dataset_hash != dataset_content_hash(self.dataset):
            warnings.warn(
                f"feature index {path}: stale (dataset content changed since "
                "the index was sealed); rebuilding"
            )
            return False
        self._findex = arena
        self._adopt_index(arena)
        return True

    def rebuild_index(self) -> None:
        """Rebuild the in-process index over the current dataset (re-timed)."""
        self._findex = None
        started = time.perf_counter()
        self._build_index()
        self._build_time_s = time.perf_counter() - started

    @abc.abstractmethod
    def _build_index(self) -> None:
        """Build the dataset index (called once from ``__init__``)."""

    @abc.abstractmethod
    def _filter(self, query: Graph) -> frozenset:
        """Return the candidate set for ``query`` using the index."""

    # ------------------------------------------------------------------ #
    def candidates(self, query: Graph) -> frozenset:
        """Candidate set: never larger than the dataset, always ⊇ answer set."""
        return self._filter(query)

    @abc.abstractmethod
    def index_size_bytes(self) -> int:
        """Approximate memory footprint of the dataset index."""


class PathFTVMethod(FTVMethod):
    """Counted label-path filtering over one :class:`~repro.ftv.postings.Postings`
    map (GraphGrepSX, Grapes): both seal the same family and parameters, so
    one ``*.ftv.arena`` segment serves either method.
    """

    def __init__(
        self,
        dataset: GraphDataset,
        matcher: Optional[SubgraphMatcher],
        max_path_length: int,
    ) -> None:
        self._max_path_length = max_path_length
        self._postings: Optional[Postings] = None
        super().__init__(dataset, matcher)

    @property
    def max_path_length(self) -> int:
        """Maximum indexed path length in edges."""
        return self._max_path_length

    def _build_index(self) -> None:
        postings = Postings()
        for record, paths in dataset_path_features(self.dataset, self._max_path_length):
            postings.insert_features(paths, record.graph_id)
        self._postings = postings

    def _filter(self, query: Graph) -> frozenset:
        return self.filter(query).candidates

    def filter(self, query: Graph) -> FilterResult:
        """``CS_M`` plus the query's path counter, which the filter enumerated.

        A method serving from an attached sealed segment hands no counter
        over, like :meth:`~repro.methods.base.Method.filter`'s default.
        """
        paths = extract_label_paths(query, self._max_path_length)
        if self._findex is not None:
            return FilterResult(self._findex.filter_counted(paths))
        assert self._postings is not None, "index not built"
        return FilterResult(self._postings.filter(paths), paths, self._max_path_length)

    # ------------------------------------------------------------------ #
    def _index_family(self) -> str:
        return "paths"

    def _index_params(self) -> Dict[str, object]:
        return {"max_path_length": self._max_path_length}

    def seal_feature_index(self, path: PathLike) -> Path:
        """Compile the built postings into a sealed ``*.ftv.arena`` segment."""
        if self._postings is None:
            raise CacheError("cannot seal a feature index that was not built here")
        return FeatureIndexArena.seal(
            path,
            family=self._index_family(),
            params=self._index_params(),
            dataset_hash=dataset_content_hash(self.dataset),
            postings=self._postings.iter_features(),
        )

    def _adopt_index(self, arena: FeatureIndexArena) -> None:
        self._postings = None

    def index_size_bytes(self) -> int:
        if self._findex is not None:
            return self._findex.nbytes
        assert self._postings is not None, "index not built"
        return self._postings.approximate_size_bytes()
