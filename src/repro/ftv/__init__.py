"""Filter-then-verify (FTV) methods: GraphGrepSX, Grapes, CT-Index."""

from .base import FTVMethod
from .ctindex import CTIndex
from .features import (
    canonical_cycle_key,
    canonical_path_key,
    cycle_features,
    extract_label_cycles,
    extract_label_paths,
    label_rank_map,
    packed_cycle_features,
)
from .fingerprints import Fingerprint, feature_bit
from .ggsx import GraphGrepSX
from .grapes import Grapes
from .index_arena import FeatureIndexArena, dataset_content_hash
from .postings import Postings
from .supergraph import SupergraphFeatureIndex

__all__ = [
    "FTVMethod",
    "GraphGrepSX",
    "Grapes",
    "CTIndex",
    "SupergraphFeatureIndex",
    "Postings",
    "Fingerprint",
    "FeatureIndexArena",
    "feature_bit",
    "canonical_cycle_key",
    "canonical_path_key",
    "cycle_features",
    "dataset_content_hash",
    "extract_label_cycles",
    "extract_label_paths",
    "label_rank_map",
    "packed_cycle_features",
]
