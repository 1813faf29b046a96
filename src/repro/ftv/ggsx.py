"""GraphGrepSX (GGSX): counted label-path FTV method (Bonnici et al., 2010).

GGSX decomposes every dataset graph into all label paths of bounded length and
stores them, with occurrence counts, in a path index (here the flat
:class:`~repro.ftv.postings.Postings` map).  A query graph is decomposed the
same way; a dataset graph survives filtering only if it contains every query
path at least as many times as the query does.

The paper configures GGSX (and Grapes) to index paths up to length 4, which is
also the default here.
"""

from __future__ import annotations

from typing import Optional

from ..graphs.dataset import GraphDataset
from ..isomorphism.base import SubgraphMatcher
from ..isomorphism.vf2 import VF2Matcher
from .base import PathFTVMethod

__all__ = ["GraphGrepSX"]


class GraphGrepSX(PathFTVMethod):
    """GraphGrepSX: counted label-path filtering.

    Parameters
    ----------
    dataset:
        Dataset to index.
    matcher:
        Verifier (defaults to vanilla VF2, as in the original implementation).
    max_path_length:
        Maximum path length (in edges) to index; the paper uses 4.
    """

    name = "ggsx"

    def __init__(
        self,
        dataset: GraphDataset,
        matcher: Optional[SubgraphMatcher] = None,
        max_path_length: int = 4,
    ) -> None:
        # The original GraphGrepSX bundles vanilla VF2 as its verifier.
        super().__init__(dataset, matcher or VF2Matcher(), max_path_length)
