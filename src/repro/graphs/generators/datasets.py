"""Stand-in datasets mirroring the paper's evaluation datasets (§7.2).

The paper evaluates GraphCache on three real-world datasets (AIDS, PDBS, PCM)
and one GraphGen synthetic dataset.  Those exact files are not redistributable
and would be intractably large for pure-Python sub-iso verification, so this
module generates *structurally analogous* datasets:

============  ==================  =======================================
Paper         Factory             Preserved characteristics
============  ==================  =======================================
AIDS          :func:`aids_like`   many small sparse graphs, avg degree ≈2,
                                  large skewed label alphabet (molecules)
PDBS          :func:`pdbs_like`   few large sparse graphs, avg degree ≈2,
                                  small label alphabet (DNA/RNA/protein)
PCM           :func:`pcm_like`    few medium dense graphs, high avg degree
                                  (protein contact maps)
Synthetic     :func:`synthetic_like`  like PCM but more, larger graphs
============  ==================  =======================================

Every factory accepts a ``scale`` multiplier for the number of graphs and a
``seed``; the defaults are sized so that the complete benchmark suite runs on
a laptop.  The relative shape (AIDS small/sparse/label-rich vs PCM dense) is
what GraphCache's behaviour depends on — see README, "Substitutions", for
the rationale.
"""

from __future__ import annotations

import random
from typing import List

from ..dataset import GraphDataset
from ..graph import Graph
from .families import family_dataset_graphs
from .random_labeled import zipfian_label_weights

__all__ = [
    "aids_like",
    "pdbs_like",
    "pcm_like",
    "synthetic_like",
    "dataset_by_name",
    "DATASET_FACTORIES",
]

#: Chemical-element-style alphabet used by the molecule-like datasets.  Real
#: molecule datasets are dominated by a handful of elements (C, N, O), which
#: the Zipf label skew of each factory reproduces.
_ATOM_LABELS = [
    "C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "H", "Na", "K", "Ca", "Zn",
]

#: Residue/nucleotide-class alphabet used by the protein-structure-like
#: dataset (PDBS mixes DNA, RNA and protein graphs with few label classes).
_BACKBONE_LABELS = ["CA", "CB", "N", "O", "P", "S"]

#: Residue-class alphabet used by the contact-map-like datasets.
_RESIDUE_LABELS = ["ALA", "GLY", "LEU", "SER", "VAL", "GLU", "LYS", "ASP"]


def _build(
    name: str,
    graph_count: int,
    mean_order: int,
    order_spread: int,
    average_degree: float,
    alphabet: List[str],
    label_skew: float,
    seed: int,
    template_count: int | None = None,
) -> GraphDataset:
    """Shared generator body for all dataset factories.

    Graphs are generated as *families* (perturbed copies of shared templates,
    see :mod:`repro.graphs.generators.families`) so that, as in the real
    datasets, different graphs share substructure: FTV candidate sets then
    genuinely exceed answer sets and queries exhibit subgraph/supergraph
    relationships for GraphCache to exploit.
    """
    rng = random.Random(seed)
    weights = zipfian_label_weights(len(alphabet), skew=label_skew)
    if template_count is None:
        template_count = max(3, graph_count // 12)
    graphs: List[Graph] = family_dataset_graphs(
        graph_count=graph_count,
        template_count=template_count,
        template_order=mean_order,
        order_spread=order_spread,
        average_degree=average_degree,
        alphabet=alphabet,
        rng=rng,
        label_weights=weights,
    )
    return GraphDataset(graphs, name=name)


def aids_like(scale: float = 1.0, seed: int = 7) -> GraphDataset:
    """AIDS-like dataset: many small, sparse, label-rich molecule graphs.

    Paper statistics: 40,000 graphs, ≈45 vertices, ≈47 edges, avg degree ≈2.09.
    Default stand-in: ``200 * scale`` graphs of 22–62 vertices, avg degree ≈2.1,
    20 atom-style labels with a strongly Zipf-skewed distribution (carbon
    dominates, as in real molecules).
    """
    return _build(
        name="AIDS-like",
        graph_count=max(4, int(200 * scale)),
        mean_order=42,
        order_spread=20,
        average_degree=2.1,
        alphabet=_ATOM_LABELS,
        label_skew=2.2,
        seed=seed,
    )


def pdbs_like(scale: float = 1.0, seed: int = 11) -> GraphDataset:
    """PDBS-like dataset: few larger, sparse graphs with a small label alphabet.

    Paper statistics: 600 graphs, ≈2,939 vertices, avg degree ≈2.13.
    Default stand-in: ``60 * scale`` graphs of 280–520 vertices, avg degree ≈2.1,
    6 backbone-style labels.  The graphs are an order of magnitude larger than
    the AIDS-like ones (as in the paper), which is what makes each sub-iso
    verification against PDBS expensive.
    """
    return _build(
        name="PDBS-like",
        graph_count=max(4, int(60 * scale)),
        mean_order=400,
        order_spread=120,
        average_degree=2.1,
        alphabet=_BACKBONE_LABELS,
        label_skew=0.8,
        seed=seed,
    )


def pcm_like(scale: float = 1.0, seed: int = 13) -> GraphDataset:
    """PCM-like dataset: few medium, *dense* protein-contact-map graphs.

    Paper statistics: 200 graphs, ≈377 vertices, ≈4,340 edges, avg degree ≈22.4.
    Default stand-in: ``40 * scale`` graphs of 55–105 vertices, avg degree ≈10,
    8 residue-style labels.  Density (relative to the sparse datasets) is the
    property that matters: it is what triggers cache pollution (§6.2, Fig. 9).
    """
    return _build(
        name="PCM-like",
        graph_count=max(4, int(40 * scale)),
        mean_order=80,
        order_spread=25,
        average_degree=10.0,
        alphabet=_RESIDUE_LABELS,
        label_skew=0.5,
        seed=seed,
    )


def synthetic_like(scale: float = 1.0, seed: int = 17) -> GraphDataset:
    """Synthetic dataset: a larger, denser counterpart to PCM (GraphGen-style).

    Paper statistics: 1,000 graphs, ≈892 vertices, avg degree ≈19.5.
    Default stand-in: ``60 * scale`` graphs of 80–140 vertices, avg degree ≈10
    (more and larger graphs than PCM-like, as in the paper).
    """
    return _build(
        name="Synthetic",
        graph_count=max(4, int(60 * scale)),
        mean_order=110,
        order_spread=30,
        average_degree=10.0,
        alphabet=_RESIDUE_LABELS,
        label_skew=0.3,
        seed=seed,
    )


DATASET_FACTORIES = {
    "aids": aids_like,
    "pdbs": pdbs_like,
    "pcm": pcm_like,
    "synthetic": synthetic_like,
}


def dataset_by_name(name: str, scale: float = 1.0, seed: int | None = None) -> GraphDataset:
    """Build a stand-in dataset by (case-insensitive) paper name."""
    key = name.strip().lower()
    try:
        factory = DATASET_FACTORIES[key]
    except KeyError:
        known = ", ".join(sorted(DATASET_FACTORIES))
        raise ValueError(f"unknown dataset {name!r}; known datasets: {known}") from None
    if seed is None:
        return factory(scale=scale)
    return factory(scale=scale, seed=seed)
