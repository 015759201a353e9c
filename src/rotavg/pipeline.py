"""Every solve chain: NeuRoRA, and the L1 baselines from the BFS bootstrap.

``bootstrap`` chains the measurements along the BFS tree from the camera of
highest degree into initial orientations.  ``prepare`` runs CleanNet, drops
the edges it scores as outliers, keeps the largest component
(``cleaning.clean_graph``) and bootstraps it; ``run`` refines that bootstrap
with FineNet.  ``irls`` and ``weiszfeld`` run the baselines from the
bootstrap of the whole graph.  Every step is called through its module's
attribute, so that a wrapper installed there sees the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines, cleaning, refinement, viewgraph
from .autodiff import ParamStore
from .viewgraph import SpanningTreeInit, ViewGraph


@dataclass(frozen=True)
class NeuroraRun:
    """One run's output, every array read-only; rows are in the order of
    ``node_ids``, identity at the tree root."""

    node_ids: np.ndarray   # (M,) int64 ids, in the input graph, of the kept nodes, ascending
    rows: np.ndarray       # (M, 4) refined orientations
    boot_rows: np.ndarray  # (M, 4) bootstrap orientations
    removed: np.ndarray    # (E,) bool, in the input graph's edge order: the edges the cleaner removed


def bootstrap(g: ViewGraph) -> SpanningTreeInit:
    """The BFS tree of ``g`` from its node of highest degree, with the
    measurements chained along it into orientations."""
    tree = viewgraph.shortest_path_tree(g, viewgraph.select_root(g))
    return viewgraph.bootstrap_orientations(g, tree)


def prepare(g: ViewGraph, clean_store: ParamStore) -> tuple[
        cleaning.CleanPrediction, cleaning.CleanedGraph, SpanningTreeInit]:
    """CleanNet's prediction on ``g``, the cleaned graph's largest component
    and its :func:`bootstrap`."""
    pred = cleaning.clean_forward(g, clean_store)
    cleaned = cleaning.clean_graph(g, pred)
    return pred, cleaned, bootstrap(cleaned.graph)


def run(g: ViewGraph, clean_store: ParamStore, fine_store: ParamStore) -> NeuroraRun:
    """:func:`prepare`, then FineNet's refinement of the bootstrap on the cleaned graph."""
    _, cleaned, boot = prepare(g, clean_store)
    refined = refinement.refine_forward(cleaned.graph, boot.orientations, fine_store, boot.root)
    return NeuroraRun(node_ids=cleaned.node_ids, rows=np.asarray(refined),
                      boot_rows=np.asarray(boot.orientations), removed=cleaned.removed)


def irls(g: ViewGraph) -> baselines.IrlsResult:
    """IRLS from :func:`bootstrap`, at the solver's default (5, 20) budgets."""
    return baselines.irls_mra(g, bootstrap(g).orientations)


def weiszfeld(g: ViewGraph, sweeps: int) -> baselines.WeiszfeldResult:
    """``sweeps`` Weiszfeld sweeps from :func:`bootstrap`."""
    return baselines.weiszfeld_mra(g, bootstrap(g).orientations, sweeps=sweeps)
