"""The NeuRoRA chain: clean, keep the largest component, bootstrap, refine.

``prepare`` runs CleanNet, drops the edges it scores as outliers and keeps
the largest component (``cleaning.clean_graph``), then chains the cleaned
measurements along the BFS tree from the camera of highest degree into
initial orientations.  ``run`` refines those with FineNet.  Every step is
called through its module's attribute, so that a wrapper installed there
sees the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cleaning, refinement, viewgraph
from .autodiff import ParamStore
from .viewgraph import SpanningTreeInit, ViewGraph


@dataclass(frozen=True)
class NeuroraRun:
    """One run's output; rows are in the order of ``node_ids``, identity at the tree root."""

    node_ids: np.ndarray   # (M,) int64 ids, in the input graph, of the kept nodes, ascending
    rows: np.ndarray       # (M, 4) refined orientations, read-only
    boot_rows: np.ndarray  # (M, 4) bootstrap orientations, read-only
    removed: np.ndarray    # (E,) bool, in the input graph's edge order: the edges the cleaner removed


def prepare(g: ViewGraph, clean_store: ParamStore) -> tuple[
        cleaning.CleanPrediction, cleaning.CleanedGraph, SpanningTreeInit]:
    """CleanNet's prediction on ``g``, the cleaned graph's largest component
    and the BFS bootstrap on it, from its node of highest degree."""
    pred = cleaning.clean_forward(g, clean_store)
    cleaned = cleaning.clean_graph(g, pred)
    base = cleaned.graph
    tree = viewgraph.shortest_path_tree(base, viewgraph.select_root(base))
    return pred, cleaned, viewgraph.bootstrap_orientations(base, tree)


def run(g: ViewGraph, clean_store: ParamStore, fine_store: ParamStore) -> NeuroraRun:
    """:func:`prepare`, then FineNet's refinement of the bootstrap on the cleaned graph."""
    _, cleaned, boot = prepare(g, clean_store)
    refined = refinement.refine_forward(cleaned.graph, boot.orientations, fine_store, boot.root)
    return NeuroraRun(node_ids=cleaned.node_ids, rows=np.asarray(refined),
                      boot_rows=np.asarray(boot.orientations), removed=cleaned.removed)
