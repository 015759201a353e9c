"""View-graph cleaning network.

Per measured edge the network predicts a small corrective rotation (applied
on the left of the measurement) and a probability that the edge is an
outlier.  Edge features are the raw measurement quaternions; hidden states
start at zero.  Heads read the final-round message of the stored (canonical)
edge direction; the reverse direction still shapes the hidden states.  The
network's sizes are read from its weights (``mpnn.config_of``); only
``new_weights`` and ``weight_spec`` take an ``MpnnConfig``.  Inference runs
on the parameter arrays with no tape.  A training step is one tape record:
the message passing's pullback composed with the loss's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff, mpnn, so3, viewgraph
from .autodiff import ParamStore, Tape, Tensor, accumulate
from .mpnn import MpnnConfig
from .viewgraph import ViewGraph, ViewGraphError

OUTLIER_THRESHOLD_DEG = 20.0   # ground-truth labelling rule
EPSILON_DEFAULT = 0.75         # removal threshold on predicted probability
BCE_WEIGHT = 10.0              # weight of the outlier cross-entropy in the loss
_HEADS = ("head_rect", "head_out")


@dataclass
class CleanPrediction:
    """Per stored edge, in edge order: rectified orientation and outlier probability."""

    rect: np.ndarray          # (E, 4) canonical rows: corrected measurements
    outlier_prob: np.ndarray  # (E,)
    logits: np.ndarray        # (E,) raw head outputs, kept for stable BCE


@dataclass
class CleanedGraph:
    """Cleaned view-graph restricted to its largest component."""

    graph: ViewGraph
    node_ids: np.ndarray       # (M,) int64, new index -> old node id, ascending
    removed_edges: int
    dropped_nodes: np.ndarray  # int64 ids of the nodes outside the kept component


def weight_spec(cfg: MpnnConfig = MpnnConfig()) -> dict[str, tuple[int, ...]]:
    return {**mpnn.weight_spec(cfg), **_head_spec(cfg.msg_dim)}


def _head_spec(msg_dim: int) -> dict[str, tuple[int, ...]]:
    return {"head_rect.w": (msg_dim, 4), "head_rect.b": (4,),
            "head_out.w": (msg_dim, 1), "head_out.b": (1,)}


def new_weights(seed: int = 0, cfg: MpnnConfig = MpnnConfig()) -> ParamStore:
    """Fresh parameters.

    Heads start at zero weights with an identity-quaternion bias, so an
    untrained network applies exactly no correction and scores every edge
    at probability 0.5.
    """
    store = ParamStore()
    mpnn.init_weights(cfg, np.random.default_rng(seed), store)
    store.add("head_rect.w", np.zeros((cfg.msg_dim, 4)))
    store.add("head_rect.b", np.array([1.0, 0.0, 0.0, 0.0]))
    store.add("head_out.w", np.zeros((cfg.msg_dim, 1)))
    store.add("head_out.b", np.zeros(1))
    return store


def _heads(g: ViewGraph, weights: dict[str, np.ndarray]) -> tuple:
    """Raw head outputs, corrections (E, 4) and logits (E, 1), and their
    pullback; the heads are checked here, the stack by ``mpnn.forward``."""
    mpnn.check_weights(weights, _head_spec(mpnn._sizes(weights).msg_dim))
    heads = [(weights[f"{head}.w"], weights[f"{head}.b"]) for head in _HEADS]
    return mpnn.forward(weights, g, g.edge_quat_array(), heads=heads)


def clean_forward(g: ViewGraph, store: ParamStore) -> CleanPrediction:
    """Predict rectified orientations and outlier probabilities.

    Total on any graph with at least one edge: correction rows whose norm
    underflows are replaced by the identity rotation.  The network runs on
    ``store.params`` with no tape, and the pullback is dropped; its final
    round computes the messages of the E stored directions only, applies
    both heads run by run and skips the node update.  Beyond the edge
    arrays, memory is O(rounds*N*(H+M) + CHUNK_ROWS*M); no (E, M) block is
    kept.
    """
    if g.n_edges == 0:
        raise ViewGraphError("cannot clean a graph without edges")
    delta_raw, logits = _heads(g, store.params)[0]
    rect = so3._left_correct(delta_raw, g.edge_quat_array())
    logits = logits.reshape(g.n_edges)
    return CleanPrediction(rect=rect, outlier_prob=1.0 / (1.0 + np.exp(-logits)), logits=logits)


def gt_outlier_labels(g: ViewGraph) -> np.ndarray:
    """1.0 where the measurement sits more than 20 degrees from the
    ground-truth relative orientation, else 0.0."""
    if not g.has_full_gt:
        raise ViewGraphError("outlier labels require full ground truth")
    return _outlier_labels(g, g.relative_gt_array())


def _outlier_labels(g: ViewGraph, rel_gt: np.ndarray) -> np.ndarray:
    """:func:`gt_outlier_labels` given ``rel_gt = g.relative_gt_array()``."""
    angles = so3.qangle_deg(g.edge_quat_array(), rel_gt)
    return (angles > OUTLIER_THRESHOLD_DEG).astype(np.float64)


def _loss_terms(rect: np.ndarray, logits: np.ndarray, g: ViewGraph):
    """Degree-normalized distance of the unit rows ``rect`` to the ground-truth
    relative orientations plus ``BCE_WEIGHT`` times the mean outlier
    cross-entropy of the (E,) ``logits``; and the pullback to their gradients."""
    if not g.has_full_gt or g.n_edges == 0:  # the mean cross-entropy needs an edge
        raise ViewGraphError("loss requires full ground truth and at least one edge")
    rel_gt = g.relative_gt_array()
    dists, dists_pull = autodiff.quat_dist(rect, rel_gt)
    edge_w = viewgraph._degree_weights(g)
    targets = _outlier_labels(g, rel_gt)
    bce = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    loss = (dists * edge_w).sum() + bce.mean() * float(BCE_WEIGHT)

    def pull(g_loss):
        g_loss = float(g_loss)
        sig = 1.0 / (1.0 + np.exp(-logits))
        return (dists_pull(g_loss * edge_w),
                g_loss * float(BCE_WEIGHT) / logits.size * (sig - targets))

    return loss, pull


def clean_loss_graph(tape: Tape, g: ViewGraph, weights: dict[str, Tensor]) -> Tensor:
    """Differentiable loss of the network's own prediction on ``g``, one
    tape operation: the message passing with its heads, then the loss."""
    (delta_raw, logits), heads_pull = _heads(g, {name: t.values for name, t in weights.items()})
    quats = g.edge_quat_array()
    rect, rect_pull = autodiff.unit_rows(so3.qmul(delta_raw, quats))
    loss, terms_pull = _loss_terms(rect, logits.reshape(g.n_edges), g)

    def pull(g_loss):
        g_rect, g_logits = terms_pull(g_loss)
        g_stack, g_heads = heads_pull(so3.qmul(rect_pull(g_rect), so3.qconj(quats)),
                                      g_logits.reshape(logits.shape))
        for head, (g_w, g_b) in zip(_HEADS, g_heads):
            g_stack[f"{head}.w"], g_stack[f"{head}.b"] = g_w, g_b
        for name, grad in g_stack.items():
            accumulate(weights[name], grad)

    return tape.emit(Tensor(loss), tuple(weights.values()), pull)


def clean_graph(g: ViewGraph, pred: CleanPrediction) -> CleanedGraph:
    """Drop edges scored above ``EPSILON_DEFAULT`` and install rectified orientations.

    If the removal disconnects the graph the result is restricted to the
    largest component.  Removing every edge is an error.
    """
    m = g.n_edges
    if tuple(map(np.shape, (pred.rect, pred.outlier_prob, pred.logits))) != ((m, 4), (m,), (m,)):
        raise ViewGraphError("prediction does not cover every edge")
    keep = pred.outlier_prob <= EPSILON_DEFAULT
    if not np.any(keep):
        raise ViewGraphError("empty cleaned graph: every edge was removed")
    kept = int(np.count_nonzero(keep))
    u, v = g.endpoint_arrays()
    full = ViewGraph._from_valid(g.n_nodes, u[keep], v[keep], pred.rect[keep],
                                 np.full(kept, -1, dtype=np.int8), g.gt)
    sub, node_ids = viewgraph.largest_component(full)
    return CleanedGraph(graph=sub, node_ids=node_ids, removed_edges=m - kept,
                        dropped_nodes=np.setdiff1d(np.arange(g.n_nodes), node_ids))
