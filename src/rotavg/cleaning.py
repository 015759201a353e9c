"""View-graph cleaning network.

Per measured edge the network predicts a small corrective rotation (applied
on the left of the measurement) and a probability that the edge is an
outlier.  Edge features are the raw measurement quaternions; hidden states
start at zero.  Heads read the final-round message of the stored (canonical)
edge direction; the reverse direction still shapes the hidden states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mpnn, so3, viewgraph
from .autodiff import ParamStore, Tape, Tensor
from .mpnn import MpnnConfig
from .viewgraph import ViewGraph, ViewGraphError

DEFAULT_CONFIG = MpnnConfig(node_init_dim=0)
OUTLIER_THRESHOLD_DEG = 20.0   # ground-truth labelling rule
EPSILON_DEFAULT = 0.75         # removal threshold on predicted probability
BCE_WEIGHT_DEFAULT = 10.0


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


def weight_spec(cfg: MpnnConfig = DEFAULT_CONFIG) -> dict[str, tuple[int, ...]]:
    spec = mpnn.weight_spec(cfg)
    spec["head_rect.w"] = (cfg.msg_dim, 4)
    spec["head_rect.b"] = (4,)
    spec["head_out.w"] = (cfg.msg_dim, 1)
    spec["head_out.b"] = (1,)
    return spec


def new_weights(seed: int = 0, cfg: MpnnConfig = DEFAULT_CONFIG) -> ParamStore:
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


def _head_tensors(
    tape: Tape, g: ViewGraph, weights: dict[str, Tensor], cfg: MpnnConfig
) -> tuple[Tensor, Tensor]:
    """Raw head outputs: correction quaternions (E, 4) and logits (E,)."""
    mpnn.check_weights(weights, weight_spec(cfg))
    uv, quats = viewgraph.directed_arrays(g)
    m = g.n_edges
    heads = [(weights["head_rect.w"], weights["head_rect.b"]),
             (weights["head_out.w"], weights["head_out.b"])]
    delta_raw, logits = mpnn.forward(tape, weights, cfg, uv, quats, None, g.n_nodes, heads,
                                     head_rows=m)
    return delta_raw, tape.reshape(logits, (m,))


def clean_forward(
    g: ViewGraph, store: ParamStore, cfg: MpnnConfig = DEFAULT_CONFIG
) -> CleanPrediction:
    """Predict rectified orientations and outlier probabilities.

    Total on any graph with at least one edge: correction rows whose norm
    underflows are replaced by the identity rotation.  The network runs on a
    non-recording tape, so ``mpnn.forward`` records no pullback; its final
    round computes the messages of the E stored directions only, applies
    both heads run by run and skips the node update.  Beyond the edge
    arrays, memory is O(rounds*N*(H+M) + CHUNK_ROWS*M); no (E, M) block is
    kept.
    """
    if g.n_edges == 0:
        raise ViewGraphError("cannot clean a graph without edges")
    tape = Tape(recording=False)
    weights = store.bind(tape)
    delta_raw, logits = _head_tensors(tape, g, weights, cfg)
    rect = so3._left_correct(delta_raw.values, g.edge_quat_array())
    probs = 1.0 / (1.0 + np.exp(-logits.values))
    return CleanPrediction(rect=rect, outlier_prob=probs, logits=logits.values.copy())


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


def _loss_terms(tape: Tape, rect: Tensor, logits: Tensor, g: ViewGraph, bce_weight: float) -> Tensor:
    """Degree-normalized distance of the unit rows ``rect`` to the ground-truth
    relative orientations plus ``bce_weight`` times the mean outlier
    cross-entropy of ``logits``."""
    if not g.has_full_gt:
        raise ViewGraphError("loss requires full ground truth")
    rel_gt = g.relative_gt_array()
    dists = tape.quat_dist_loss(rect, tape.constant(rel_gt))
    mre = tape.sum(tape.mul(dists, tape.constant(viewgraph._degree_weights(g))))
    bce = tape.mean(tape.bce_with_logits(logits, tape.constant(_outlier_labels(g, rel_gt))))
    return tape.add(mre, tape.scale(bce, bce_weight))


def clean_loss_graph(
    tape: Tape,
    g: ViewGraph,
    weights: dict[str, Tensor],
    cfg: MpnnConfig = DEFAULT_CONFIG,
    bce_weight: float = BCE_WEIGHT_DEFAULT,
) -> Tensor:
    """Differentiable loss of the network's own prediction on ``g``."""
    delta_raw, logits = _head_tensors(tape, g, weights, cfg)
    rect_raw = tape.quat_compose(delta_raw, tape.constant(g.edge_quat_array()))
    return _loss_terms(tape, tape.quat_normalize(rect_raw), logits, g, bce_weight)


def clean_loss(
    pred: CleanPrediction,
    g: ViewGraph,
    bce_weight: float = BCE_WEIGHT_DEFAULT,
) -> float:
    """Loss value for an existing prediction (evaluation path)."""
    tape = Tape(recording=False)
    loss = _loss_terms(tape, tape.constant(pred.rect), tape.constant(pred.logits), g, bce_weight)
    return float(loss.values)


def clean_graph(
    g: ViewGraph, pred: CleanPrediction, epsilon: float = EPSILON_DEFAULT
) -> CleanedGraph:
    """Drop edges scored above ``epsilon`` and install rectified orientations.

    If the removal disconnects the graph the result is restricted to the
    largest component.  Removing every edge is an error.
    """
    m = g.n_edges
    if np.shape(pred.rect) != (m, 4) or np.shape(pred.outlier_prob) != (m,):
        raise ViewGraphError("prediction does not cover every edge")
    keep = pred.outlier_prob <= epsilon
    if not np.any(keep):
        raise ViewGraphError("empty cleaned graph: every edge was removed")
    kept = int(np.count_nonzero(keep))
    u, v = g.endpoint_arrays()
    full = ViewGraph._from_valid(g.n_nodes, u[keep], v[keep], pred.rect[keep],
                                 np.full(kept, -1, dtype=np.int8), g.gt)
    sub, node_ids = viewgraph.largest_component(full)
    return CleanedGraph(graph=sub, node_ids=node_ids, removed_edges=m - kept,
                        dropped_nodes=np.setdiff1d(np.arange(g.n_nodes), node_ids))
