"""Orientation refinement network.

Takes bootstrapped absolute orientations plus the observed measurements and
regresses refined absolute orientations in one shot.  Hidden states start at
the initial orientation quaternions (zero-padded); the feature of edge
``u -> v`` is the discrepancy ``init_v^-1 * q_uv * init_u`` of measurement
and initialization (``viewgraph.discrepancy``).  The head maps final node
states to a corrective rotation applied on the left of the initialization.
Initializations and predictions are (N, 4) rows.  ``refine_forward``
composes the head's corrections with rows whose norm underflows replaced by
the identity, and returns a read-only ``so3.Orientations`` view (items for
the adapter); it runs on the parameter arrays with no tape.  A training
step, ``refine_loss_graph``, returns an ``autodiff.Tape``: the loss of the
message passing, the head, the normalized correction composed on the left
of the initialization and the loss terms, with one composed pullback.

The network reads its initialization, and the loss its ground truth,
re-referenced at the reference camera (root), so either may come in any
gauge.  The network's sizes are read from its
weights (``mpnn.config_of``); only ``new_weights`` and ``weight_spec`` take
an ``MpnnConfig``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from . import autodiff, mpnn, so3, viewgraph
from .autodiff import ParamStore, Tape, _segment_sum
from .mpnn import MpnnConfig
from .viewgraph import ViewGraph, ViewGraphError

BETA = 0.1              # weight of the per-node anchoring term


def weight_spec(cfg: MpnnConfig = MpnnConfig()) -> dict[str, tuple[int, ...]]:
    return {**mpnn.weight_spec(cfg), **_head_spec(cfg.hidden_dim)}


def _head_spec(hidden_dim: int) -> dict[str, tuple[int, ...]]:
    return {"head_refine.w": (hidden_dim, 4), "head_refine.b": (4,)}


def new_weights(seed: int = 0, cfg: MpnnConfig = MpnnConfig()) -> ParamStore:
    """Fresh parameters; the zero-weight, identity-bias head makes an
    untrained network return its initialization unchanged."""
    store = ParamStore()
    mpnn.init_weights(cfg, np.random.default_rng(seed), store)
    store.add("head_refine.w", np.zeros((cfg.hidden_dim, 4)))
    store.add("head_refine.b", np.array([1.0, 0.0, 0.0, 0.0]))
    return store


def _corrections(g: ViewGraph, init_rows: np.ndarray, weights: dict[str, np.ndarray]) -> tuple:
    """The final (N, H) node states, the head's raw (N, 4) corrections ``h @
    w + b`` and the states' pullback; the head is checked here, the stack by
    ``mpnn.forward``."""
    mpnn.check_weights(weights, _head_spec(mpnn._sizes(weights).hidden_dim))
    h, h_pull = mpnn.forward(weights, g, viewgraph.discrepancy(g, init_rows), init_rows)
    delta_raw = h @ weights["head_refine.w"]
    delta_raw += weights["head_refine.b"]
    return h, delta_raw, h_pull


def refine_forward(g: ViewGraph, init: ArrayLike, store: ParamStore, root: int) -> so3.Orientations:
    """Refine (N, 4) initial rows, read and returned re-referenced at ``root``.

    Total on valid inputs: corrective rows whose norm underflows fall back
    to the identity rotation.  The network runs on ``store.params`` with no
    tape, and the pullback is dropped; its final round keeps no messages.
    Beyond the E edge features, memory is O(rounds*N*(H+M) + CHUNK_ROWS*M).
    """
    root = viewgraph.node_id(root, g.n_nodes, "root")
    init_rows = viewgraph.rereference(viewgraph.orientation_rows(g, init), root)
    delta = _corrections(g, init_rows, store.params)[1]
    pred_rows = so3._left_correct(delta, init_rows)
    return so3.Orientations(viewgraph.rereference(pred_rows, root))


def refine_loss_graph(
    g: ViewGraph, init: ArrayLike, root: int, weights: dict[str, np.ndarray]
) -> Tape:
    """The step of the network's own refinement of ``init`` on ``g``, read
    as ``refine_forward`` reads it: the message passing, the head, the
    normalized correction composed on the left of the initialization, the
    loss terms, and their composed pullback."""
    root = viewgraph.node_id(root, g.n_nodes, "root")
    init_rows = viewgraph.rereference(viewgraph.orientation_rows(g, init), root)
    h, delta_raw, h_pull = _corrections(g, init_rows, weights)
    delta, delta_pull = autodiff.unit_rows(delta_raw)
    loss, pred_pull = _loss_terms(so3.qmul(delta, init_rows), g, root)

    def pull():
        g_delta = delta_pull(so3.qmul(pred_pull(), so3.qconj(init_rows)))
        g_stack = h_pull(g_delta @ weights["head_refine.w"].T)[0]
        g_stack["head_refine.w"] = h.T @ g_delta
        g_stack["head_refine.b"] = g_delta.sum(axis=0)
        return g_stack

    return Tape(loss, pull)


def _loss_terms(pred: np.ndarray, g: ViewGraph, root: int):
    """Consistency loss over edges plus the anchoring term over nodes, and
    the pullback to the gradient of ``pred``.

    Edge term: degree-normalized quaternion distance between predicted and
    ground-truth relative orientations.  Node term: ``BETA / deg(v)`` times
    the quaternion distance to the ground-truth absolute orientation.  Both
    read the ground truth re-referenced at ``root``, the prediction's gauge.
    """
    if not g.has_full_gt:
        raise ViewGraphError("loss requires full ground truth")
    degree = g.degree_array()
    if not degree.all():
        raise ViewGraphError(f"node {int(np.argmin(degree))} has no edge; the loss weighs "
                             "each node by 1 / degree")
    gt = viewgraph.rereference(g.gt, viewgraph.node_id(root, g.n_nodes, "root"))
    u_idx, v_idx = g.endpoint_arrays()
    pred_v = pred.take(v_idx, axis=0)
    conj_u = so3.qconj(pred.take(u_idx, axis=0))
    rel, rel_pull = autodiff.unit_rows(so3.qmul(pred_v, conj_u))
    edge_d, edge_pull = autodiff.quat_dist(rel, viewgraph.relative(g, gt))
    edge_w = viewgraph._degree_weights(g)
    unit, unit_pull = autodiff.unit_rows(pred)
    node_d, node_pull = autodiff.quat_dist(unit, gt)
    node_w = BETA / degree
    loss = (edge_d * edge_w).sum() + (node_d * node_w).sum()

    def pull():
        g_pred = unit_pull(node_pull(node_w))
        g_rel = rel_pull(edge_pull(edge_w))
        # the node term first, then the v ends, then the u ends
        g_pred += _segment_sum(so3.qmul(g_rel, so3.qconj(conj_u)), v_idx, g.n_nodes)
        g_pred += _segment_sum(so3.qconj(so3.qmul(so3.qconj(pred_v), g_rel)), u_idx, g.n_nodes)
        return g_pred

    return loss, pull
