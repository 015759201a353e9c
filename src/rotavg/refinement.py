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
step is one tape record, ``refine_loss_graph``: the message passing, the
head, the normalized correction composed on the left of the
initialization and the loss terms, with one composed pullback.

The reference camera (root) must carry the identity in the initialization;
losses also require it to carry the identity in the ground truth, which the
trainer arranges by re-referencing.  The network's sizes are read from its
weights (``mpnn.config_of``); only ``new_weights`` and ``weight_spec`` take
an ``MpnnConfig``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from . import autodiff, mpnn, so3, viewgraph
from .autodiff import ParamStore, Tape, Tensor, _segment_sum, accumulate
from .mpnn import MpnnConfig
from .viewgraph import ViewGraph, ViewGraphError

BETA = 0.1              # weight of the per-node anchoring term
REFERENCE_TOL = 1e-6    # max angle (deg) tolerated for "identity at the root"


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
    """Refine (N, 4) initial rows; the result is re-referenced at ``root``.

    Total on valid inputs: corrective rows whose norm underflows fall back
    to the identity rotation.  The network runs on ``store.params`` with no
    tape, and the pullback is dropped; its final round keeps no messages.
    Beyond the E edge features, memory is O(rounds*N*(H+M) + CHUNK_ROWS*M).
    """
    init_rows = viewgraph.orientation_rows(g, init)
    root = viewgraph.node_id(root, g.n_nodes, "root")
    if so3.angle_deg(init_rows[root]) > REFERENCE_TOL:
        raise ViewGraphError(f"initialization is not referenced at root {root}")
    delta = _corrections(g, init_rows, store.params)[1]
    pred_rows = so3._left_correct(delta, init_rows)
    return so3.Orientations(viewgraph.rereference(pred_rows, root))


def refine_loss_graph(
    tape: Tape, g: ViewGraph, init_rows: np.ndarray, root: int, weights: dict[str, Tensor]
) -> Tensor:
    """Differentiable loss of the network's own refinement of ``init_rows``
    on ``g``, one tape operation: the message passing, the head, the
    normalized correction composed on the left of ``init_rows``, and the
    loss terms."""
    arrays = {name: t.values for name, t in weights.items()}
    h, delta_raw, h_pull = _corrections(g, init_rows, arrays)
    delta, delta_pull = autodiff.unit_rows(delta_raw)
    loss, pred_pull = _loss_terms(so3.qmul(delta, init_rows), g, root)

    def pull(g_loss):
        g_delta = delta_pull(so3.qmul(pred_pull(g_loss), so3.qconj(init_rows)))
        g_stack = h_pull(g_delta @ arrays["head_refine.w"].T)[0]
        g_stack["head_refine.w"] = h.T @ g_delta
        g_stack["head_refine.b"] = g_delta.sum(axis=0)
        for name, grad in g_stack.items():
            accumulate(weights[name], grad)

    return tape.emit(Tensor(loss), tuple(weights.values()), pull)


def _loss_terms(pred: np.ndarray, g: ViewGraph, root: int):
    """Consistency loss over edges plus the anchoring term over nodes, and
    the pullback to the gradient of ``pred``.

    Edge term: degree-normalized quaternion distance between predicted and
    ground-truth relative orientations.  Node term: ``BETA / deg(v)`` times
    the quaternion distance to the ground-truth absolute orientation.
    """
    if not g.has_full_gt:
        raise ViewGraphError("loss requires full ground truth")
    degree = g.degree_array()
    if not degree.all():
        raise ViewGraphError(f"node {int(np.argmin(degree))} has no edge; the loss weighs "
                             "each node by 1 / degree")
    root = viewgraph.node_id(root, g.n_nodes, "root")
    if so3.angle_deg(g.gt[root]) > REFERENCE_TOL:
        raise ViewGraphError("ground truth is not referenced at the root; "
                             "re-reference before the loss")
    u_idx, v_idx = g.endpoint_arrays()
    pred_v = pred.take(v_idx, axis=0)
    conj_u = so3.qconj(pred.take(u_idx, axis=0))
    rel, rel_pull = autodiff.unit_rows(so3.qmul(pred_v, conj_u))
    edge_d, edge_pull = autodiff.quat_dist(rel, g.relative_gt_array())
    edge_w = viewgraph._degree_weights(g)
    unit, unit_pull = autodiff.unit_rows(pred)
    node_d, node_pull = autodiff.quat_dist(unit, g.gt_array())
    node_w = BETA / degree
    loss = (edge_d * edge_w).sum() + (node_d * node_w).sum()

    def pull(g_loss):
        g_loss = float(g_loss)
        g_pred = unit_pull(node_pull(g_loss * node_w))
        g_rel = rel_pull(edge_pull(g_loss * edge_w))
        # the node term first, then the v ends, then the u ends
        g_pred += _segment_sum(so3.qmul(g_rel, so3.qconj(conj_u)), v_idx, g.n_nodes)
        g_pred += _segment_sum(so3.qconj(so3.qmul(so3.qconj(pred_v), g_rel)), u_idx, g.n_nodes)
        return g_pred

    return loss, pull
