"""Orientation refinement network.

Takes bootstrapped absolute orientations plus the observed measurements and
regresses refined absolute orientations in one shot.  Hidden states start at
the initial orientation quaternions (zero-padded); the feature of directed
edge ``u -> v`` is the discrepancy ``init_v^-1 * q_uv * init_u`` between the
measurement and the initialization.  The head maps final node states to a
corrective rotation applied on the left of the initialization.  One head
serves both paths: ``forward_tensors`` composes its raw output in one tape
operation (training and losses), and ``refine_forward`` composes the same
values, with rows whose norm underflows replaced by the identity
(inference).  Initializations and predictions are (N, 4) rows;
``refine_forward`` returns a read-only ``so3.Orientations`` view (items for
the adapter).  The loss and its pullback are one numpy function.

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
from .autodiff import AutodiffError, ParamStore, Tape, Tensor, _segment_sum, accumulate
from .mpnn import MpnnConfig
from .viewgraph import ViewGraph, ViewGraphError

BETA = 0.1              # weight of the per-node anchoring term
REFERENCE_TOL = 1e-6    # max angle (deg) tolerated for "identity at the root"
_IDENTITY = (1.0, 0.0, 0.0, 0.0)


def weight_spec(cfg: MpnnConfig = MpnnConfig()) -> dict[str, tuple[int, ...]]:
    spec = mpnn.weight_spec(cfg)
    spec["head_refine.w"] = (cfg.hidden_dim, 4)
    spec["head_refine.b"] = (4,)
    return spec


def new_weights(seed: int = 0, cfg: MpnnConfig = MpnnConfig()) -> ParamStore:
    """Fresh parameters; the zero-weight, identity-bias head makes an
    untrained network return its initialization unchanged."""
    store = ParamStore()
    mpnn.init_weights(cfg, np.random.default_rng(seed), store)
    store.add("head_refine.w", np.zeros((cfg.hidden_dim, 4)))
    store.add("head_refine.b", np.array([1.0, 0.0, 0.0, 0.0]))
    return store


def _edge_discrepancy(g: ViewGraph, init_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays plus per-edge discrepancy features."""
    uv, quats = viewgraph.directed_arrays(g)
    # conjugating the N rows before the gather saves a (2E, 4) copy
    return uv, so3.qmul(so3.qconj(init_rows).take(uv[:, 1], axis=0),
                        so3.qmul(quats, init_rows.take(uv[:, 0], axis=0)))


def _corrections(
    tape: Tape, g: ViewGraph, init_rows: np.ndarray, weights: dict[str, Tensor]
) -> Tensor:
    """The head: raw (N, 4) corrective quaternions from the final node states."""
    mpnn.check_weights(weights, weight_spec(mpnn.config_of(weights)))
    uv, feats = _edge_discrepancy(g, init_rows)
    h = mpnn.forward(tape, weights, uv, feats, init_rows, g.n_nodes)
    return tape.linear(h, weights["head_refine.w"], weights["head_refine.b"])


def forward_tensors(
    tape: Tape, g: ViewGraph, init_rows: np.ndarray, weights: dict[str, Tensor]
) -> Tensor:
    """Refined orientations as an (N, 4) tensor (not yet re-referenced): the
    head's corrections, normalized and composed on the left of ``init_rows``."""
    delta_raw = _corrections(tape, g, init_rows, weights)
    delta, delta_pull = autodiff.unit_rows(delta_raw.values)
    return tape.emit(Tensor(so3.qmul(delta, init_rows)), (delta_raw,), lambda g_pred: accumulate(
        delta_raw, delta_pull(so3.qmul(g_pred, so3.qconj(init_rows)))))


def refine_forward(g: ViewGraph, init: ArrayLike, store: ParamStore, root: int) -> so3.Orientations:
    """Refine (N, 4) initial rows; the result is re-referenced at ``root``.

    Total on valid inputs: corrective rows whose norm underflows fall back
    to the identity rotation.  The network runs on a non-recording tape, so
    ``mpnn.forward`` records no pullback, and its final round keeps no
    messages.  Beyond the edge arrays and features, memory is
    O(rounds*N*(H+M) + CHUNK_ROWS*M).
    """
    init_rows = viewgraph.orientation_rows(g, init)
    root = viewgraph.node_id(root, g.n_nodes, "root")
    if so3.qangle_deg(init_rows[root], _IDENTITY) > REFERENCE_TOL:
        raise ViewGraphError(f"initialization is not referenced at root {root}")
    tape = Tape(recording=False)
    delta = _corrections(tape, g, init_rows, store.bind(tape)).values
    pred_rows = so3._left_correct(delta, init_rows)
    return so3.Orientations(viewgraph.rereference(pred_rows, root))


def loss_from_pred(tape: Tape, pred: Tensor, g: ViewGraph, root: int) -> Tensor:
    """The loss of the (N, 4) predicted rows ``pred`` as one operation."""
    if pred.shape != (g.n_nodes, 4):
        raise AutodiffError(f"prediction of shape {pred.shape} is not ({g.n_nodes}, 4)")
    loss, rows_pull = _loss_terms(pred.values, g, root)
    return tape.emit(Tensor(loss), (pred,), lambda g_loss: accumulate(pred, rows_pull(g_loss)))


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
    if so3.qangle_deg(g.gt[root], _IDENTITY) > REFERENCE_TOL:
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


def refine_loss(pred: ArrayLike, g: ViewGraph, root: int) -> float:
    """Loss value for concrete (N, 4) predicted rows (evaluation path)."""
    return float(_loss_terms(viewgraph.orientation_rows(g, pred), g, root)[0])
