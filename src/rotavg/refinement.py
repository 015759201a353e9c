"""Orientation refinement network.

Takes bootstrapped absolute orientations plus the observed measurements and
regresses refined absolute orientations in one shot.  Hidden states start at
the initial orientation quaternions (zero-padded); the feature of directed
edge ``u -> v`` is the discrepancy ``init_v^-1 * q_uv * init_u`` between the
measurement and the initialization.  The head maps final node states to a
corrective rotation applied on the left of the initialization.  One head
serves both paths: ``forward_tensors`` composes its raw output on the tape
(training and losses), and ``refine_forward`` composes the same values,
with rows whose norm underflows replaced by the identity (inference).
Initializations and predictions are (N, 4) rows; ``refine_forward``
returns a read-only ``so3.Orientations`` view (items for the adapter).

The reference camera (root) must carry the identity in the initialization;
losses also require it to carry the identity in the ground truth, which the
trainer arranges by re-referencing.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from . import mpnn, so3, viewgraph
from .autodiff import ParamStore, Tape, Tensor
from .mpnn import MpnnConfig
from .viewgraph import ViewGraph, ViewGraphError

DEFAULT_CONFIG = MpnnConfig(node_init_dim=4)
BETA_DEFAULT = 0.1      # weight of the per-node anchoring term
REFERENCE_TOL = 1e-6    # max angle (deg) tolerated for "identity at the root"
_IDENTITY = (1.0, 0.0, 0.0, 0.0)


def weight_spec(cfg: MpnnConfig = DEFAULT_CONFIG) -> dict[str, tuple[int, ...]]:
    spec = mpnn.weight_spec(cfg)
    spec["head_refine.w"] = (cfg.hidden_dim, 4)
    spec["head_refine.b"] = (4,)
    return spec


def new_weights(seed: int = 0, cfg: MpnnConfig = DEFAULT_CONFIG) -> ParamStore:
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
    tape: Tape, g: ViewGraph, init_rows: np.ndarray, weights: dict[str, Tensor], cfg: MpnnConfig
) -> Tensor:
    """The head: raw (N, 4) corrective quaternions from the final node states."""
    mpnn.check_weights(weights, weight_spec(cfg))
    uv, feats = _edge_discrepancy(g, init_rows)
    h = mpnn.forward(tape, weights, cfg, uv, feats, init_rows, g.n_nodes)
    return tape.linear(h, weights["head_refine.w"], weights["head_refine.b"])


def forward_tensors(
    tape: Tape,
    g: ViewGraph,
    init_rows: np.ndarray,
    weights: dict[str, Tensor],
    cfg: MpnnConfig = DEFAULT_CONFIG,
) -> Tensor:
    """Refined orientations as an (N, 4) tensor (not yet re-referenced)."""
    delta_raw = _corrections(tape, g, init_rows, weights, cfg)
    return tape.quat_compose(tape.quat_normalize(delta_raw), tape.constant(init_rows))


def refine_forward(
    g: ViewGraph,
    init: ArrayLike,
    store: ParamStore,
    root: int,
    cfg: MpnnConfig = DEFAULT_CONFIG,
) -> so3.Orientations:
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
    delta = _corrections(tape, g, init_rows, store.bind(tape), cfg).values
    pred_rows = so3._left_correct(delta, init_rows)
    return so3.Orientations(viewgraph.rereference(pred_rows, root))


def loss_from_pred(
    tape: Tape,
    pred: Tensor,
    g: ViewGraph,
    root: int,
    beta: float = BETA_DEFAULT,
) -> Tensor:
    """Consistency loss over edges plus the anchoring term over nodes.

    Edge term: degree-normalized quaternion distance between predicted and
    ground-truth relative orientations.  Node term: ``beta / deg(v)`` times
    the quaternion distance to the ground-truth absolute orientation.
    """
    if not g.has_full_gt:
        raise ViewGraphError("loss requires full ground truth")
    root = viewgraph.node_id(root, g.n_nodes, "root")
    if so3.qangle_deg(g.gt[root], _IDENTITY) > REFERENCE_TOL:
        raise ViewGraphError("ground truth is not referenced at the root; "
                             "re-reference before the loss")
    degrees = g.degree_array()

    u_idx, v_idx = g.endpoint_arrays()
    pred_u = tape.gather(pred, u_idx)
    pred_v = tape.gather(pred, v_idx)
    rel = tape.quat_normalize(tape.quat_compose(pred_v, tape.quat_conjugate(pred_u)))
    gt_rel = tape.constant(g.relative_gt_array())
    edge_w = tape.constant(viewgraph._degree_weights(g))
    edge_term = tape.sum(tape.mul(tape.quat_dist_loss(rel, gt_rel), edge_w))

    gt_abs = tape.constant(g.gt_array())
    node_d = tape.quat_dist_loss(tape.quat_normalize(pred), gt_abs)
    node_term = tape.sum(tape.mul(node_d, tape.constant(beta / degrees)))
    return tape.add(edge_term, node_term)


def refine_loss(
    pred: ArrayLike,
    g: ViewGraph,
    root: int,
    beta: float = BETA_DEFAULT,
) -> float:
    """Loss value for concrete (N, 4) predicted rows (evaluation path)."""
    tape = Tape(recording=False)
    rows = tape.constant(viewgraph.orientation_rows(g, pred))
    return float(loss_from_pred(tape, rows, g, root, beta).values)
