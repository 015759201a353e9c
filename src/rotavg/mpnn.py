"""Shared message-passing core of the two graph networks.

Each round computes a message per directed edge ``u -> v`` from the target
state, the source state and the edge feature, aggregates incoming messages
per node by the mean, and updates node states:

    msg_{u->v} = relu(W2 @ relu(W1 @ [h_v, h_u, e_uv]))
    m_v        = mean over incoming directed edges
    h_v        = relu(Wg @ [h_v, m_v])

The first message layer runs factorised.  With ``W1`` split by columns into
``W1a, W1b, W1c`` (hidden, hidden and edge-feature columns),

    W1 @ [h_v, h_u, e_uv] = (W1a @ h_v) + (W1b @ h_u) + W1c @ e_uv

so the two hidden-state products run once per node and are then taken per
directed edge (``Tape.edge_linear``); the (2E, 2H+F) concatenation is never
built.

The message transform is a two-layer perceptron and the update a single
layer, with per-round (unshared) weights; this lands the two
networks plus their heads at ~43K parameters, inside the intended budget
while keeping serialized checkpoints under half a megabyte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import AutodiffError, ParamStore, Tape, Tensor


@dataclass(frozen=True)
class MpnnConfig:
    rounds: int = 4
    hidden_dim: int = 32
    msg_dim: int = 32
    edge_feat_dim: int = 4
    node_init_dim: int = 0  # 0: zero-initialized hidden states; 4: quaternion init

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        for name in ("hidden_dim", "msg_dim", "edge_feat_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.node_init_dim < 0 or self.node_init_dim > self.hidden_dim:
            raise ValueError("node_init_dim must lie in [0, hidden_dim]")


def weight_spec(cfg: MpnnConfig) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape map for the message-passing stack."""
    spec: dict[str, tuple[int, ...]] = {}
    in_msg = 2 * cfg.hidden_dim + cfg.edge_feat_dim
    for step in (f"step{t}" for t in range(cfg.rounds)):
        spec[f"{step}.msg1.w"] = (in_msg, cfg.msg_dim)
        spec[f"{step}.msg1.b"] = (cfg.msg_dim,)
        spec[f"{step}.msg2.w"] = (cfg.msg_dim, cfg.msg_dim)
        spec[f"{step}.msg2.b"] = (cfg.msg_dim,)
        spec[f"{step}.upd.w"] = (cfg.hidden_dim + cfg.msg_dim, cfg.hidden_dim)
        spec[f"{step}.upd.b"] = (cfg.hidden_dim,)
    return spec


def init_weights(cfg: MpnnConfig, rng: np.random.Generator, store: ParamStore) -> None:
    """He-initialize the message/update layers into ``store``."""
    for name, shape in weight_spec(cfg).items():
        if name.endswith(".b"):
            store.add(name, np.zeros(shape))
        else:
            fan_in = shape[0]
            store.add(name, rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))


def forward(
    tape: Tape,
    weights: dict[str, Tensor],
    cfg: MpnnConfig,
    uv: np.ndarray,
    edge_feats: Tensor,
    node_init: Tensor | None,
    n_nodes: int,
) -> tuple[Tensor, Tensor]:
    """Run the rounds; returns final node states and final-round messages.

    ``uv`` holds directed edges (source, target) and must already contain
    both directions of every measurement.  ``node_init`` rows, when given,
    are zero-padded up to the hidden width.  Nodes without incoming edges
    receive a zero aggregate.
    """
    uv = np.asarray(uv, dtype=np.int64)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise AutodiffError("uv must have shape (n_edges, 2)")
    if edge_feats.shape != (uv.shape[0], cfg.edge_feat_dim):
        raise AutodiffError(
            f"edge_feats shape {edge_feats.shape} does not match "
            f"({uv.shape[0]}, {cfg.edge_feat_dim})"
        )
    src = uv[:, 0]
    dst = uv[:, 1]

    if cfg.node_init_dim == 0:
        if node_init is not None:
            raise AutodiffError("node_init given but node_init_dim is 0")
        h = tape.constant(np.zeros((n_nodes, cfg.hidden_dim)))
    else:
        if node_init is None or node_init.shape != (n_nodes, cfg.node_init_dim):
            raise AutodiffError(
                f"node_init must have shape ({n_nodes}, {cfg.node_init_dim})"
            )
        pad = tape.constant(np.zeros((n_nodes, cfg.hidden_dim - cfg.node_init_dim)))
        h = tape.concat([node_init, pad])

    msgs = None
    for step in (f"step{t}" for t in range(cfg.rounds)):
        # one name for the (2E, .) chain: off the tape, each link is freed once used
        x = tape.relu(tape.edge_linear(
            h, dst, src, edge_feats, weights[f"{step}.msg1.w"], weights[f"{step}.msg1.b"]
        ))
        msgs = tape.relu(tape.linear(x, weights[f"{step}.msg2.w"], weights[f"{step}.msg2.b"]))
        x = tape.concat([h, tape.scatter_mean(msgs, dst, n_nodes)])
        h = tape.relu(tape.linear(x, weights[f"{step}.upd.w"], weights[f"{step}.upd.b"]))
    assert msgs is not None
    return h, msgs
