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

Two paths evaluate these rounds.  On a recording tape (training) each
round runs on all 2E directed edges at once through the tape's primitives;
that path is also the test oracle of the other.  On a non-recording tape
(inference, validation losses) ``_inference_rounds`` runs the same
operations on arrays over runs of edges, and never builds a (2E, M) array:
peak memory per round is O(N*H + CHUNK_ROWS*M), not O(E*M).  The edges
are sorted by target once per forward and cut into runs of whole target
nodes.  Because no node straddles two runs, one ``np.add.reduceat`` per
run forms each node's sum in one place; runs cut anywhere would leave
partial sums to scatter-add across runs.  That path also computes only what
the caller reads: with heads (CleanNet's per-edge outputs) the final round
computes the messages of the head rows only, applies the heads run by run
and skips the node update; without heads (FineNet's node states) the final
round keeps no messages.

The message transform is a two-layer perceptron and the update a single
layer, with per-round (unshared) weights; this lands the two
networks plus their heads at ~43K parameters, inside the intended budget
while keeping serialized checkpoints under half a megabyte.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import AutodiffError, ParamStore, Tape, Tensor

CHUNK_ROWS = 1024  # directed edges per run of an inference round


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
    heads: Sequence[tuple[Tensor, Tensor]] = (),
    head_rows: int = 0,
) -> Tensor | list[Tensor]:
    """Run the rounds; returns the final node states, or the heads' outputs.

    ``uv`` holds directed edges (source, target) and must already contain
    both directions of every measurement.  ``node_init`` rows, when given,
    are zero-padded up to the hidden width.  Nodes without incoming edges
    receive a zero aggregate.

    Without ``heads`` the result is the (N, H) tensor of final node states.
    ``heads`` are linear layers ``(w, b)`` on the final-round messages of the
    first ``head_rows`` directed edges; with heads the result is the list of
    their outputs, and the final node update, which nothing reads, is
    skipped.  A recording tape runs the rounds on the tape's primitives; a
    non-recording one runs them on arrays, over runs of edges
    (``_inference_rounds``).
    """
    uv = np.asarray(uv, dtype=np.int64)
    _check_inputs(weights, cfg, uv, edge_feats, node_init, n_nodes, heads, head_rows)
    if not tape.recording:
        out = _inference_rounds(
            {name: t.values for name, t in weights.items()}, cfg, uv, edge_feats.values,
            None if node_init is None else node_init.values, n_nodes,
            [(w.values, b.values) for w, b in heads], head_rows,
        )
        return [tape.constant(o) for o in out] if heads else tape.constant(out)

    src = uv[:, 0]
    dst = uv[:, 1]
    if node_init is None:
        h = tape.constant(np.zeros((n_nodes, cfg.hidden_dim)))
    else:
        pad = tape.constant(np.zeros((n_nodes, cfg.hidden_dim - cfg.node_init_dim)))
        h = tape.concat([node_init, pad])
    for t in range(cfg.rounds):
        step = f"step{t}"
        x = tape.relu(tape.edge_linear(
            h, dst, src, edge_feats, weights[f"{step}.msg1.w"], weights[f"{step}.msg1.b"]
        ))
        msgs = tape.relu(tape.linear(x, weights[f"{step}.msg2.w"], weights[f"{step}.msg2.b"]))
        if heads and t == cfg.rounds - 1:
            rows = tape.gather(msgs, np.arange(head_rows))
            return [tape.linear(rows, w, b) for w, b in heads]
        x = tape.concat([h, tape.scatter_mean(msgs, dst, n_nodes)])
        h = tape.relu(tape.linear(x, weights[f"{step}.upd.w"], weights[f"{step}.upd.b"]))
    return h


def _check_inputs(weights, cfg, uv, edge_feats, node_init, n_nodes, heads, head_rows) -> None:
    """Every check of ``forward``'s inputs, once, before any work."""
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise AutodiffError("uv must have shape (n_edges, 2)")
    n_edges = uv.shape[0]
    if edge_feats.shape != (n_edges, cfg.edge_feat_dim):
        raise AutodiffError(
            f"edge_feats shape {edge_feats.shape} does not match "
            f"({n_edges}, {cfg.edge_feat_dim})"
        )
    # np.take, which the inference rounds use, would wrap a negative index
    if n_edges and (uv.min() < 0 or uv.max() >= n_nodes):
        raise AutodiffError(f"edge endpoint out of range [0, {n_nodes})")
    if cfg.node_init_dim == 0:
        if node_init is not None:
            raise AutodiffError("node_init given but node_init_dim is 0")
    elif node_init is None or node_init.shape != (n_nodes, cfg.node_init_dim):
        raise AutodiffError(f"node_init must have shape ({n_nodes}, {cfg.node_init_dim})")
    for name, shape in weight_spec(cfg).items():
        if weights[name].shape != shape:
            raise AutodiffError(f"weight {name!r} has shape {weights[name].shape}, expected {shape}")
    for w, b in heads:
        if w.values.ndim != 2 or w.shape[0] != cfg.msg_dim or b.shape != (w.shape[1],):
            raise AutodiffError(
                f"head shapes w {w.shape}, b {b.shape} do not fit messages of width {cfg.msg_dim}"
            )
    if heads and not 0 <= head_rows <= n_edges:
        raise AutodiffError(f"head_rows {head_rows} outside [0, {n_edges}]")


def _inference_rounds(
    w: dict[str, np.ndarray],
    cfg: MpnnConfig,
    uv: np.ndarray,
    feats: np.ndarray,
    init: np.ndarray | None,
    n_nodes: int,
    heads: list[tuple[np.ndarray, np.ndarray]],
    head_rows: int,
) -> np.ndarray | list[np.ndarray]:
    """``forward`` on arrays, for a non-recording tape: the same operations,
    over runs of directed edges.  Results agree with the tape path to
    rounding: ``reduceat`` sums a segment pairwise where ``scatter_mean``'s
    ``bincount`` sums in edge order.

    The edges are sorted by target once (stably, so each node keeps its
    edges' order) and cut into runs of whole target nodes, each at most
    ``CHUNK_ROWS`` rows unless one node alone has more in-edges.  A run's two
    message layers run in buffers allocated once per forward, and one
    ``np.add.reduceat`` sums the run into its own nodes' aggregate rows.
    Because no node straddles two runs, each sum is formed in one place and
    needs no second pass.  The final round of a heads call computes the
    messages of the first ``head_rows`` edges only, in their given order,
    and applies the heads run by run.
    """
    hid = cfg.hidden_dim
    src, dst = uv[:, 0], uv[:, 1]
    order = np.argsort(dst, kind="stable")
    s_src, s_dst, s_feats = src[order], dst[order], feats[order]
    del order
    counts = np.bincount(dst, minlength=n_nodes)
    targets = np.flatnonzero(counts)
    ends = np.cumsum(counts[targets])
    starts = ends - counts[targets]
    runs = []  # (first row, end row, first target, end target, segment starts in the run)
    k = 0
    while k < targets.size:
        k_end = max(k + 1, int(np.searchsorted(ends, starts[k] + CHUNK_ROWS, side="right")))
        runs.append((int(starts[k]), int(ends[k_end - 1]), k, k_end, starts[k:k_end] - starts[k]))
        k = k_end
    rows = max([end - a for a, end, *_ in runs] + [min(CHUNK_ROWS, head_rows)])
    bufs = np.empty((3, rows * cfg.msg_dim))
    sums = np.empty((cfg.msg_dim, targets.size))  # transposed, as the messages
    denom = counts[targets, None].astype(np.float64)
    agg = np.zeros((n_nodes, cfg.msg_dim))  # rows of nodes without in-edges stay zero

    h = np.zeros((n_nodes, hid))
    if init is not None:
        h[:, :cfg.node_init_dim] = init
    for t in range(cfg.rounds):
        step = f"step{t}"
        w1 = w[f"{step}.msg1.w"]
        layers = (w1[2 * hid:], w[f"{step}.msg2.w"], w[f"{step}.msg2.b"][:, None])
        node_d = h @ w1[:hid]
        node_d += w[f"{step}.msg1.b"]
        node_s = h @ w1[hid:2 * hid]
        if heads and t == cfg.rounds - 1:
            outs = [np.empty((head_rows, hw.shape[1])) for hw, _ in heads]
            for a in range(0, head_rows, CHUNK_ROWS):
                end = min(a + CHUNK_ROWS, head_rows)
                msgs = _messages(node_d, node_s, dst[a:end], src[a:end], feats[a:end], layers, bufs)
                for out, (hw, hb) in zip(outs, heads):
                    np.matmul(msgs.T, hw, out=out[a:end])
                    out[a:end] += hb
            return outs
        for a, end, k, k_end, seg in runs:
            msgs = _messages(node_d, node_s, s_dst[a:end], s_src[a:end], s_feats[a:end], layers, bufs)
            np.add.reduceat(msgs, seg, axis=1, out=sums[:, k:k_end])
        agg[targets] = sums.T / denom
        h = np.concatenate([h, agg], axis=1) @ w[f"{step}.upd.w"]
        h += w[f"{step}.upd.b"]
        np.maximum(h, 0.0, out=h)
    return h


def _messages(node_d, node_s, dst, src, feats, layers, bufs) -> np.ndarray:
    """Both message layers for one run of directed edges, in the leading
    cells of the three flat buffers ``bufs``; returns the messages
    transposed, (M, rows), a view of the third buffer.

    ``node_d`` (bias included) and ``node_s`` are the first layer's node
    products, taken by edge as ``Tape.edge_linear`` takes them.  The second
    layer writes its output transposed, the same dot products with the
    operands' roles swapped, so that ``reduceat`` sums each node along the
    contiguous axis: about three times faster than across rows at degree
    98."""
    we, w2, b2 = layers
    rows, width = dst.size, we.shape[1]
    x, y = (buf[:rows * width].reshape(rows, width) for buf in bufs[:2])
    out = bufs[2, :rows * width].reshape(width, rows)
    # the endpoints were range-checked once per forward, so "clip" never clips
    np.take(node_d, dst, axis=0, out=x, mode="clip")
    np.take(node_s, src, axis=0, out=y, mode="clip")
    x += y
    np.matmul(feats, we, out=y)
    x += y
    np.maximum(x, 0.0, out=x)
    np.matmul(w2.T, x.T, out=out)
    out += b2
    np.maximum(out, 0.0, out=out)
    return out
