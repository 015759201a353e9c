"""Shared message-passing core of the two graph networks: the edge-network
MPNN of Gilmer et al. (*Neural Message Passing for Quantum Chemistry*, ICML
2017) on the undirected view-graph.  Each stored edge ``u -> v`` carries a
relative rotation as its feature, and ``v -> u`` its conjugate, the inverse.

Each round computes a message per directed edge ``u -> v`` from the target
state, the source state and the edge feature, aggregates incoming messages
per node by the mean, and updates node states:

    msg_{u->v} = relu(W2 @ relu(W1 @ [h_v, h_u, e_uv]))
    m_v        = mean over incoming directed edges
    h_v        = relu(Wg @ [h_v, m_v])

The first message layer runs factorised: with ``W1`` split by columns into
hidden, hidden and edge-feature parts, ``W1 @ [h_v, h_u, e_uv] = (W1a @ h_v)
+ (W1b @ h_u) + W1c @ e_uv``, so the two hidden-state products run once per
node and are then taken per directed edge.

``forward`` works on arrays and knows no tape: it returns its outputs and
their pullback, the one implementation for training and inference.  It
reads the 2E directed edges sorted by target (``viewgraph.in_edges``) once
and cuts them into runs of whole target nodes of at most ``CHUNK_ROWS``
rows, so that one ``np.add.reduceat`` per run forms each node's sum in one
place.  No (2E, M) array is built: memory is O(rounds*N*(H+M) +
CHUNK_ROWS*M).  With heads (CleanNet's per-edge outputs) the final round
computes the messages of the stored directions only and skips the node
update.

The call keeps each round's node states and aggregates; its pullback walks
the rounds backward and recomputes each run's message layers from them (the
recompute-in-backward trade of Chen et al., *Training Deep Nets with
Sublinear Memory Cost*, 2016).  It sums edge gradients into target rows with
the same ``reduceat`` runs (the CSR segment reduction of PyTorch Geometric)
and into source rows with one ``autodiff._segment_sum`` per run over all N
rows; the heads' round sums both ends so.  A network's training step
composes that pullback with its loss's into the one pullback of its
``autodiff.Tape``; inference drops it.  The tests keep the former loop of
generic tape primitives as the oracle.

Per-round (unshared) weights land the two networks plus their heads at ~43K
parameters, with serialized checkpoints under half a megabyte.  The sizes
are read from the weights (``config_of``); only ``weight_spec`` and
``init_weights``, which make the arrays, take an :class:`MpnnConfig`.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import so3, viewgraph
from .autodiff import AutodiffError, ParamStore, _segment_sum

CHUNK_ROWS = 1024  # directed edges per run of a round
EDGE_FEAT_DIM = 4  # an edge feature is a rotation quaternion (w, x, y, z)


@dataclass(frozen=True)
class MpnnConfig:
    rounds: int = 4
    hidden_dim: int = 32
    msg_dim: int = 32

    def __post_init__(self):
        for name in ("rounds", "hidden_dim", "msg_dim"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be positive")


def weight_spec(cfg: MpnnConfig) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape map for the message-passing stack."""
    spec: dict[str, tuple[int, ...]] = {}
    in_msg = 2 * cfg.hidden_dim + EDGE_FEAT_DIM
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


def config_of(weights: Mapping[str, np.ndarray]) -> MpnnConfig:
    """The sizes of the stack in ``weights`` (:func:`_sizes`); raises
    :class:`AutodiffError` naming the first weight that does not fit them."""
    cfg = _sizes(weights)
    check_weights(weights, weight_spec(cfg))
    return cfg


def _sizes(weights: Mapping[str, np.ndarray]) -> MpnnConfig:
    """A round per ``step{t}.upd.w``, H its columns and M the rows of ``msg2.w``
    (``msg1.w`` has 2H + ``EDGE_FEAT_DIM``), checking only these three of
    round 0: a network sizes its heads with it, before ``forward``."""
    for name in ("step0.upd.w", "step0.msg2.w", "step0.msg1.w"):
        if name not in weights:
            raise AutodiffError(f"weight {name!r} is missing")
        if weights[name].ndim != 2 or weights[name].size == 0:
            raise AutodiffError(f"weight {name!r} has shape {weights[name].shape}, not a matrix")
    hid = weights["step0.upd.w"].shape[1]
    msg, in_msg = weights["step0.msg2.w"].shape[0], weights["step0.msg1.w"].shape[0]
    if in_msg != 2 * hid + EDGE_FEAT_DIM:
        raise AutodiffError(f"weight 'step0.msg1.w' has {in_msg} rows, not 2H + {EDGE_FEAT_DIM}")
    return MpnnConfig(sum(k.startswith("step") and k.endswith(".upd.w") for k in weights), hid, msg)


def forward(
    weights: Mapping[str, np.ndarray],
    g: viewgraph.ViewGraph,
    edge_feats: np.ndarray,
    node_init: np.ndarray | None = None,
    heads: Sequence[tuple[np.ndarray, np.ndarray]] = (),
) -> tuple:
    """Run the rounds over ``g``: ``(outputs, pullback)``.

    ``edge_feats`` holds a quaternion row per stored edge ``u -> v`` of ``g``
    (``v -> u`` gets its conjugate).  ``node_init`` rows, when given, are
    zero-padded up to the hidden width of ``weights`` (:func:`config_of`).
    Nodes without incoming edges receive a zero aggregate.

    Without ``heads`` the outputs are the (N, H) final node states.
    ``heads`` are linear layers ``(w, b)`` on the final-round messages of
    the stored directions; with heads the outputs are the list of their
    (E, ...) arrays, in edge order.  ``pullback(*grads)`` takes a gradient
    per output (``None`` where none reached it) and returns the gradients
    of the weights and heads only: a name -> array map in ``weight_spec``
    order, and a ``(w, b)`` pair per head.
    """
    feats = np.asarray(edge_feats, dtype=np.float64)
    init = None if node_init is None else np.asarray(node_init, dtype=np.float64)
    cfg = config_of(weights)  # every input is checked before any work
    if feats.shape != (g.n_edges, EDGE_FEAT_DIM):
        raise AutodiffError(f"edge_feats shape {feats.shape} != ({g.n_edges}, {EDGE_FEAT_DIM})")
    if init is not None and (init.ndim != 2 or init.shape[0] != g.n_nodes
                             or not 1 <= init.shape[1] <= cfg.hidden_dim):
        raise AutodiffError(f"node_init shape {init.shape} != ({g.n_nodes}, 1..{cfg.hidden_dim})")
    for hw, hb in heads:
        if hw.ndim != 2 or hw.shape[0] != cfg.msg_dim or hb.shape != (hw.shape[1],):
            raise AutodiffError(f"head shapes w {hw.shape}, b {hb.shape} do not fit messages "
                                f"of width {cfg.msg_dim}")
    w = {name: weights[name] for name in weight_spec(cfg)}
    runs = _EdgeRuns.build(g, feats)
    states: list[np.ndarray] = []
    out = _rounds(w, cfg.rounds, runs, init, heads, states)
    return out, lambda *grads: _pullback(w, cfg.rounds, runs, states, heads, grads)


def check_weights(weights: Mapping[str, np.ndarray], spec: dict[str, tuple[int, ...]]) -> None:
    """An :class:`AutodiffError` naming the first weight of ``spec`` that
    ``weights`` lacks or holds in another shape.  Before a network reads a
    weight, it checks its heads' spec and ``forward`` the stack's."""
    for name, shape in spec.items():
        if name not in weights:
            raise AutodiffError(f"weight {name!r} is missing")
        if weights[name].shape != shape:
            raise AutodiffError(f"weight {name!r} has shape {weights[name].shape}, expected {shape}")


@dataclass(frozen=True)
class _EdgeRuns:
    """The E stored directions, cut into the heads' ``chunks``; and all 2E,
    in ``viewgraph.in_edges``' order (by target, then source), cut into
    ``runs`` of whole target nodes of at most ``CHUNK_ROWS`` rows unless one
    has more."""

    src: np.ndarray      # the stored directions, the graph's own arrays
    dst: np.ndarray
    feats: np.ndarray
    s_src: np.ndarray
    s_dst: np.ndarray
    s_feats: np.ndarray
    targets: np.ndarray  # nodes with in-edges, ascending
    denom: np.ndarray    # (N, 1) in-degree, 1 without in-edges
    runs: list           # (first row, end row, first target, end target, segment starts)
    chunks: list         # (first row, end row)
    rows: int            # of the largest run or chunk

    @classmethod
    def build(cls, g: viewgraph.ViewGraph, feats: np.ndarray) -> "_EdgeRuns":
        u, v = g.endpoint_arrays()
        order, s_src, bounds = viewgraph.in_edges(g.n_nodes, u, v)
        counts = np.diff(bounds)
        targets = np.flatnonzero(counts)
        starts, ends = bounds[targets], bounds[targets + 1]
        runs = []
        k = 0
        while k < targets.size:
            k_end = max(k + 1, int(np.searchsorted(ends, starts[k] + CHUNK_ROWS, side="right")))
            runs.append((int(starts[k]), int(ends[k_end - 1]), k, k_end,
                         starts[k:k_end] - starts[k]))
            k = k_end
        chunks = [(a, min(a + CHUNK_ROWS, u.size)) for a in range(0, u.size, CHUNK_ROWS)]
        rows = max([end - a for a, end, *_ in runs + chunks] + [0])
        s_feats = np.concatenate([feats, so3.qconj(feats)]).take(order, axis=0)
        s_dst = np.repeat(np.arange(g.n_nodes), counts)
        return cls(u, v, feats, s_src, s_dst, s_feats, targets,
                   np.maximum(counts, 1).astype(np.float64)[:, None], runs, chunks, rows)


def _round(w: dict[str, np.ndarray], t: int, h: np.ndarray) -> tuple:
    """Round ``t``'s weights (the first message layer's target, source and
    edge-feature rows and bias, the second layer's, the update layer's) and
    the first layer's node products of the states ``h``, bias in the target
    one."""
    hid = h.shape[1]
    w1 = w[f"step{t}.msg1.w"]
    wt = (w1[:hid], w1[hid:2 * hid], w1[2 * hid:],
          *(w[f"step{t}.{name}"] for name in ("msg1.b", "msg2.w", "msg2.b", "upd.w", "upd.b")))
    node_d = h @ wt[0]
    node_d += wt[3]
    return wt, node_d, h @ wt[1]


def _rounds(w, rounds, runs, init, heads, states):
    """The forward: final node states, or the heads' outputs.  Appends each
    update's input ``[h, agg]`` to ``states``, then the last node states."""
    hid, msg = w["step0.upd.w"].shape[1], w["step0.msg2.w"].shape[0]
    n_nodes = runs.denom.shape[0]
    bufs = np.empty((3, runs.rows * msg))
    sums = np.empty((msg, runs.targets.size))  # transposed, as the messages
    h = np.zeros((n_nodes, hid))
    if init is not None:
        h[:, :init.shape[1]] = init
    for t in range(rounds):
        wt, node_d, node_s = _round(w, t, h)
        if heads and t == rounds - 1:
            break
        for a, end, k, k_end, seg in runs.runs:
            msgs = _messages(node_d, node_s, runs.s_dst[a:end], runs.s_src[a:end],
                             runs.s_feats[a:end], wt, bufs)
            np.add.reduceat(msgs, seg, axis=1, out=sums[:, k:k_end])
        x = np.zeros((n_nodes, hid + msg))  # nodes without in-edges: zero aggregate
        x[:, :hid] = h
        x[runs.targets, hid:] = sums.T / runs.denom[runs.targets]
        states.append(x)
        h = x @ wt[6]
        h += wt[7]
        np.maximum(h, 0.0, out=h)
    states.append(h)
    if not heads:
        return h
    outs = [np.empty((runs.src.size, hw.shape[1])) for hw, _ in heads]
    for a, end in runs.chunks:
        msgs = _messages(node_d, node_s, runs.dst[a:end], runs.src[a:end], runs.feats[a:end],
                         wt, bufs)
        for out, (hw, hb) in zip(outs, heads):
            np.matmul(msgs.T, hw, out=out[a:end])
            out[a:end] += hb
    return outs


def _messages(node_d, node_s, dst, src, feats, wt, bufs) -> np.ndarray:
    """Both message layers for one run of directed edges, in the leading
    cells of the flat buffers ``bufs``: the first layer's output, (rows, M),
    stays in the first; the messages are returned as (M, rows), a view of
    the third, so that ``reduceat`` sums each node along the contiguous
    axis (three times faster than across rows at degree 98)."""
    we, w2, b2 = wt[2], wt[4], wt[5]
    rows, width = dst.size, we.shape[1]
    x, y = (buf[:rows * width].reshape(rows, width) for buf in bufs[:2])
    out = bufs[2, :rows * width].reshape(width, rows)
    # a ViewGraph's endpoints lie in [0, N), so "clip" never clips
    np.take(node_d, dst, axis=0, out=x, mode="clip")
    np.take(node_s, src, axis=0, out=y, mode="clip")
    x += y
    np.matmul(feats, we, out=y)
    x += y
    np.maximum(x, 0.0, out=x)
    np.matmul(w2.T, x.T, out=out)
    out += b2[:, None]
    np.maximum(out, 0.0, out=out)
    return out


def _pullback(w, rounds, runs, states, heads, grads):
    """Gradients of the weights, by name in ``w``'s order, and of each
    head's ``w`` and ``b``, from the outputs' gradients ``grads`` (``None``
    where an output has none).  Sources get one ``_segment_sum`` per run over all N rows."""
    hid, msg = w["step0.upd.w"].shape[1], w["step0.msg2.w"].shape[0]
    n_nodes = runs.denom.shape[0]
    g_w = {name: np.zeros(a.shape) for name, a in w.items()}
    g_heads = [(np.zeros_like(hw), np.zeros_like(hb)) for hw, hb in heads]
    bufs = np.empty((3, runs.rows * msg))
    sums = np.empty((runs.targets.size, msg))
    g_h = None if heads else grads[0]
    for t in reversed(range(rounds)):
        h = states[t][:, :hid]
        wt, node_d, node_s = _round(w, t, h)
        g_d, g_s = np.zeros((n_nodes, msg)), np.zeros((n_nodes, msg))
        if g_h is None:  # the heads' round, on the stored directions in edge order
            for a, end in runs.chunks:
                dst, src, feats = runs.dst[a:end], runs.src[a:end], runs.feats[a:end]
                msgs = _messages(node_d, node_s, dst, src, feats, wt, bufs)
                g_msgs = bufs[1, :msgs.size].reshape(msgs.shape)
                g_msgs.fill(0.0)
                for (hw, _), g_out, (g_hw, g_hb) in zip(heads, grads, g_heads):
                    if g_out is not None:
                        g_msgs += hw @ g_out[a:end].T
                        g_hw += msgs @ g_out[a:end]
                        g_hb += g_out[a:end].sum(axis=0)
                d1 = _message_pullback(feats, wt, bufs, g_w, t)
                g_d += _segment_sum(d1, dst, n_nodes)
                g_s += _segment_sum(d1, src, n_nodes)
            g_h = 0.0  # the heads' round has no node update
        else:
            g_up = g_h * (states[t + 1][:, :hid] > 0.0)
            g_w[f"step{t}.upd.w"] += states[t].T @ g_up
            g_w[f"step{t}.upd.b"] += g_up.sum(axis=0)
            g_x = g_up @ wt[6].T
            g_sum = np.ascontiguousarray((g_x[:, hid:] / runs.denom).T)  # (M, N), as messages
            for a, end, k, k_end, seg in runs.runs:
                dst, src, feats = runs.s_dst[a:end], runs.s_src[a:end], runs.s_feats[a:end]
                msgs = _messages(node_d, node_s, dst, src, feats, wt, bufs)
                np.take(g_sum, dst, axis=1, out=bufs[1, :msgs.size].reshape(msgs.shape),
                        mode="clip")
                d1 = _message_pullback(feats, wt, bufs, g_w, t)
                np.add.reduceat(d1, seg, axis=0, out=sums[k:k_end])
                g_s += _segment_sum(d1, src, n_nodes)
            g_d[runs.targets] = sums
            g_h = g_x[:, :hid]
        # the node rows and bias of the first message layer; each edge has one target
        g_w[f"step{t}.msg1.w"][:hid] += h.T @ g_d
        g_w[f"step{t}.msg1.w"][hid:2 * hid] += h.T @ g_s
        g_w[f"step{t}.msg1.b"] += g_d.sum(axis=0)
        g_h = g_h + g_d @ wt[0].T + g_s @ wt[1].T
    return g_w, g_heads


def _message_pullback(feats, wt, bufs, g_w, t) -> np.ndarray:
    """Back through a run's message layers, after ``_messages`` filled
    ``bufs[0]`` and ``bufs[2]`` and the caller put the messages' gradient,
    (M, rows), in ``bufs[1]``.  Adds the second layer's and the
    edge-feature rows' weight gradients into ``g_w``; returns the first
    layer's pre-activation gradient, (rows, M), in the third buffer."""
    w2 = wt[4]
    rows, width = feats.shape[0], w2.shape[0]
    x = bufs[0, :rows * width].reshape(rows, width)
    g2 = bufs[1, :rows * width].reshape(width, rows)
    g2 *= bufs[2, :rows * width].reshape(width, rows) > 0.0  # the messages' relu
    g_w[f"step{t}.msg2.w"] += x.T @ g2.T
    g_w[f"step{t}.msg2.b"] += g2.sum(axis=1)
    d1 = bufs[2, :rows * width].reshape(rows, width)
    np.matmul(g2.T, w2.T, out=d1)
    d1 *= x > 0.0
    g_w[f"step{t}.msg1.w"][-feats.shape[1]:] += feats.T @ d1
    return d1
