"""The message-passing round on generic tape primitives: the tests' oracle.

``rotavg.mpnn.forward`` is one tape operation with a hand-written pullback
over node-aligned runs of edges.  This module keeps the recording loop it
replaced: every round over all 2E directed edges at once, composed from
``OracleTape``'s primitives (``edge_linear``, ``scatter_mean``, ``relu`` and
``concat``, which have no caller in the package) and the tape's ``linear``
and ``gather``.  Its values and gradients are the reference the fused
operation is checked against; ``forward`` takes the same arguments as
``mpnn.forward`` and runs on any tape.
"""

from __future__ import annotations

import numpy as np

from rotavg.autodiff import AutodiffError, Tape, Tensor, _segment_sum, accumulate


class OracleTape(Tape):
    """A tape with the four primitives of the former recording loop."""

    def edge_linear(
        self, h: Tensor, dst: np.ndarray, src: np.ndarray, e: Tensor, w: Tensor, b: Tensor
    ) -> Tensor:
        """``concat([h[dst], h[src], e]) @ w + b`` without building the concat.

        With ``w`` split by rows into ``wd, ws, we`` (H, H and F rows), the
        result is ``(h @ wd + b)[dst] + (h @ ws)[src] + e @ we``: the first two
        products run over the N node rows and are then taken by edge.  The
        pullback sums the edge gradient into node rows first, so it too works
        on N rows except for ``e``.
        """
        dst = np.asarray(dst, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        if h.values.ndim != 2 or e.values.ndim != 2 or w.values.ndim != 2 or b.values.ndim != 1:
            raise AutodiffError("edge_linear expects h (n,H), e (m,F), w (2H+F,o), b (o,)")
        n, hid = h.shape
        m = e.shape[0]
        if dst.shape != (m,) or src.shape != (m,):
            raise AutodiffError(f"edge_linear expects dst and src of shape ({m},)")
        if w.shape[0] != 2 * hid + e.shape[1] or b.shape[0] != w.shape[1]:
            raise AutodiffError(
                f"edge_linear shape mismatch: h {h.shape}, e {e.shape}, w {w.shape}, b {b.shape}"
            )
        for index in (dst, src):
            if m and (index.min() < 0 or index.max() >= n):
                raise AutodiffError("edge_linear index out of range")
        wd, ws, we = w.values[:hid], w.values[hid:2 * hid], w.values[2 * hid:]
        node_d = h.values @ wd
        node_d += b.values
        out = np.take(node_d, dst, axis=0)
        out += np.take(h.values @ ws, src, axis=0)
        out += e.values @ we

        def pull(g):
            g_dst = _segment_sum(g, dst, n)
            g_src = _segment_sum(g, src, n)
            gh = g_dst @ wd.T
            gh += g_src @ ws.T
            accumulate(h, gh)
            accumulate(e, g @ we.T)
            accumulate(w, np.concatenate([h.values.T @ g_dst, h.values.T @ g_src, e.values.T @ g]))
            accumulate(b, g.sum(axis=0))

        return self.emit(Tensor(out), (h, e, w, b), pull)

    def relu(self, x: Tensor) -> Tensor:
        """``max(x, 0)`` in one pass.  The subgradient at 0 is 0.  NaN
        propagates: a NaN input gives a NaN output and a zero gradient."""
        out = np.maximum(x.values, 0.0)

        def pull(g):
            accumulate(x, np.where(out > 0.0, g, 0.0))

        return self.emit(Tensor(out), (x,), pull)

    def concat(self, xs: list[Tensor]) -> Tensor:
        """Column-wise concatenation of (n, d_i) tensors."""
        if not xs:
            raise AutodiffError("concat of an empty list")
        out = Tensor(np.concatenate([t.values for t in xs], axis=1))
        offsets = np.cumsum([0] + [t.values.shape[1] for t in xs])

        def pull(g):
            for t, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
                accumulate(t, g[:, lo:hi].copy())

        return self.emit(out, tuple(xs), pull)

    def gather(self, x: Tensor, index: np.ndarray) -> Tensor:
        index = np.asarray(index, dtype=np.int64)
        if x.values.ndim != 2 or index.ndim != 1:
            raise AutodiffError("gather expects x (n,d) and a 1-D index")
        if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
            raise AutodiffError("gather index out of range")
        out = Tensor(x.values[index])

        def pull(g):
            accumulate(x, _segment_sum(g, index, x.shape[0]))

        return self.emit(out, (x,), pull)

    def scatter_mean(self, src: Tensor, index: np.ndarray, n_rows: int) -> Tensor:
        index = np.asarray(index, dtype=np.int64)
        if src.values.ndim != 2 or index.ndim != 1 or index.shape[0] != src.shape[0]:
            raise AutodiffError("scatter_mean expects src (e,d) and index (e,)")
        if index.size and (index.min() < 0 or index.max() >= n_rows):
            raise AutodiffError("scatter_mean index out of range")
        counts = np.bincount(index, minlength=n_rows).astype(np.float64)
        sums = _segment_sum(src.values, index, n_rows)
        denom = np.maximum(counts, 1.0)  # rows with no incoming entries stay zero
        out = Tensor(sums / denom[:, None])

        def pull(g):
            accumulate(src, g[index] / denom[index, None])

        return self.emit(out, (src,), pull)


def forward(tape, weights, uv, edge_feats, node_init, n_nodes, heads=(), head_rows=0):
    """The former recording loop of ``mpnn.forward``, with its results; the
    sizes are read from the weights' shapes."""
    ops = OracleTape
    rounds = sum(name.endswith(".upd.w") for name in weights)
    hidden = weights["step0.upd.w"].shape[1]
    uv = np.asarray(uv, dtype=np.int64)
    src, dst = uv[:, 0], uv[:, 1]
    feats = tape.constant(edge_feats)
    if node_init is None:
        h = tape.constant(np.zeros((n_nodes, hidden)))
    else:
        pad = tape.constant(np.zeros((n_nodes, hidden - node_init.shape[1])))
        h = ops.concat(tape, [tape.constant(node_init), pad])
    for t in range(rounds):
        step = f"step{t}"
        x = ops.relu(tape, ops.edge_linear(
            tape, h, dst, src, feats, weights[f"{step}.msg1.w"], weights[f"{step}.msg1.b"]
        ))
        msgs = ops.relu(tape, tape.linear(x, weights[f"{step}.msg2.w"], weights[f"{step}.msg2.b"]))
        if heads and t == rounds - 1:
            rows = tape.gather(msgs, np.arange(head_rows))
            return [tape.linear(rows, w, b) for w, b in heads]
        x = ops.concat(tape, [h, ops.scatter_mean(tape, msgs, dst, n_nodes)])
        h = ops.relu(tape, tape.linear(x, weights[f"{step}.upd.w"], weights[f"{step}.upd.b"]))
    return h
