"""The networks on generic tape primitives: the tests' oracle.

In the package, the message-passing rounds (``rotavg.mpnn.forward``) run on
arrays and return a hand-written pullback, and each network's training
step (the rounds, then its loss) is one tape operation; ``Tape`` keeps only
``leaf``, ``emit`` and ``backward``.  ``OracleTape`` keeps the generic
primitives they replaced, none of which has a caller in the package, and
the compositions built from them:

- ``forward``, the former recording loop of the rounds: every round over
  all 2E directed edges at once, from ``edge_linear``, ``scatter_mean``,
  ``relu``, ``concat``, ``gather`` and ``linear``, on tensors.  It builds
  the directed edges and their features with its own ``directed``, and
  runs on any tape.  ``array_forward`` is the same loop with
  ``mpnn.forward``'s array signature, and ``taped_forward`` records
  ``mpnn.forward`` itself as one operation on a tape.
- ``OracleTape.clean_loss`` and ``OracleTape.refine_loss``, the former loss
  graphs over the heads' outputs, from the quaternion primitives
  (``quat_normalize``, ``quat_compose``, ``quat_conjugate``,
  ``quat_dist_loss``), ``bce_with_logits`` and the elementwise ones.
  FineNet's head is ``linear`` of the final node states.

Their values and gradients are the reference the fused operations are
checked against; the fused losses must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from rotavg import cleaning, mpnn, refinement, so3, viewgraph
from rotavg.autodiff import QUAT_NORM_FLOOR, AutodiffError, Tape, Tensor, _segment_sum, accumulate
from rotavg.viewgraph import ViewGraphError


class OracleTape(Tape):
    """A tape with the generic primitives the package's fused operations replaced."""

    def linear(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        if x.values.ndim != 2 or w.values.ndim != 2 or b.values.ndim != 1:
            raise AutodiffError("linear expects x (n,i), w (i,o), b (o,)")
        if x.shape[1] != w.shape[0] or b.shape[0] != w.shape[1]:
            raise AutodiffError(
                f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}"
            )
        out = x.values @ w.values
        out += b.values

        def pull(g):
            accumulate(x, g @ w.values.T)
            accumulate(w, x.values.T @ g)
            accumulate(b, g.sum(axis=0))

        return self.emit(Tensor(out), (x, w, b), pull)

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

    def constant(self, values) -> Tensor:
        return Tensor(np.asarray(values, dtype=np.float64), False)

    def gather(self, x: Tensor, index: np.ndarray) -> Tensor:
        index = np.asarray(index, dtype=np.int64)
        if x.values.ndim != 2 or index.ndim != 1:
            raise AutodiffError("gather expects x (n,d) and a 1-D index")
        if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
            raise AutodiffError("gather index out of range")
        out = Tensor(np.take(x.values, index, axis=0))

        def pull(g):
            accumulate(x, _segment_sum(g, index, x.shape[0]))

        return self.emit(out, (x,), pull)

    def quat_normalize(self, x: Tensor) -> Tensor:
        if x.values.ndim != 2 or x.shape[1] != 4:
            raise AutodiffError("quat_normalize expects rows of 4")
        norms = so3.rownorm(x.values, keepdims=True)
        if np.any(norms < QUAT_NORM_FLOOR):
            raise AutodiffError("quat_normalize: row norm below 1e-12")
        y = x.values / norms
        out = Tensor(y)

        def pull(g):
            # d(x/|x|) = (g - y (y.g)) / |x|
            proj = np.sum(y * g, axis=1, keepdims=True)
            accumulate(x, (g - y * proj) / norms)

        return self.emit(out, (x,), pull)

    def quat_compose(self, a: Tensor, b: Tensor) -> Tensor:
        self._check_quat_pair(a, b, "quat_compose")
        out = Tensor(so3.qmul(a.values, b.values))

        def pull(g):
            accumulate(a, so3.qmul(g, so3.qconj(b.values)))
            accumulate(b, so3.qmul(so3.qconj(a.values), g))

        return self.emit(out, (a, b), pull)

    def quat_conjugate(self, x: Tensor) -> Tensor:
        if x.values.ndim != 2 or x.shape[1] != 4:
            raise AutodiffError("quat_conjugate expects rows of 4")
        out = Tensor(so3.qconj(x.values))

        def pull(g):
            accumulate(x, so3.qconj(g))

        return self.emit(out, (x,), pull)

    def bce_with_logits(self, logits: Tensor, targets: Tensor) -> Tensor:
        if logits.shape != targets.shape or logits.values.ndim != 1:
            raise AutodiffError("bce_with_logits expects matching 1-D inputs")
        z = logits.values
        t = targets.values
        out = Tensor(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z))))

        def pull(g):
            sig = 1.0 / (1.0 + np.exp(-z))
            accumulate(logits, g * (sig - t))

        return self.emit(out, (logits, targets), pull)

    def quat_dist_loss(self, a: Tensor, b: Tensor) -> Tensor:
        """Per-row ``min(|a - b|, |a + b|)`` with the sign-flip branch taken
        deterministically at ties."""
        self._check_quat_pair(a, b, "quat_dist_loss")
        d_minus = a.values - b.values
        d_plus = a.values + b.values
        n_minus = so3.rownorm(d_minus)
        n_plus = so3.rownorm(d_plus)
        take_minus = n_minus < n_plus
        out = Tensor(np.where(take_minus, n_minus, n_plus))

        def pull(g):
            chosen = np.where(take_minus[:, None], d_minus, d_plus)
            norms = np.where(take_minus, n_minus, n_plus)
            safe = np.maximum(norms, QUAT_NORM_FLOOR)
            direction = np.where(
                (norms > QUAT_NORM_FLOOR)[:, None], chosen / safe[:, None], 0.0
            )
            accumulate(a, g[:, None] * direction)
            sign_b = np.where(take_minus, -1.0, 1.0)
            accumulate(b, (g * sign_b)[:, None] * direction)

        return self.emit(out, (a, b), pull)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise AutodiffError(f"add shape mismatch: {a.shape} vs {b.shape}")
        out = Tensor(a.values + b.values)

        def pull(g):
            accumulate(a, g.copy())
            accumulate(b, g.copy())

        return self.emit(out, (a, b), pull)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise AutodiffError(f"mul shape mismatch: {a.shape} vs {b.shape}")
        out = Tensor(a.values * b.values)

        def pull(g):
            accumulate(a, g * b.values)
            accumulate(b, g * a.values)

        return self.emit(out, (a, b), pull)

    def scale(self, x: Tensor, c: float) -> Tensor:
        c = float(c)
        out = Tensor(x.values * c)

        def pull(g):
            accumulate(x, g * c)

        return self.emit(out, (x,), pull)

    def sum(self, x: Tensor) -> Tensor:
        out = Tensor(np.asarray(x.values.sum()))

        def pull(g):
            accumulate(x, np.full_like(x.values, float(g)))

        return self.emit(out, (x,), pull)

    def mean(self, x: Tensor) -> Tensor:
        n = x.values.size
        if n == 0:
            raise AutodiffError("mean of an empty tensor")
        out = Tensor(np.asarray(x.values.mean()))

        def pull(g):
            accumulate(x, np.full_like(x.values, float(g) / n))

        return self.emit(out, (x,), pull)

    def reshape(self, x: Tensor, shape: tuple[int, ...]) -> Tensor:
        out = Tensor(x.values.reshape(shape))

        def pull(g):
            accumulate(x, g.reshape(x.values.shape).copy())

        return self.emit(out, (x,), pull)

    # -- the former loss compositions ----------------------------------

    def clean_loss(self, delta_raw: Tensor, logits: Tensor, g) -> Tensor:
        """CleanNet's loss from its heads' outputs, ``(E, 4)`` corrections and
        ``(E, 1)`` logits: the oracle of ``cleaning.clean_loss_graph``."""
        logits = self.reshape(logits, (g.n_edges,))
        rect = self.quat_normalize(self.quat_compose(delta_raw, self.constant(g.edge_quat_array())))
        if not g.has_full_gt:
            raise ViewGraphError("loss requires full ground truth")
        rel_gt = g.relative_gt_array()
        dists = self.quat_dist_loss(rect, self.constant(rel_gt))
        mre = self.sum(self.mul(dists, self.constant(viewgraph._degree_weights(g))))
        labels = self.constant(cleaning._outlier_labels(g, rel_gt))
        bce = self.mean(self.bce_with_logits(logits, labels))
        return self.add(mre, self.scale(bce, cleaning.BCE_WEIGHT))

    def refine_loss(self, delta_raw: Tensor, init_rows: np.ndarray, g, root: int) -> Tensor:
        """FineNet's loss from its head's ``(N, 4)`` corrections: with ``linear``
        as the head, the oracle of ``refinement.refine_loss_graph``."""
        pred = self.quat_compose(self.quat_normalize(delta_raw), self.constant(init_rows))
        if not g.has_full_gt:
            raise ViewGraphError("loss requires full ground truth")
        root = viewgraph.node_id(root, g.n_nodes, "root")
        if so3.qangle_deg(g.gt[root], refinement._IDENTITY) > refinement.REFERENCE_TOL:
            raise ViewGraphError("ground truth is not referenced at the root; "
                                 "re-reference before the loss")
        u_idx, v_idx = g.endpoint_arrays()
        pred_u = self.gather(pred, u_idx)
        pred_v = self.gather(pred, v_idx)
        rel = self.quat_normalize(self.quat_compose(pred_v, self.quat_conjugate(pred_u)))
        edge_w = self.constant(viewgraph._degree_weights(g))
        edge_d = self.quat_dist_loss(rel, self.constant(g.relative_gt_array()))
        edge_term = self.sum(self.mul(edge_d, edge_w))
        node_d = self.quat_dist_loss(self.quat_normalize(pred), self.constant(g.gt_array()))
        node_term = self.sum(self.mul(node_d, self.constant(refinement.BETA / g.degree_array())))
        return self.add(edge_term, node_term)

    @staticmethod
    def _check_quat_pair(a: Tensor, b: Tensor, name: str) -> None:
        if (
            a.values.ndim != 2
            or b.values.ndim != 2
            or a.shape[1] != 4
            or b.shape[1] != 4
            or a.shape[0] != b.shape[0]
        ):
            raise AutodiffError(f"{name} expects matching (n, 4) inputs")


def directed(g, feats):
    """The 2E directed edges of ``g`` as (source, target) rows, the stored
    directions ``(u, v)`` first and then their reverses ``(v, u)``, and
    their features ``[feats; conj(feats)]``: the reverse direction carries
    the inverse rotation."""
    u, v = g.endpoint_arrays()
    uv = np.concatenate([np.stack([u, v], axis=1), np.stack([v, u], axis=1)])
    return uv, np.concatenate([feats, so3.qconj(feats)])


def forward(tape, weights, g, edge_feats, node_init=None, heads=()):
    """The former recording loop of ``mpnn.forward``, over the directed
    edges of :func:`directed`, with its results; the sizes are read from the
    weights' shapes."""
    ops = OracleTape
    rounds = sum(name.endswith(".upd.w") for name in weights)
    hidden = weights["step0.upd.w"].shape[1]
    n_nodes = g.n_nodes
    uv, edge_feats = directed(g, np.asarray(edge_feats, dtype=np.float64))
    src, dst = uv[:, 0], uv[:, 1]
    feats = ops.constant(tape, edge_feats)
    if node_init is None:
        h = ops.constant(tape, np.zeros((n_nodes, hidden)))
    else:
        pad = ops.constant(tape, np.zeros((n_nodes, hidden - node_init.shape[1])))
        h = ops.concat(tape, [ops.constant(tape, node_init), pad])
    for t in range(rounds):
        step = f"step{t}"
        x = ops.relu(tape, ops.edge_linear(
            tape, h, dst, src, feats, weights[f"{step}.msg1.w"], weights[f"{step}.msg1.b"]
        ))
        msgs = ops.relu(tape, ops.linear(tape, x, weights[f"{step}.msg2.w"],
                                         weights[f"{step}.msg2.b"]))
        if heads and t == rounds - 1:
            rows = ops.gather(tape, msgs, np.arange(g.n_edges))
            return [ops.linear(tape, rows, w, b) for w, b in heads]
        x = ops.concat(tape, [h, ops.scatter_mean(tape, msgs, dst, n_nodes)])
        h = ops.relu(tape, ops.linear(tape, x, weights[f"{step}.upd.w"], weights[f"{step}.upd.b"]))
    return h


def array_forward(weights, g, edge_feats, node_init=None, heads=()):
    """:func:`forward` with the arrays in and out of ``mpnn.forward``:
    ``(outputs, pullback)``, the pullback returning the stack's gradients
    by name and a ``(w, b)`` pair per head.  The pullback runs the oracle
    tape backward from ``sum(output * gradient)`` over the outputs with a
    gradient, which hands each output its gradient exactly."""
    tape = OracleTape()
    stack = {name: tape.leaf(weights[name], requires_grad=True)
             for name in mpnn.weight_spec(mpnn.config_of(weights))}
    head_t = [(tape.leaf(w, requires_grad=True), tape.leaf(b, requires_grad=True))
              for w, b in heads]
    out = forward(tape, stack, g, edge_feats, node_init, head_t)
    outs = out if heads else [out]

    def pullback(*grads):
        terms = [tape.sum(tape.mul(o, tape.constant(grad)))
                 for o, grad in zip(outs, grads) if grad is not None]
        loss = terms[0]
        for term in terms[1:]:
            loss = tape.add(loss, term)
        tape.backward(loss)

        def grad_of(t):
            return np.zeros(t.shape) if t.grad is None else t.grad

        return ({name: grad_of(t) for name, t in stack.items()},
                [(grad_of(w), grad_of(b)) for w, b in head_t])

    return ([o.values for o in outs] if heads else out.values), pullback


def taped_forward(tape, weights, g, edge_feats, node_init=None, heads=()):
    """``mpnn.forward`` as one operation on ``tape``, over the tensors
    ``weights`` and ``heads``: the final node states, or the heads' outputs,
    as tensors whose pullback adds into the weights' and heads' gradients."""
    out, pullback = mpnn.forward({name: t.values for name, t in weights.items()}, g, edge_feats,
                                 node_init, [(w.values, b.values) for w, b in heads])
    outs = tuple(Tensor(o) for o in out) if heads else (Tensor(out),)

    def pull(*grads):
        g_stack, g_heads = pullback(*grads)
        for name, grad in g_stack.items():
            accumulate(weights[name], grad)
        for pair, grad_pair in zip(heads, g_heads):
            for t, grad in zip(pair, grad_pair):
                accumulate(t, grad)

    tape.emit(outs, tuple(weights.values()) + tuple(t for pair in heads for t in pair), pull)
    return list(outs) if heads else outs[0]
