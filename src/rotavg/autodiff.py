"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The primitive set is exactly what the message-passing networks and their
losses need; there is no broadcasting beyond the bias add in ``linear``.
A :class:`Tape` records pullbacks in execution order and replays them once,
in reverse, from a scalar loss.  Everything is float64 and deterministic in
single-threaded use.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from . import so3

QUAT_NORM_FLOOR = 1e-12  # rows below this norm cannot be normalized


class AutodiffError(RuntimeError):
    """Misuse of the tape or a primitive (shape, index, consumed tape...)."""


class Tensor:
    """Array node on a tape.  ``grad`` is populated by ``Tape.backward``."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values: np.ndarray, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``.  The first gradient becomes ``t.grad``
    itself, so ``g`` must be a float64 array nothing else holds: a pullback
    that passes its own ``g`` or a view of it passes a copy."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


class Tape:
    """Ordered record of primitive applications.

    One backward pass per forward pass; a consumed tape raises on reuse.
    With ``recording=False`` the primitives run forward-only (inference).
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self._records: list = []  # (output, inputs, pullback) in topological order
        self._consumed = False

    # -- leaves --------------------------------------------------------

    def leaf(self, values, requires_grad: bool = False) -> Tensor:
        return Tensor(np.asarray(values, dtype=np.float64), requires_grad)

    def constant(self, values) -> Tensor:
        return Tensor(np.asarray(values, dtype=np.float64), False)

    def _emit(self, out: Tensor, inputs: tuple[Tensor, ...], pullback) -> Tensor:
        out.requires_grad = any(t.requires_grad for t in inputs)
        if self.recording and out.requires_grad:
            self._records.append((out, inputs, pullback))
        return out

    # -- primitives ----------------------------------------------------

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
            _accumulate(x, g @ w.values.T)
            _accumulate(w, x.values.T @ g)
            _accumulate(b, g.sum(axis=0))

        return self._emit(Tensor(out), (x, w, b), pull)

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
            _accumulate(h, gh)
            _accumulate(e, g @ we.T)
            _accumulate(w, np.concatenate([h.values.T @ g_dst, h.values.T @ g_src, e.values.T @ g]))
            _accumulate(b, g.sum(axis=0))

        return self._emit(Tensor(out), (h, e, w, b), pull)

    def relu(self, x: Tensor) -> Tensor:
        """``max(x, 0)`` in one pass.  The subgradient at 0 is 0.  NaN
        propagates: a NaN input gives a NaN output and a zero gradient."""
        out = np.maximum(x.values, 0.0)

        def pull(g):
            _accumulate(x, np.where(out > 0.0, g, 0.0))

        return self._emit(Tensor(out), (x,), pull)

    def concat(self, xs: list[Tensor]) -> Tensor:
        """Column-wise concatenation of (n, d_i) tensors."""
        if not xs:
            raise AutodiffError("concat of an empty list")
        out = Tensor(np.concatenate([t.values for t in xs], axis=1))
        offsets = np.cumsum([0] + [t.values.shape[1] for t in xs])

        def pull(g):
            for t, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
                _accumulate(t, g[:, lo:hi].copy())

        return self._emit(out, tuple(xs), pull)

    def gather(self, x: Tensor, index: np.ndarray) -> Tensor:
        index = np.asarray(index, dtype=np.int64)
        if x.values.ndim != 2 or index.ndim != 1:
            raise AutodiffError("gather expects x (n,d) and a 1-D index")
        if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
            raise AutodiffError("gather index out of range")
        out = Tensor(x.values[index])

        def pull(g):
            _accumulate(x, _segment_sum(g, index, x.shape[0]))

        return self._emit(out, (x,), pull)

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
            _accumulate(src, g[index] / denom[index, None])

        return self._emit(out, (src,), pull)

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
            _accumulate(x, (g - y * proj) / norms)

        return self._emit(out, (x,), pull)

    def quat_compose(self, a: Tensor, b: Tensor) -> Tensor:
        self._check_quat_pair(a, b, "quat_compose")
        out = Tensor(so3.qmul(a.values, b.values))

        def pull(g):
            _accumulate(a, so3.qmul(g, so3.qconj(b.values)))
            _accumulate(b, so3.qmul(so3.qconj(a.values), g))

        return self._emit(out, (a, b), pull)

    def quat_conjugate(self, x: Tensor) -> Tensor:
        if x.values.ndim != 2 or x.shape[1] != 4:
            raise AutodiffError("quat_conjugate expects rows of 4")
        out = Tensor(so3.qconj(x.values))

        def pull(g):
            _accumulate(x, so3.qconj(g))

        return self._emit(out, (x,), pull)

    def bce_with_logits(self, logits: Tensor, targets: Tensor) -> Tensor:
        if logits.shape != targets.shape or logits.values.ndim != 1:
            raise AutodiffError("bce_with_logits expects matching 1-D inputs")
        z = logits.values
        t = targets.values
        out = Tensor(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z))))

        def pull(g):
            sig = 1.0 / (1.0 + np.exp(-z))
            _accumulate(logits, g * (sig - t))

        return self._emit(out, (logits, targets), pull)

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
            _accumulate(a, g[:, None] * direction)
            sign_b = np.where(take_minus, -1.0, 1.0)
            _accumulate(b, (g * sign_b)[:, None] * direction)

        return self._emit(out, (a, b), pull)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise AutodiffError(f"add shape mismatch: {a.shape} vs {b.shape}")
        out = Tensor(a.values + b.values)

        def pull(g):
            _accumulate(a, g.copy())
            _accumulate(b, g.copy())

        return self._emit(out, (a, b), pull)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise AutodiffError(f"mul shape mismatch: {a.shape} vs {b.shape}")
        out = Tensor(a.values * b.values)

        def pull(g):
            _accumulate(a, g * b.values)
            _accumulate(b, g * a.values)

        return self._emit(out, (a, b), pull)

    def scale(self, x: Tensor, c: float) -> Tensor:
        c = float(c)
        out = Tensor(x.values * c)

        def pull(g):
            _accumulate(x, g * c)

        return self._emit(out, (x,), pull)

    def sum(self, x: Tensor) -> Tensor:
        out = Tensor(np.asarray(x.values.sum()))

        def pull(g):
            _accumulate(x, np.full_like(x.values, float(g)))

        return self._emit(out, (x,), pull)

    def mean(self, x: Tensor) -> Tensor:
        n = x.values.size
        if n == 0:
            raise AutodiffError("mean of an empty tensor")
        out = Tensor(np.asarray(x.values.mean()))

        def pull(g):
            _accumulate(x, np.full_like(x.values, float(g) / n))

        return self._emit(out, (x,), pull)

    def reshape(self, x: Tensor, shape: tuple[int, ...]) -> Tensor:
        out = Tensor(x.values.reshape(shape))

        def pull(g):
            _accumulate(x, g.reshape(x.values.shape).copy())

        return self._emit(out, (x,), pull)

    # -- backward ------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        if self._consumed:
            raise AutodiffError("tape already consumed by a previous backward pass")
        if loss.values.shape != ():
            raise AutodiffError(f"backward requires a scalar loss, got shape {loss.values.shape}")
        self._consumed = True
        loss.grad = np.asarray(1.0)
        for out, _inputs, pullback in reversed(self._records):
            if out.grad is None:
                continue
            pullback(out.grad)

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


def _segment_sum(rows: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum ``rows[i]`` into bucket ``index[i]`` of ``n_rows``: one flat
    ``np.bincount`` over ``index * d + column``, unsorted, in input order."""
    d = rows.shape[1]
    bins = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, rows.ravel(), n_rows * d).reshape(n_rows, d)


# ---------------------------------------------------------------------------
# Parameters and the optimizer
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameter arrays plus Adam moment buffers.

    ``bind`` creates per-step leaf tensors on a tape; after backward their
    gradients drive ``adam_step`` (decoupled weight decay), which also clears
    the binding.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0
        self._bound: dict[str, Tensor] | None = None

    def add(self, name: str, values: np.ndarray) -> None:
        if name in self.params:
            raise AutodiffError(f"duplicate parameter {name!r}")
        arr = np.array(values, dtype=np.float64)
        self.params[name] = arr
        self._m[name] = np.zeros_like(arr)
        self._v[name] = np.zeros_like(arr)

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        self._bound = {
            name: tape.leaf(arr, requires_grad=True) for name, arr in self.params.items()
        }
        return self._bound

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, arr in self.params.items():
            out.add(name, arr)
        return out

    def adam_step(
        self,
        lr: float,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if self._bound is None:
            raise AutodiffError("no bound tensors; run bind + backward before adam_step")
        if all(t.grad is None for t in self._bound.values()):
            raise AutodiffError("missing gradients: no backward pass reached any parameter")
        grads: dict[str, np.ndarray] = {}
        for name, tensor in self._bound.items():
            # parameters structurally unreached by the loss get a zero gradient
            grads[name] = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.values)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for name, g in grads.items():
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + eps)
            p = self.params[name]
            p -= lr * update
            if weight_decay:
                p -= lr * weight_decay * p
        self._bound = None  # gradients cleared with the binding


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "rotavg-ckpt-v1"


class CheckpointError(RuntimeError):
    """Unreadable or architecture-incompatible checkpoint."""


def save_checkpoint(store: ParamStore, path: str | Path) -> None:
    entries = []
    for name, arr in store.params.items():
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
            }
        )
    payload = {"format": CHECKPOINT_FORMAT, "params": entries}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path: str | Path, expected: dict[str, tuple[int, ...]]) -> ParamStore:
    """Load a checkpoint, validating names and shapes against ``expected``
    and that every value is finite."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        found = payload.get("format") if isinstance(payload, dict) else type(payload).__name__
        raise CheckpointError(f"unsupported checkpoint format {found!r}")
    params = payload.get("params", [])
    if not isinstance(params, list):
        raise CheckpointError(f"checkpoint params must be a list, got {type(params).__name__}")
    store = ParamStore()
    seen = set()
    for i, entry in enumerate(params):
        try:
            name, shape, data = entry["name"], tuple(entry["shape"]), entry["data"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"parameter entry {i} lacks name, shape or data: {exc}") from None
        if not isinstance(name, str) or name not in expected:
            raise CheckpointError(f"unexpected parameter {name!r}")
        if shape != expected[name]:
            raise CheckpointError(
                f"parameter {name!r} has shape {shape}, expected {expected[name]}"
            )
        try:
            arr = np.frombuffer(base64.b64decode(data), dtype="<f8").reshape(shape)
        except (ValueError, TypeError) as exc:  # binascii.Error is a ValueError
            raise CheckpointError(f"parameter {name!r} has malformed data: {exc}") from None
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"parameter {name!r} has non-finite values")
        store.add(name, arr)
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {sorted(missing)}")
    return store
