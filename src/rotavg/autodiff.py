"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records pullbacks in execution order and replays them once,
in reverse, from a scalar loss.  It has no primitives: a network's training
step is one ``Tape.emit`` record whose pullback composes its loss's with
the message passing's (``mpnn.forward``, on arrays); inference has no tape.
The losses share the row kernels ``unit_rows`` and ``quat_dist``, which
return a value and its pullback; the tests keep the former generic
primitives as an oracle tape.  Everything is float64 and deterministic in
single-threaded use.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from . import so3

QUAT_NORM_FLOOR = 1e-12  # rows below this norm cannot be normalized
ADAM_BETA1 = 0.9         # decay of Adam's first-moment estimate
ADAM_BETA2 = 0.999       # decay of Adam's second-moment estimate
ADAM_EPS = 1e-8          # added to the root of the second moment


class AutodiffError(RuntimeError):
    """Misuse of the tape or an operation (shape, index, consumed tape...)."""


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


def accumulate(t: Tensor, g: np.ndarray) -> None:
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
    """Ordered record of operations: one backward pass per forward pass, and
    a consumed tape raises on reuse."""

    def __init__(self):
        self._records: list = []  # (outputs, pullback) in topological order
        self._consumed = False

    # -- leaves --------------------------------------------------------

    def leaf(self, values, requires_grad: bool = False) -> Tensor:
        return Tensor(np.asarray(values, dtype=np.float64), requires_grad)

    def emit(self, out, inputs: tuple[Tensor, ...], pullback):
        """Record ``out``, a tensor or a tuple of tensors, made from ``inputs``.
        ``pullback`` gets each output's gradient (``None`` where none reached
        it) and adds into its inputs' gradients with ``accumulate``."""
        outs = out if isinstance(out, tuple) else (out,)
        requires_grad = any(t.requires_grad for t in inputs)
        for t in outs:
            t.requires_grad = requires_grad
        if requires_grad:
            self._records.append((outs, pullback))
        return out

    # -- backward ------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        if self._consumed:
            raise AutodiffError("tape already consumed by a previous backward pass")
        if loss.values.shape != ():
            raise AutodiffError(f"backward requires a scalar loss, got shape {loss.values.shape}")
        self._consumed = True
        loss.grad = np.asarray(1.0)
        for outs, pullback in reversed(self._records):
            grads = [t.grad for t in outs]
            if any(g is not None for g in grads):
                pullback(*grads)


def _segment_sum(rows: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum ``rows[i]`` into bucket ``index[i]`` of ``n_rows``: one flat
    ``np.bincount`` over ``index * d + column``, unsorted, in input order."""
    d = rows.shape[1]
    bins = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, rows.ravel(), n_rows * d).reshape(n_rows, d)



def unit_rows(x: np.ndarray):
    """The rows of ``x`` over their norms, and the pullback to the gradient of
    ``x``; an :class:`AutodiffError` for a row of norm below ``QUAT_NORM_FLOOR``."""
    norms = so3.rownorm(x, keepdims=True)
    if np.any(norms < QUAT_NORM_FLOOR):
        raise AutodiffError("cannot normalize a row of norm below 1e-12")
    y = x / norms
    # d(x/|x|) = (g - y (y.g)) / |x|
    return y, lambda g: (g - y * np.sum(y * g, axis=1, keepdims=True)) / norms


def quat_dist(a: np.ndarray, b: np.ndarray):
    """Per-row ``min(|a - b|, |a + b|)``, the sign-flip branch taken at ties,
    and the pullback to the gradient of ``a``; a row at distance 0 gets 0."""
    d_minus, d_plus = a - b, a + b
    n_minus, n_plus = so3.rownorm(d_minus), so3.rownorm(d_plus)
    take_minus = n_minus < n_plus
    dist = np.where(take_minus, n_minus, n_plus)

    def pull(g):
        chosen = np.where(take_minus[:, None], d_minus, d_plus)
        safe = np.maximum(dist, QUAT_NORM_FLOOR)
        return g[:, None] * np.where((dist > QUAT_NORM_FLOOR)[:, None], chosen / safe[:, None], 0.0)

    return dist, pull


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

    def adam_step(self, lr: float, weight_decay: float = 0.0) -> None:
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
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for name, g in grads.items():
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
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
        if name in seen:
            raise CheckpointError(f"duplicate parameter {name!r}")
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
