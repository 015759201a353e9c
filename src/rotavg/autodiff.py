"""Reverse-mode differentiation of a training step, Adam, and checkpoints.

A network's training step returns a :class:`Tape`: its loss and the one
pullback that composes the loss's with the message passing's
(``mpnn.forward``, on arrays).  ``Tape.backward`` returns the weights'
gradients by name, and ``ParamStore.adam_step`` takes them; inference has
no tape.  The losses share the row kernels ``unit_rows`` and
``quat_dist``, which return a value and its pullback; the tests keep the
generic recording tape and its primitives as an oracle.  Everything is
float64 and deterministic in single-threaded use.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from . import so3

ADAM_BETA1 = 0.9         # decay of Adam's first-moment estimate
ADAM_BETA2 = 0.999       # decay of Adam's second-moment estimate
ADAM_EPS = 1e-8          # added to the root of the second moment


class AutodiffError(RuntimeError):
    """Misuse of an operation or the optimizer (shape, index, gradient names...)."""


class Tape:
    """One training step: its float ``loss``, and ``backward``, which runs the
    step's composed pullback to a name -> gradient map over every weight.
    The pullback reads only arrays the step keeps, so it may run again; it
    reads the weights as they are, so it runs before they change."""

    def __init__(self, loss, pullback):
        self.loss = float(loss)
        self._pullback = pullback

    def backward(self) -> dict[str, np.ndarray]:
        return self._pullback()


def _segment_sum(rows: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum ``rows[i]`` into bucket ``index[i]`` of ``n_rows``: one flat
    ``np.bincount`` over ``index * d + column``, unsorted, in input order."""
    d = rows.shape[1]
    bins = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, rows.ravel(), n_rows * d).reshape(n_rows, d)



def unit_rows(x: np.ndarray):
    """The rows of ``x`` over their norms, and the pullback to the gradient of
    ``x``; an :class:`AutodiffError` for a row of norm below ``so3.ZERO_NORM_TOL``."""
    norms = so3.rownorm(x, keepdims=True)
    if np.any(norms < so3.ZERO_NORM_TOL):
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
        safe = np.maximum(dist, so3.ZERO_NORM_TOL)
        return g[:, None] * np.where((dist > so3.ZERO_NORM_TOL)[:, None], chosen / safe[:, None], 0.0)

    return dist, pull


# ---------------------------------------------------------------------------
# Parameters and the optimizer
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameter arrays plus Adam moment buffers; ``adam_step`` takes
    a step's gradients by name (decoupled weight decay)."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, values: np.ndarray) -> None:
        if name in self.params:
            raise AutodiffError(f"duplicate parameter {name!r}")
        arr = np.array(values, dtype=np.float64)
        self.params[name] = arr
        self._m[name] = np.zeros_like(arr)
        self._v[name] = np.zeros_like(arr)

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, arr in self.params.items():
            out.add(name, arr)
        return out

    def adam_step(self, grads: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0) -> None:
        """One Adam step from ``grads``, which must name every parameter and
        no other, each in its parameter's shape; a mismatch moves nothing."""
        if grads.keys() != self.params.keys():
            raise AutodiffError(f"gradients for {sorted(grads)} do not match the parameters "
                                f"{sorted(self.params)}")
        for name, p in self.params.items():
            if np.shape(grads[name]) != p.shape:
                raise AutodiffError(f"gradient {name!r} has shape {np.shape(grads[name])}, "
                                    f"its parameter {p.shape}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for name, p in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p -= lr * update
            if weight_decay:
                p -= lr * weight_decay * p


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "rotavg-ckpt-v1"


class CheckpointError(RuntimeError):
    """Unreadable or architecture-incompatible checkpoint."""


def save_checkpoint(store: ParamStore, path: str | Path) -> None:
    """Write ``store`` to a sibling ``.tmp`` file, then move it over ``path``:
    a save that fails leaves the file at ``path`` as it was."""
    entries = [{"name": name, "shape": list(arr.shape),
                "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
               for name, arr in store.params.items()]
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps({"format": CHECKPOINT_FORMAT, "params": entries}),
                       encoding="utf-8")
        tmp.replace(path)  # os.replace: atomic within one file system
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path, expected: dict[str, tuple[int, ...]]) -> ParamStore:
    """Load a checkpoint, validating names and shapes against ``expected``
    and that every value is finite."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
