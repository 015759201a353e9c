"""Quaternion-based SO(3) algebra on rows.

Conventions used throughout the package:

* Quaternions are Hamilton quaternions stored as ``(w, x, y, z)`` with unit
  norm and a canonical sign (``w >= 0``; if ``w`` is zero the first nonzero
  vector component is non-negative).
* Rotations act on column vectors, ``world = R @ camera``; the product
  ``qmul(a, b)`` matches the matrix product ``R_a @ R_b``.
* The relative orientation of an edge ``u -> v`` between absolute
  orientations ``q_u, q_v`` is ``qmul(q_v, qconj(q_u))``.

Every operation here works on rows: float64 arrays whose last axis has
length 4 (or 3 for rotation vectors), and the samplers draw blocks of rows.
Orientations travel through the package as (N, 4) canonical rows; the
:class:`Quat` items of :class:`Orientations` are left of the object boundary
only for the benchmark adapter.  The scalar value type and per-quaternion
API (compose, metrics, matrices, axis/angle, scalar samplers) live in the
tests as their oracle.

:func:`rownorm` is the package's one norm kernel; ``rotavg`` makes no
``np.linalg.norm`` call (a test keeps it so).  Over the short last axes of
rows it is bit-equal to ``np.linalg.norm(x, axis=-1)`` and a few times
faster.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

# Tolerance table (single source for the whole package).
ZERO_SIGN_TOL = 1e-12     # component magnitude treated as zero for sign rules
NORM_SKIP_TOL = 1e-12     # skip renormalization when already this close to 1
SMALL_ANGLE = 1e-6        # series fallback threshold for log/exp maps (rad)


# ---------------------------------------------------------------------------
# Array kernels
# ---------------------------------------------------------------------------

def rownorm(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis, bit-equal to ``np.linalg.norm(x,
    axis=-1, keepdims=keepdims)`` for last axes shorter than 8.

    The squared columns are summed left to right, the order numpy's
    reduction takes over such short axes, without the (..., d) square array
    and the strided reduction; a 1-D input gives a scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    s = np.square(x[..., 0], out=np.empty(x.shape[:-1]))
    for j in range(1, x.shape[-1]):
        s += np.square(x[..., j])
    np.sqrt(s, out=s)
    return s[..., None] if keepdims else s[()]


def qcanon(q: np.ndarray) -> np.ndarray:
    """Normalize rows to unit norm and apply the canonical sign; always a
    fresh array.

    Idempotent bit-for-bit: rows already within ``NORM_SKIP_TOL`` of unit
    norm are not rescaled again.  The common cases skip work without
    changing a bit: when every row is within ``NORM_SKIP_TOL`` there is no
    division, and when no row has ``|w| <= ZERO_SIGN_TOL`` the sign is
    decided by ``w`` alone, without the x, y, z cascade.
    """
    q = np.asarray(q, dtype=np.float64)
    n = rownorm(q, keepdims=True)
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize a near-zero quaternion")
    unit = np.abs(n - 1.0) <= NORM_SKIP_TOL
    out = q.copy() if unit.all() else np.where(unit, q, q / n)
    w = out[..., 0]
    flip = w < -ZERO_SIGN_TOL
    undecided = np.abs(w) <= ZERO_SIGN_TOL
    if undecided.any():
        for j in (1, 2, 3):
            c = out[..., j]
            significant = np.abs(c) > ZERO_SIGN_TOL
            flip = flip | (undecided & significant & (c < 0.0))
            undecided = undecided & ~significant
    return np.negative(out, out=out, where=flip[..., None])


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion rows (no normalization)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate of rows (inverse for unit rows)."""
    q = np.asarray(q, dtype=np.float64)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _left_correct(delta: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Canonical ``delta * base`` for raw network corrections ``delta``; a
    correction row whose norm underflows counts as the identity rotation."""
    delta = np.array(delta, dtype=np.float64)
    delta[rownorm(delta) < 1e-12] = (1.0, 0.0, 0.0, 0.0)
    return qcanon(qmul(qcanon(delta), base))


def qangle_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise geodesic angle between unit quaternion rows, in degrees."""
    rel = qmul(qconj(a), b)
    vec = rownorm(rel[..., 1:])
    ang = 2.0 * np.arctan2(vec, np.abs(rel[..., 0]))
    return np.degrees(ang)


def qlog(q: np.ndarray) -> np.ndarray:
    """Rotation-vector log map of unit rows (radians, angle in [0, pi]).

    Uses the series ``2/w * (1 - |v|^2 / (3 w^2))`` below ``SMALL_ANGLE`` to
    avoid the 0/0 at the identity.  The log reads each row as ``qcanon``
    leaves it, bit for bit, but skips its copy in the common case: when
    every row is within ``NORM_SKIP_TOL`` of unit norm and no ``|w|`` is
    within ``ZERO_SIGN_TOL``, canonicalization only negates the rows with
    ``w < 0``, so the log reads ``|w|`` and puts the sign of ``w`` on its
    (non-negative) scale.  Without a row below ``SMALL_ANGLE`` the scale is
    ``ang / |v|`` alone.
    """
    q = np.asarray(q, dtype=np.float64)
    w = q[..., 0]
    sign = None
    if np.all(np.abs(rownorm(q) - 1.0) <= NORM_SKIP_TOL) and not np.any(np.abs(w) <= ZERO_SIGN_TOL):
        sign, w = w, np.abs(w)
    else:
        q = qcanon(q)
        w = q[..., 0]
    v = q[..., 1:]
    nv = rownorm(v)
    ang = 2.0 * np.arctan2(nv, w)
    small = nv < SMALL_ANGLE
    if np.any(small):
        safe_w = np.where(w < 1e-3, 1.0, w)  # series only used where w ~ 1
        scale_series = 2.0 / safe_w * (1.0 - nv * nv / (3.0 * safe_w * safe_w))
        scale_exact = np.where(small, 1.0, ang) / np.where(small, 1.0, np.maximum(nv, 1e-300))
        scale = np.where(small, scale_series, scale_exact)
    else:
        scale = ang / nv
    if sign is not None:
        scale = np.copysign(scale, sign)
    return v * scale[..., None]


def qexp(v: np.ndarray) -> np.ndarray:
    """Exponential map from rotation vectors (radians) to unit rows."""
    v = np.asarray(v, dtype=np.float64)
    ang = rownorm(v)
    half = 0.5 * ang
    small = ang < SMALL_ANGLE
    # sin(ang/2)/ang with series fallback near zero
    scale = np.where(
        small,
        0.5 - ang * ang / 48.0,
        np.sin(half) / np.where(small, 1.0, np.maximum(ang, 1e-300)),
    )
    out = np.empty(v.shape[:-1] + (4,), dtype=np.float64)
    out[..., 0] = np.cos(half)
    out[..., 1:] = v * scale[..., None]
    return qcanon(out)


# ---------------------------------------------------------------------------
# The solvers' output view
# ---------------------------------------------------------------------------

class Quat(NamedTuple):
    """The four floats of one orientation row."""

    w: float
    x: float
    y: float
    z: float


class Orientations(Sequence):
    """Read-only sequence of :class:`Quat` items over (N, 4) rows.

    Items are the stored floats, built on access; ``np.asarray`` returns the
    rows themselves, without a copy, so a view passes on to the next solver.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = np.asarray(rows, dtype=np.float64).view()
        self._rows.flags.writeable = False

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> Quat:
        return Quat(*self._rows[operator.index(i)].tolist())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._rows, dtype=dtype, copy=copy)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_uniform_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Array of ``n`` Haar-uniform unit quaternion rows."""
    g = rng.normal(size=(n, 4))
    bad = rownorm(g) <= 1e-9
    while np.any(bad):  # pragma: no cover - probability ~0
        g[bad] = rng.normal(size=(int(bad.sum()), 4))
        bad = rownorm(g) <= 1e-9
    return qcanon(g)


def sample_noise_rows(
    sigma_deg: float, planar: bool, rng: np.random.Generator, m: int
) -> np.ndarray:
    """``m`` small random rotations with angle magnitude ``|N(0, sigma)|``.

    Angles are clipped to 180 degrees and drawn first (no draw at sigma 0),
    then the axes: with ``planar`` uniform on the unit circle in the x-z
    plane (one uniform angle per row), otherwise uniform on the sphere (a
    normalized 3-D Gaussian per row).
    """
    if sigma_deg < 0.0:
        raise ValueError("sigma_deg must be non-negative")
    angle = np.zeros(m)
    if sigma_deg > 0.0:
        angle = np.minimum(np.abs(rng.normal(0.0, math.radians(sigma_deg), size=m)), math.pi)
    if planar:
        phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
        axis = np.stack([np.sin(phi), np.zeros(m), np.cos(phi)], axis=1)
    else:
        axis = rng.normal(size=(m, 3))
        bad = rownorm(axis) <= 1e-9
        while np.any(bad):  # pragma: no cover - probability ~0
            axis[bad] = rng.normal(size=(int(bad.sum()), 3))
            bad = rownorm(axis) <= 1e-9
        axis /= rownorm(axis, keepdims=True)
    half = 0.5 * angle
    return qcanon(np.concatenate([np.cos(half)[:, None], axis * np.sin(half)[:, None]], axis=1))
