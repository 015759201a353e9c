"""Quaternion-based SO(3) algebra.

Conventions used throughout the package:

* Quaternions are Hamilton quaternions stored as ``(w, x, y, z)`` with unit
  norm and a canonical sign (``w >= 0``; if ``w`` is zero the first nonzero
  vector component is non-negative).
* Rotations act on column vectors, ``world = R @ camera``; composing
  ``compose(a, b)`` matches the matrix product ``R_a @ R_b``.
* The relative orientation of an edge ``u -> v`` between absolute
  orientations ``q_u, q_v`` is ``compose(q_v, inverse(q_u))``.

Array kernels (``qmul``, ``qconj``, ``qlog``, ...) operate on float64 arrays
whose last axis has length 4 (or 3 for rotation vectors).  Orientations
travel through the package as (N, 4) canonical rows; :class:`UnitQuaternion`
is the value-semantics type of the boundary and of the test oracles, and
:class:`Orientations` hands out rows as ``UnitQuaternion`` items.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Tolerance table (single source for the whole package).
UNIT_TOL = 1e-9           # |norm - 1| guaranteed after canonicalization
ZERO_SIGN_TOL = 1e-12     # component magnitude treated as zero for sign rules
NORM_SKIP_TOL = 1e-12     # skip renormalization when already this close to 1
MATRIX_TOL = 1e-8         # orthogonality/determinant invariant of outputs
MATRIX_INPUT_TOL = 1e-6   # rejection threshold for matrix inputs
AXIS_UNIT_TOL = 1e-9      # |axis norm - 1| for axis/angle values
SMALL_ANGLE = 1e-6        # series fallback threshold for log/exp maps (rad)


# ---------------------------------------------------------------------------
# Array kernels
# ---------------------------------------------------------------------------

def qcanon(q: np.ndarray) -> np.ndarray:
    """Normalize rows to unit norm and apply the canonical sign.

    Idempotent bit-for-bit: rows already within ``NORM_SKIP_TOL`` of unit
    norm are not rescaled again.
    """
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize a near-zero quaternion")
    out = np.where(np.abs(n - 1.0) <= NORM_SKIP_TOL, q, q / n)
    w = out[..., 0]
    flip = w < -ZERO_SIGN_TOL
    undecided = np.abs(w) <= ZERO_SIGN_TOL
    for j in (1, 2, 3):
        c = out[..., j]
        significant = np.abs(c) > ZERO_SIGN_TOL
        flip = flip | (undecided & significant & (c < 0.0))
        undecided = undecided & ~significant
    return np.where(flip[..., None], -out, out)


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


def qangle_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise geodesic angle between unit quaternion rows, in degrees."""
    rel = qmul(qconj(a), b)
    vec = np.linalg.norm(rel[..., 1:], axis=-1)
    ang = 2.0 * np.arctan2(vec, np.abs(rel[..., 0]))
    return np.degrees(ang)


def qlog(q: np.ndarray) -> np.ndarray:
    """Rotation-vector log map of unit rows (radians, angle in [0, pi]).

    Uses the series ``2/w * (1 - |v|^2 / (3 w^2))`` below ``SMALL_ANGLE`` to
    avoid the 0/0 at the identity.
    """
    q = qcanon(q)
    w = q[..., 0]
    v = q[..., 1:]
    nv = np.linalg.norm(v, axis=-1)
    ang = 2.0 * np.arctan2(nv, w)
    safe_w = np.where(w < 1e-3, 1.0, w)  # series only used where w ~ 1
    small = nv < SMALL_ANGLE
    scale_series = 2.0 / safe_w * (1.0 - nv * nv / (3.0 * safe_w * safe_w))
    scale_exact = np.where(small, 1.0, ang) / np.where(small, 1.0, np.maximum(nv, 1e-300))
    scale = np.where(small, scale_series, scale_exact)
    return v * scale[..., None]


def qexp(v: np.ndarray) -> np.ndarray:
    """Exponential map from rotation vectors (radians) to unit rows."""
    v = np.asarray(v, dtype=np.float64)
    ang = np.linalg.norm(v, axis=-1)
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
# Domain types
# ---------------------------------------------------------------------------

class UnitQuaternion:
    """Immutable unit quaternion with canonical sign.

    The constructor normalizes and canonicalizes; inputs whose norm deviates
    from 1 by more than ~1e-6 are normally a sign of a bug upstream, but
    normalization is applied regardless (parsers enforce their own limits).
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float):
        arr = np.array([w, x, y, z], dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite quaternion components: {arr.tolist()}")
        arr = qcanon(arr)
        object.__setattr__(self, "w", float(arr[0]))
        object.__setattr__(self, "x", float(arr[1]))
        object.__setattr__(self, "y", float(arr[2]))
        object.__setattr__(self, "z", float(arr[3]))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("UnitQuaternion is immutable")

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "UnitQuaternion":
        arr = np.asarray(arr, dtype=np.float64).reshape(4)
        return cls(arr[0], arr[1], arr[2], arr[3])

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    def __repr__(self) -> str:
        return f"UnitQuaternion({self.w:.9g}, {self.x:.9g}, {self.y:.9g}, {self.z:.9g})"


class Orientations(Sequence):
    """Read-only sequence of :class:`UnitQuaternion` over (N, 4) rows.

    Items are built on access; ``np.asarray`` returns the rows themselves,
    without a copy, so a view passes on to the next solver as rows.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = np.asarray(rows, dtype=np.float64).view()
        self._rows.flags.writeable = False

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> UnitQuaternion:
        return UnitQuaternion.from_array(self._rows[operator.index(i)])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._rows, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class AxisAngle:
    """Unit axis and angle in radians, angle restricted to [0, pi]."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=np.float64).reshape(3)
        if abs(np.linalg.norm(axis) - 1.0) > AXIS_UNIT_TOL:
            raise ValueError("axis must be a unit vector")
        if not 0.0 <= self.angle <= math.pi + 1e-12:
            raise ValueError("angle must lie in [0, pi]")
        object.__setattr__(self, "axis", axis)


# ---------------------------------------------------------------------------
# Operations on UnitQuaternion values
# ---------------------------------------------------------------------------

def compose(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product ``a * b``; equals the matrix product R_a @ R_b."""
    return UnitQuaternion.from_array(qmul(a.as_array(), b.as_array()))


def inverse(q: UnitQuaternion) -> UnitQuaternion:
    """Inverse rotation (conjugate for unit quaternions)."""
    return UnitQuaternion(q.w, -q.x, -q.y, -q.z)


def relative(q_u: UnitQuaternion, q_v: UnitQuaternion) -> UnitQuaternion:
    """Relative orientation of edge u -> v: ``q_v * q_u^-1``."""
    return compose(q_v, inverse(q_u))


def geodesic_deg(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """Geodesic (angle) distance in degrees, in [0, 180]."""
    return float(qangle_deg(a.as_array(), b.as_array()))


def quat_dist(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """Quaternion metric ``min(|qa - qb|, |qa + qb|)``, in [0, sqrt(2)]."""
    va = a.as_array()
    vb = b.as_array()
    return float(min(np.linalg.norm(va - vb), np.linalg.norm(va + vb)))


def chordal_dist(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """Chordal metric: Frobenius distance of the rotation matrices."""
    return float(np.linalg.norm(to_matrix(a) - to_matrix(b)))


def to_matrix(q: UnitQuaternion) -> np.ndarray:
    """3x3 rotation matrix acting on column vectors."""
    w, x, y, z = q.w, q.x, q.y, q.z
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array(
        [
            [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
            [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
            [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
        ],
        dtype=np.float64,
    )


def from_matrix(m: np.ndarray) -> UnitQuaternion:
    """Convert a rotation matrix to its canonical unit quaternion.

    Rejects matrices violating orthogonality or ``det = +1`` beyond
    ``MATRIX_INPUT_TOL``.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    err = np.max(np.abs(m.T @ m - np.eye(3)))
    if err > MATRIX_INPUT_TOL:
        raise ValueError(f"matrix is not orthogonal (max |R^T R - I| = {err:.3g})")
    det = np.linalg.det(m)
    if abs(det - 1.0) > MATRIX_INPUT_TOL:
        raise ValueError(f"matrix determinant {det:.9g} is not +1")

    # Shepperd's method: pick the numerically largest pivot.
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    return UnitQuaternion(w, x, y, z)


def axis_angle(q: UnitQuaternion) -> AxisAngle:
    """Axis/angle decomposition; the identity maps to axis +x, angle 0."""
    v = np.array([q.x, q.y, q.z])
    nv = float(np.linalg.norm(v))
    ang = 2.0 * math.atan2(nv, q.w)
    if nv < 1e-12:
        return AxisAngle(np.array([1.0, 0.0, 0.0]), 0.0)
    return AxisAngle(v / nv, min(ang, math.pi))


def from_axis_angle(axis: np.ndarray, angle_rad: float) -> UnitQuaternion:
    """Unit quaternion rotating by ``angle_rad`` about a unit ``axis``."""
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    n = np.linalg.norm(axis)
    if abs(n - 1.0) > 1e-6:
        raise ValueError("axis must be a unit vector")
    axis = axis / n
    half = 0.5 * angle_rad
    s = math.sin(half)
    return UnitQuaternion(math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s)


def yaw_deg(angle_deg: float) -> UnitQuaternion:
    """Rotation about +z by ``angle_deg`` (column-vector convention)."""
    return from_axis_angle(np.array([0.0, 0.0, 1.0]), math.radians(angle_deg))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_uniform(rng: np.random.Generator) -> UnitQuaternion:
    """Uniform rotation (Haar measure) via normalized 4-D Gaussian."""
    while True:
        g = rng.normal(size=4)
        if np.linalg.norm(g) > 1e-9:
            return UnitQuaternion.from_array(g)


def sample_uniform_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Array of ``n`` Haar-uniform unit quaternion rows."""
    g = rng.normal(size=(n, 4))
    bad = np.linalg.norm(g, axis=1) <= 1e-9
    while np.any(bad):  # pragma: no cover - probability ~0
        g[bad] = rng.normal(size=(int(bad.sum()), 4))
        bad = np.linalg.norm(g, axis=1) <= 1e-9
    return qcanon(g)


def sample_noise(
    sigma_deg: float,
    vertical_axis: bool,
    rng: np.random.Generator,
    axis_concentration: float = 0.0,
) -> UnitQuaternion:
    """Small random rotation with angle magnitude ``|N(0, sigma)|``.

    The angle is clipped to 180 degrees.  With ``vertical_axis`` the axis is
    uniform on the unit circle in the x-z plane (y component zero);
    ``axis_concentration`` in [0, 1] optionally tilts those axes toward +/-y
    by sampling the y component uniformly from ``[-k, k]``.  Without
    ``vertical_axis`` the axis is uniform on the sphere.
    """
    if sigma_deg < 0.0:
        raise ValueError("sigma_deg must be non-negative")
    if not 0.0 <= axis_concentration <= 1.0:
        raise ValueError("axis_concentration must lie in [0, 1]")
    angle = abs(rng.normal(0.0, math.radians(sigma_deg))) if sigma_deg > 0.0 else 0.0
    angle = min(angle, math.pi)
    if vertical_axis:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c = axis_concentration * rng.uniform(-1.0, 1.0)
        s = math.sqrt(max(1.0 - c * c, 0.0))
        axis = np.array([s * math.sin(phi), c, s * math.cos(phi)])
    else:
        while True:
            axis = rng.normal(size=3)
            n = np.linalg.norm(axis)
            if n > 1e-9:
                axis = axis / n
                break
    return from_axis_angle(axis, angle)
