"""Scalar SO(3) API on :class:`UnitQuaternion` values: the tests' oracle.

The package works on (N, 4) rows only (``rotavg.so3``).  This per-value API
(composition, metrics, the matrix bridge, axis/angle and the scalar
samplers) has no caller in the package; tests use it as the reference that
row kernels, samplers and the corpus generator are checked against, one
quaternion at a time.  ``qcanon`` is the row kernel without its fast paths:
it always divides the off-unit rows out and always runs the zero-sign
cascade, the reference for the package's ``qcanon`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rotavg.so3 import NORM_SKIP_TOL, ZERO_SIGN_TOL, UnitQuaternion, qangle_deg, qmul

MATRIX_TOL = 1e-8         # orthogonality/determinant invariant of outputs
MATRIX_INPUT_TOL = 1e-6   # rejection threshold for matrix inputs
AXIS_UNIT_TOL = 1e-9      # |axis norm - 1| for axis/angle values


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
# Row canonicalization, every step taken
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


def sample_noise(sigma_deg: float, vertical_axis: bool, rng: np.random.Generator) -> UnitQuaternion:
    """Small random rotation with angle magnitude ``|N(0, sigma)|``.

    The angle is clipped to 180 degrees.  With ``vertical_axis`` the axis is
    uniform on the unit circle in the x-z plane (y component zero); without
    it the axis is uniform on the sphere.
    """
    if sigma_deg < 0.0:
        raise ValueError("sigma_deg must be non-negative")
    angle = abs(rng.normal(0.0, math.radians(sigma_deg))) if sigma_deg > 0.0 else 0.0
    angle = min(angle, math.pi)
    if vertical_axis:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        axis = np.array([math.sin(phi), 0.0, math.cos(phi)])
    else:
        while True:
            axis = rng.normal(size=3)
            n = np.linalg.norm(axis)
            if n > 1e-9:
                axis = axis / n
                break
    return from_axis_angle(axis, angle)
