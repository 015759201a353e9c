"""Scalar SO(3) API on :class:`UnitQuaternion` values: the tests' oracle.

The package works on (N, 4) rows only (``rotavg.so3``) and builds graphs
from arrays only (``rotavg.viewgraph.ViewGraph``).  This per-value API (the
validating :class:`UnitQuaternion`, composition, metrics, the matrix
bridge, axis/angle, the scalar samplers, and :class:`Edge` records with the
graph builder over them) has no caller in the package; tests use it as the
reference that row kernels, samplers, the graph constructor and the corpus
generator are checked against, one quaternion or edge at a time.  ``qcanon`` is the row kernel without its fast paths:
it always divides the off-unit rows out and always runs the zero-sign
cascade, the reference for the package's ``qcanon`` bit for bit.
``qlog``, ``qexp`` and ``qangle_deg`` are frozen copies of the row kernels
as they stood before ``so3.rownorm`` and ``qlog``'s fast path: every norm
through ``np.linalg.norm``, every log through ``qcanon``'s copy.  ``qmul``
is the row product as it stood before ``so3.qmul_parts``: one expression
per component over strided columns, stacked.  :func:`l1_median` is one set's
L1 median, scalar step by step: the reference for ``so3.l1_medians``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rotavg.so3 import NORM_SKIP_TOL, SMALL_ANGLE, WEISZFELD_FLOOR, ZERO_SIGN_TOL, qconj
from rotavg.viewgraph import ViewGraph

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


def qangle_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise geodesic angle between unit quaternion rows, in degrees."""
    rel = qmul(qconj(a), b)
    vec = np.linalg.norm(rel[..., 1:], axis=-1)
    ang = 2.0 * np.arctan2(vec, np.abs(rel[..., 0]))
    return np.degrees(ang)


def qlog(q: np.ndarray) -> np.ndarray:
    """Rotation-vector log map of rows, canonicalized first (radians)."""
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
    """Exponential map from rotation vectors (radians) to canonical rows."""
    v = np.asarray(v, dtype=np.float64)
    ang = np.linalg.norm(v, axis=-1)
    half = 0.5 * ang
    small = ang < SMALL_ANGLE
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
# The scalar value type and per-edge records
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


def as_quats(rows) -> list[UnitQuaternion]:
    """One :class:`UnitQuaternion` per row of (N, 4) rows or an
    ``Orientations`` view."""
    return [UnitQuaternion.from_array(r) for r in np.asarray(rows)]


@dataclass(frozen=True)
class Edge:
    """Undirected measurement ``u -> v``; a graph stores it with ``u < v``."""

    u: int
    v: int
    q: UnitQuaternion  # orientation of u -> v
    gt_outlier: bool | None = None


def edge_graph(n_nodes: int, edges: list[Edge],
               gt: list[UnitQuaternion | None] | None = None) -> ViewGraph:
    """The graph over ``Edge`` records and ``UnitQuaternion | None`` ground
    truth, through the array constructor."""
    edges = list(edges)
    gt_rows = None if gt is None else np.reshape(
        [(math.nan,) * 4 if q is None else (q.w, q.x, q.y, q.z) for q in gt], (-1, 4))
    return ViewGraph(n_nodes, np.array([e.u for e in edges], dtype=np.int64),
                     np.array([e.v for e in edges], dtype=np.int64),
                     [(e.q.w, e.q.x, e.q.y, e.q.z) for e in edges],
                     [-1 if e.gt_outlier is None else int(e.gt_outlier) for e in edges], gt_rows)


def edge_records(g: ViewGraph) -> list[Edge]:
    """The stored edges of ``g`` as ``Edge`` records, in edge order."""
    u, v = g.endpoint_arrays()
    return [Edge(int(a), int(b), UnitQuaternion.from_array(q), None if lab < 0 else bool(lab))
            for a, b, q, lab in zip(u, v, g.edge_quat_array(), g.edge_labels().tolist())]


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


# ---------------------------------------------------------------------------
# The L1 median of one candidate set
# ---------------------------------------------------------------------------

ROW_TOL = 1e-10  # max difference of a batched median row from the oracle's
TIE_GAP = 1e-6   # relative medoid score gap of a near tie
ARCCOS_ROUNDING = math.sqrt(2.0 * np.finfo(float).eps)  # arccos error of a dot product near 1


def l1_median(cands, iters):
    """One set's tangent-space Weiszfeld median in the Vardi-Zhang form,
    scalar step by step, and its medoid's margin.  The medoid start minimises ``sum_j d_ij + d_ji``
    with ``d_ii = 0``.  The margin is the gap to the best score of a
    candidate more than ``ROW_TOL`` away from it (either sign), over the
    tie tolerance: ``TIE_GAP`` of the medoid's score plus the rounding of the
    score's 2(k - 1) arccos terms.  At a margin of 1 or less, two computations
    of the scores may pick different medoids.  Two candidates score alike by
    symmetry, and every computation takes the first: their margin is inf."""
    aw, ax, ay, az = cands[:, 0], cands[:, 1], cands[:, 2], cands[:, 3]
    dist = np.arccos(np.minimum(np.abs(cands @ cands.T), 1.0))
    np.fill_diagonal(dist, 0.0)
    score = dist.sum(axis=1) + dist.sum(axis=0)
    m = cands[int(np.argmin(score))].copy()
    other = np.minimum(np.abs(cands - m), np.abs(cands + m)).max(axis=1) > ROW_TOL
    margin = math.inf
    if len(cands) > 2 and other.any():
        tol = TIE_GAP * score.min() + 2 * (len(cands) - 1) * ARCCOS_ROUNDING
        margin = (score[other].min() - score.min()) / tol
    for _ in range(iters):
        w, x, y, z = m
        # rel = cands * conj(m)
        cw = aw * w + ax * x + ay * y + az * z
        cx = -aw * x + ax * w - ay * z + az * y
        cy = -aw * y + ax * z + ay * w - az * x
        cz = -aw * z - ax * y + ay * x + az * w
        nv = np.sqrt(cx * cx + cy * cy + cz * cz)
        ang = 2.0 * np.arctan2(nv, np.abs(cw))
        scale = np.where(nv > 1e-12, np.copysign(ang, cw) / np.maximum(nv, 1e-300), 0.0)
        # Vardi-Zhang: the candidates within the floor of m leave the mean,
        # and the others' step shrinks by max(0, 1 - eta / r)
        near = ang < WEISZFELD_FLOOR
        weights = np.where(near, 0.0, 1.0 / np.maximum(ang, WEISZFELD_FLOOR))
        coef = weights * scale  # unit tangent directions, weighted 1
        rx, ry, rz = float(coef @ cx), float(coef @ cy), float(coef @ cz)
        r, eta = math.sqrt(rx * rx + ry * ry + rz * rz), int(near.sum())
        shrink = (1.0 - eta / r) / float(weights.sum()) if r > eta else 0.0
        sx, sy, sz = rx * shrink, ry * shrink, rz * shrink
        step = math.sqrt(sx * sx + sy * sy + sz * sz)
        if step < 1e-12:
            break
        half = 0.5 * step
        s = math.sin(half) / step
        ew, ex, ey, ez = math.cos(half), sx * s, sy * s, sz * s
        # m = exp(step) * m
        m = np.array([
            ew * w - ex * x - ey * y - ez * z,
            ew * x + ex * w + ey * z - ez * y,
            ew * y - ex * z + ey * w + ez * x,
            ew * z + ex * y - ey * x + ez * w,
        ])
        m /= math.sqrt(float(m @ m))
    return m, margin


def padded_candidates(rng: np.random.Generator, degrees, repeats) -> tuple[np.ndarray, np.ndarray]:
    """``(cands, valid)``, a padded batch of candidate sets of the given
    sizes: each scattered 0.01-1.2 rad about its own random centre, up to a
    third of it uniform outliers and about a share ``repeats[i]`` of it
    repeats of its first candidate, padded by repeats of its first."""
    d = max(degrees)
    cands = np.empty((len(degrees), d, 4))
    valid = np.arange(d) < np.array(degrees)[:, None]
    for i, (k, share) in enumerate(zip(degrees, repeats)):
        center = sample_uniform(rng).as_array()
        real = qmul(qexp(rng.normal(scale=rng.uniform(0.01, 1.2), size=(k, 3))), center)
        for j in range(rng.integers(0, k // 3 + 1)):  # outliers
            real[j] = sample_uniform(rng).as_array()
        real[rng.random(k) < share] = real[0]
        cands[i] = np.concatenate([qcanon(real), np.repeat(qcanon(real[:1]), d - k, axis=0)])
    return cands, valid
