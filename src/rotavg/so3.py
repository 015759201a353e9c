"""Quaternion-based SO(3) algebra on rows.

Conventions used throughout the package:

* Quaternions are Hamilton quaternions stored as ``(w, x, y, z)`` with unit
  norm and a canonical sign (``w >= 0``; if ``w`` is zero the first nonzero
  vector component is non-negative).
* Rotations act on column vectors, ``world = R @ camera``; the product
  ``qmul(a, b)`` matches the matrix product ``R_a @ R_b``.
* The relative orientation of an edge ``u -> v`` between absolute
  orientations ``q_u, q_v`` is ``qmul(q_v, qconj(q_u))``.

The package passes quaternions as rows: float64 arrays whose last axis has
length 4 (or 3 for rotation vectors), and the samplers draw blocks of rows.
The Hamilton product (:func:`qmul_parts`), the log map (:func:`qlog_parts`)
and the norm are each written once, over component sequences: the four (or
three) arrays of a quaternion's components, taken from the last-axis
columns of rows by :func:`components` or from the rows of a component-major
(4, E) array.  :func:`qmul` calls its body on the columns of rows and
stacks the result (:func:`stack_rows`), and :func:`rownorm` sums the
squares of the columns, so both layouts give the same bits.  The log has
no row form: its one caller, IRLS, iterates on the component-major form,
whose components are contiguous.
Orientations travel through the package as (N, 4) canonical rows; the
:class:`Quat` items of :class:`Orientations` are left of the object boundary
only for the benchmark adapter.  The scalar value type and per-quaternion
API (compose, metrics, matrices, axis/angle, scalar samplers) live in the
tests as their oracle.

:func:`rownorm` is the package's one norm kernel; ``rotavg`` makes no
``np.linalg.norm`` call (a test keeps it so).  Over the short last axes of
rows it is bit-equal to ``np.linalg.norm(x, axis=-1)`` and a few times
faster.  :func:`angle_deg`, the rotation angle of rows in degrees, is its
one angle kernel: CleanNet's outlier labels and the L1 objective read it,
and no other module calls ``np.degrees`` (a test keeps it so).

:func:`l1_medians` is its one L1 rotation median (Hartley, Aftab and Trumpf,
CVPR 2011), batched over padded candidate sets that :func:`padded_runs` cuts.
Its medoid start is the medoid of each set's first ``MEDOID_REFERENCES``
candidates alone: at most 32^2 arccos per set, whatever its size D.
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
ZERO_NORM_TOL = 1e-12     # a row of smaller norm counts as zero
SMALL_ANGLE = 1e-6        # series fallback threshold for log/exp maps (rad)


# ---------------------------------------------------------------------------
# Array kernels
# ---------------------------------------------------------------------------

def components(x) -> list[np.ndarray]:
    """The last-axis columns of float64 rows (views): the component arrays
    the ``*_parts`` bodies take."""
    x = np.asarray(x, dtype=np.float64)
    return [x[..., j] for j in range(x.shape[-1])]


def stack_rows(parts) -> np.ndarray:
    """Rows from component arrays of one shape: ``np.stack(parts,
    axis=-1)`` without its per-call checks, which cost more than the copy
    on a few hundred rows."""
    out = np.empty(parts[0].shape + (len(parts),))
    for j, c in enumerate(parts):
        out[..., j] = c
    return out


def _norm_parts(parts) -> np.ndarray:
    """Euclidean norm of component arrays, the squares summed left to right."""
    first, *rest = parts
    s = np.square(first, out=np.empty(first.shape))
    for c in rest:
        s += np.square(c)
    return np.sqrt(s, out=s)


def rownorm(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis, bit-equal to ``np.linalg.norm(x,
    axis=-1, keepdims=keepdims)`` for last axes shorter than 8.

    The squared columns are summed left to right, the order numpy's
    reduction takes over such short axes, without the (..., d) square array
    and the strided reduction; a 1-D input gives a scalar.  The transpose
    of a component-major array gives the norms of its columns.
    """
    s = _norm_parts(components(x))
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
    if np.any(n < ZERO_NORM_TOL):
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


def qmul_parts(a, b) -> tuple[np.ndarray, ...]:
    """Hamilton product of quaternions given as component sequences ``(w,
    x, y, z)``: the package's one product body; returns its four components.

    Each component is accumulated in place in the left-to-right order of
    ``aw * bw - ax * bx - ay * by - az * bz`` (and so on), which gives that
    expression's bits without its temporaries.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    w = aw * bw
    w -= ax * bx
    w -= ay * by
    w -= az * bz
    x = aw * bx
    x += ax * bw
    x += ay * bz
    x -= az * by
    y = aw * by
    y -= ax * bz
    y += ay * bw
    y += az * bx
    z = aw * bz
    z += ax * by
    z -= ay * bx
    z += az * bw
    return w, x, y, z


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion rows (no normalization)."""
    return stack_rows(qmul_parts(components(a), components(b)))


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
    delta[rownorm(delta) < ZERO_NORM_TOL] = (1.0, 0.0, 0.0, 0.0)
    return qcanon(qmul(qcanon(delta), base))


def angle_deg(q: np.ndarray) -> np.ndarray:
    """Rotation angle of unit quaternion rows, in degrees, in [0, 180]; ``q``
    and ``-q`` give the same bits.  The angle between rows ``a`` and ``b`` is
    ``angle_deg(qmul(qconj(a), b))``."""
    q = np.asarray(q, dtype=np.float64)
    return np.degrees(2.0 * np.arctan2(rownorm(q[..., 1:]), np.abs(q[..., 0])))


def qlog_parts(q) -> tuple[np.ndarray, ...]:
    """Rotation-vector log map (radians, angle in [0, pi]) of unit
    quaternions given as component sequences ``(w, x, y, z)``: the
    package's one log body; returns the three vector components.

    Uses the series ``2/w * (1 - |v|^2 / (3 w^2))`` below ``SMALL_ANGLE`` to
    avoid the 0/0 at the identity.  The log reads each quaternion as
    ``qcanon`` leaves it, bit for bit, but skips its copy in the common
    case: when every one is within ``NORM_SKIP_TOL`` of unit norm and no
    ``|w|`` is within ``ZERO_SIGN_TOL``, canonicalization only negates those
    with ``w < 0``, so the log reads ``|w|`` and puts the sign of ``w`` on its
    (non-negative) scale.  Without an angle below ``SMALL_ANGLE`` the scale
    is ``ang / |v|`` alone.
    """
    w, x, y, z = q
    sign = None
    if np.all(np.abs(_norm_parts(q) - 1.0) <= NORM_SKIP_TOL) and not np.any(np.abs(w) <= ZERO_SIGN_TOL):
        sign, w = w, np.abs(w)
    else:
        w, x, y, z = components(qcanon(stack_rows(q)))
    nv = _norm_parts((x, y, z))
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
    return x * scale, y * scale, z * scale


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
# L1 medians
# ---------------------------------------------------------------------------

# radians; the coincidence radius of an L1 median step, not a weight cap: a
# candidate closer than this to the iterate leaves the step (Vardi-Zhang)
WEISZFELD_FLOOR = 1e-6
MEDOID_CELLS = 1 << 21   # a batch's n * D * min(D, 32) (16 MB): bounds its (n, k, k) medoid block
MEDOID_REFERENCES = 32   # a set's medoid is the one of its first k <= 32 candidates

# ``(m @ _RIGHT_T).reshape(4, 4)``, from ``qmul`` of the basis rows, is R^T for
# the R with ``R @ e = e * m``: right multiplication by conj(m).
_RIGHT_T = qmul(np.eye(4), np.eye(4)[:, None]).reshape(4, 16)
_VEC = np.array([0.0, 1.0, 1.0, 1.0])  # ``x @ _VEC`` sums the vector part


def padded_runs(starts: np.ndarray, counts: np.ndarray) -> list[tuple]:
    """Batches ``(sets, idx, valid)`` of :func:`l1_medians` over candidate
    sets of ascending, positive ``counts``, set ``i`` at the flat positions
    ``starts[i] + range(counts[i])``: a slice of the sets, their (n, D)
    positions padded by repeats of each set's first, and the mask of the real
    ones.  A batch takes sets while n * D * min(D, MEDOID_REFERENCES) fits
    in ``MEDOID_CELLS``; at least one.  That bounds the batch's (n, k, k)
    medoid distances, k = min(D, MEDOID_REFERENCES), and past D = k its
    padded candidates n * D, which the Weiszfeld steps' arrays scale with."""
    cells = (counts * np.minimum(counts, MEDOID_REFERENCES)).tolist()  # a list: read one by one
    runs, lo = [], 0
    while lo < counts.size:
        end = lo + 1
        while end < counts.size and (end + 1 - lo) * cells[end] <= MEDOID_CELLS:
            end += 1
        col = np.arange(counts[end - 1])
        valid = col < counts[lo:end, None]
        runs.append((slice(lo, end), starts[lo:end, None] + np.where(valid, col, 0), valid))
        lo = end
    return runs


def l1_medians(cands: np.ndarray, valid: np.ndarray, iters: int) -> np.ndarray:
    """Tangent-space L1 medians of padded candidate sets, one per set.

    ``cands`` is (n, D, 4) unit rows and ``valid`` (n, D) marks the real
    ones.  Each median starts at its medoid and takes ``iters`` Weiszfeld
    steps; a set whose step falls below 1e-12 stays where it is.  The
    medoid is the one of the set's first ``MEDOID_REFERENCES`` candidates
    (all of a smaller set, whose medoid is then its full one): the sampled
    candidate of least ``sum_j d_ij`` over the sample, with ``d_ii = 0``
    (CLARA's medoid of a sample, Kaufman and Rousseeuw 1990).  The batch
    scores one (n, k, k) block, k = min(D, ``MEDOID_REFERENCES``), so the
    rule is the set's, whatever the batch's padding, and an exact tie goes
    to the first candidate.

    A step is the Vardi-Zhang modification of Weiszfeld's (Vardi and Zhang,
    PNAS 2000).  The ``eta`` valid candidates within ``WEISZFELD_FLOOR`` of
    the iterate coincide with it and leave the weighted tangent mean; the
    other candidates' step is scaled by ``max(0, 1 - eta / r)``, where ``r``
    is the length of the sum of their unit tangent directions.  At ``r <=
    eta`` the iterate is already the L1 median and the step is exactly 0
    (also when every candidate coincides and no weight is left), so the
    freeze rule keeps the row bit for bit.  Without a coincident candidate
    it is Weiszfeld's step.  Only a step with a coincident candidate, in
    practice the first, pays for the masks, and only a step after some set
    has stopped pays for the freeze rule's.

    Weiszfeld's batches hold about 4 sets of about 100 candidates on the
    benchmark's dense graphs and about 20 of about 25 on its sparse ones, so
    a step is few whole-batch calls.  One matmul against ``_RIGHT_T`` gives
    the matrix of ``m`` that takes each candidate column to ``candidate *
    conj(m)`` and the row ``e`` to ``e * m``; the squared vector norms and
    the weighted tangent sum are one matmul each.  The step works in
    half-angles: the log map's factor 2 cancels in the normalised weights,
    so ``s`` is half the tangent step and ``exp`` reads ``cos |s|`` and
    ``sin |s|`` directly.
    """
    n, d = valid.shape
    k = min(d, MEDOID_REFERENCES)
    cols = cands.transpose(0, 2, 1).copy()  # (n, 4, D)
    dist = cands[:, :k] @ cols[:, :, :k]
    np.abs(dist, out=dist)
    np.minimum(dist, 1.0, out=dist)
    dist[:, np.arange(k), np.arange(k)] = 1.0
    np.arccos(dist, out=dist)
    w = valid.astype(np.float64)
    sums = (dist @ w[:, :k, None])[:, :, 0]
    m = cands[np.arange(n), np.argmin(np.where(valid[:, :k], sums, np.inf), axis=1)]
    frozen = np.zeros(n, dtype=bool)
    stopped = False  # whether ``frozen`` has a set yet
    for _ in range(iters):
        mat = (m @ _RIGHT_T).reshape(n, 4, 4)
        rel = mat @ cols  # candidates * conj(m), as (n, 4, D) columns
        cw = rel[:, 0]
        nv = np.sqrt(_VEC @ (rel * rel))
        half = np.arctan2(nv, np.abs(cw))
        # log-map direction, sign-corrected so the angle stays in [0, pi]
        coef = np.zeros((n, d))
        np.divide(np.copysign(half, cw), nv, out=coef, where=nv > 1e-12)
        near = half < 0.5 * WEISZFELD_FLOOR
        near &= valid
        coincide = near.any()  # Vardi-Zhang: coincident candidates leave the mean
        kept = np.where(near, 0.0, w) if coincide else w
        weights = kept / np.maximum(half, 0.5 * WEISZFELD_FLOOR)  # the floor keeps padding finite
        coef *= weights
        s = (rel @ coef[:, :, None])[:, :, 0]  # s[:, 1:] sums the unit directions
        if coincide:
            r = np.sqrt((s * s) @ _VEC)
            eta = np.add.reduce(near, 1)
            # (1 - eta / r) / sum(weights) where r > eta, else an exact 0
            scale = np.zeros(n)
            np.divide(r - eta, r * np.add.reduce(weights, 1), out=scale, where=r > eta)
            s *= scale[:, None]
        else:
            s /= np.add.reduce(weights, 1)[:, None]
        # s[:, 1:] is now half the step
        step = np.sqrt((s * s) @ _VEC)
        if stopped or np.minimum.reduce(step) < 0.5e-12:  # a full step below 1e-12
            frozen |= step < 0.5e-12
            stopped = True
            step[frozen] = 1.0  # any non-zero: their old rows are put back
        e = s * (np.sin(step) / step)[:, None]  # exp of the full step
        e[:, 0] = np.cos(step)
        new = (e[:, None, :] @ mat)[:, 0]  # exp(s) * m
        new /= np.sqrt(np.einsum("ni,ni->n", new, new))[:, None]
        if stopped:
            new[frozen] = m[frozen]
        m = new
    return m


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
    """Array of ``n`` Haar-uniform unit quaternion rows: normalized 4-D
    Gaussians (one of norm at most 1e-9 has probability below 1e-36, so no
    draw is retried)."""
    return qcanon(rng.normal(size=(n, 4)))


def sample_noise_rows(
    sigma_deg: float, planar: bool, rng: np.random.Generator, m: int
) -> np.ndarray:
    """``m`` small random rotations with angle magnitude ``|N(0, sigma)|``.

    Angles are clipped to 180 degrees and drawn first (no draw at sigma 0),
    then the axes: with ``planar`` uniform on the unit circle in the x-z
    plane (one uniform angle per row), otherwise uniform on the sphere (a
    normalized 3-D Gaussian per row; one of norm at most 1e-9 has
    probability below 1e-27, so no draw is retried).
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
        axis /= rownorm(axis, keepdims=True)
    half = 0.5 * angle
    return qcanon(np.concatenate([np.cos(half)[:, None], axis * np.sin(half)[:, None]], axis=1))
