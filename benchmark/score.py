"""Gauge-aligned orientation error.

Absolute orientations from rotation averaging are defined up to a global
rotation ``G`` acting on the right, ``q_i -> q_i * G``, which leaves every
relative orientation ``q_v * q_u^-1`` unchanged.  The scorer picks the ``G``
that minimises the summed geodesic error (an L1 fit, so a few badly wrong
nodes cannot drag the alignment) and reports per-node errors in degrees.

All arithmetic is the benchmark's own (``quat.py``), so a change to the
package's kernels cannot move the score.
"""

from __future__ import annotations

import numpy as np

from quat import angle_deg, qconj, qmul

MEDOID_SAMPLE = 1000   # candidates compared pairwise to pick the start
WEISZFELD_ITERS = 200
STEP_TOL = 1e-12       # radians
DIST_FLOOR = 1e-9      # radians; caps the 1/distance weights


def _log(q: np.ndarray) -> np.ndarray:
    q = np.where(q[..., :1] < 0.0, -q, q)
    w, v = q[..., 0], q[..., 1:]
    nv = np.linalg.norm(v, axis=-1)
    ang = 2.0 * np.arctan2(nv, w)
    scale = np.where(nv > 1e-12, ang / np.maximum(nv, 1e-300), 2.0 / np.maximum(w, 1e-300))
    return v * scale[..., None]


def _exp(s: np.ndarray) -> np.ndarray:
    ang = np.linalg.norm(s)
    if ang < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[np.cos(0.5 * ang)], np.sin(0.5 * ang) / ang * s])


def align_gauge(est: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """The right gauge ``G`` minimising ``sum_i angle(est_i * G, gt_i)``."""
    cands = qmul(qconj(est), gt)  # est_i * c_i = gt_i
    sample = cands[np.linspace(0, len(cands) - 1, min(len(cands), MEDOID_SAMPLE)).astype(int)]
    dots = np.clip(np.abs(sample @ sample.T), 0.0, 1.0)
    g = sample[int(np.argmin(np.arccos(dots).sum(axis=1)))]
    for _ in range(WEISZFELD_ITERS):
        r = _log(qmul(qconj(g), cands))
        w = 1.0 / np.maximum(np.linalg.norm(r, axis=1), DIST_FLOOR)
        step = (w[:, None] * r).sum(axis=0) / w.sum()
        g = qmul(g, _exp(step))
        g /= np.linalg.norm(g)
        if np.linalg.norm(step) < STEP_TOL:
            break
    return g


def errors_deg(est: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-node angle between ``est_i * G`` and ``gt_i`` after L1 alignment."""
    est = np.asarray(est, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if est.shape != gt.shape or est.ndim != 2 or est.shape[1] != 4 or len(est) == 0:
        raise ValueError(f"expected matching non-empty (N, 4) arrays, got {est.shape} and {gt.shape}")
    g = align_gauge(est, gt)
    return angle_deg(qmul(qconj(qmul(est, g)), gt))


def is_unit_finite(q: np.ndarray, tol: float = 1e-9) -> bool:
    """Every row finite and of unit norm within ``tol``."""
    q = np.asarray(q, dtype=np.float64)
    return bool(q.ndim == 2 and q.shape[1] == 4 and np.all(np.isfinite(q))
                and np.all(np.abs(np.linalg.norm(q, axis=1) - 1.0) <= tol))
