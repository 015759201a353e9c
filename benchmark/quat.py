"""Quaternion arithmetic on (..., 4) rows, ``(w, x, y, z)``, Hamilton product.

The benchmark's own copy, independent of ``rotavg.so3``, so a change to the
package's kernels cannot move the benchmark's inputs or its scores.
"""

from __future__ import annotations

import numpy as np


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def qconj(q: np.ndarray) -> np.ndarray:
    out = np.array(q, dtype=np.float64, copy=True)
    out[..., 1:] *= -1.0
    return out


def angle_deg(q: np.ndarray) -> np.ndarray:
    """Rotation angle of unit rows in degrees, in [0, 180]."""
    q = np.asarray(q, dtype=np.float64)
    return np.degrees(2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), np.abs(q[..., 0])))
