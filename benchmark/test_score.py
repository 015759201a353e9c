"""Tests of the gauge-aligned scorer; run with
``python3 -m pytest benchmark/test_score.py``."""

from __future__ import annotations

import numpy as np

from quat import qconj, qmul
from score import errors_deg


def haar(rng, n):
    g = rng.normal(size=(n, 4))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def rotation(angle_deg, axis):
    axis = np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    half = np.radians(angle_deg) / 2.0
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def test_gauge_shifted_copy_scores_zero():
    rng = np.random.default_rng(0)
    gt = haar(rng, 60)
    shift = haar(rng, 1)[0]
    est = qmul(gt, shift)
    est[::2] *= -1.0  # q and -q are the same rotation
    err = errors_deg(est, gt)
    assert np.max(err) < 1e-6


def test_known_perturbation_gives_its_angle():
    rng = np.random.default_rng(1)
    gt = haar(rng, 40)
    est = qmul(gt, haar(rng, 1)[0])
    est[7] = qmul(rotation(12.5, [1.0, 2.0, -0.5]), est[7])
    err = errors_deg(est, gt)
    assert abs(err[7] - 12.5) < 1e-6
    assert np.max(np.delete(err, 7)) < 1e-6
    assert abs(np.mean(err) - 12.5 / 40) < 1e-6
    assert np.median(err) < 1e-6


def test_median_ignores_flipped_nodes():
    rng = np.random.default_rng(2)
    gt = haar(rng, 50)
    est = qmul(gt, haar(rng, 1)[0])
    for i, axis in zip((3, 17, 41), rng.normal(size=(3, 3))):
        est[i] = qmul(rotation(180.0, axis), est[i])
    err = errors_deg(est, gt)
    assert np.median(err) < 1e-6
    assert abs(np.mean(err) - 3 * 180.0 / 50) < 1e-4


def test_gauge_is_on_the_right():
    # a left-multiplied common rotation changes relative orientations,
    # so it is an error, not a gauge
    rng = np.random.default_rng(3)
    gt = haar(rng, 30)
    est = qmul(rotation(40.0, [0.0, 0.0, 1.0]), gt)
    assert np.median(errors_deg(est, gt)) > 1.0


def test_relative_orientations_invariant_under_gauge():
    rng = np.random.default_rng(4)
    q = haar(rng, 5)
    g = haar(rng, 1)[0]
    rel = qmul(q[1], qconj(q[0]))
    shifted = qmul(qmul(q[1], g), qconj(qmul(q[0], g)))
    assert np.allclose(np.abs(rel @ shifted), 1.0)
