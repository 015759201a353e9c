"""Central finite-difference gradient oracle shared by the test modules."""

from __future__ import annotations

import numpy as np


def fd_gradients(loss_and_grads, params: dict[str, np.ndarray], h: float = 1e-5):
    """Compare analytic gradients against central differences.

    ``loss_and_grads(params) -> (loss, grads)`` must be a pure function of
    the parameter values, its ``grads`` a gradient per name of ``params``.
    Returns the worst relative error over all parameters, measured as
    max |analytic - fd| / max(max |fd|, 1e-8).
    """
    analytic = loss_and_grads(params)[1]
    worst = 0.0
    for name, arr in params.items():
        fd = np.zeros_like(arr)
        flat = arr.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss_and_grads(params)[0]
            flat[i] = orig - h
            minus = loss_and_grads(params)[0]
            flat[i] = orig
            fd_flat[i] = (plus - minus) / (2.0 * h)
        scale = max(float(np.max(np.abs(fd))), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic[name] - fd))) / scale)
    return worst
