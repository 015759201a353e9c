"""Central finite-difference gradient oracle shared by the test modules."""

from __future__ import annotations

import numpy as np

from rotavg.autodiff import Tape


def fd_gradients(build, params: dict[str, np.ndarray], h: float = 1e-5, tape_cls=Tape):
    """Compare analytic gradients against central differences.

    ``build(tape, tensors) -> scalar Tensor`` must be a pure function of the
    parameter values; its tapes are ``tape_cls`` instances.  Returns the worst relative error over all parameters,
    measured as max |analytic - fd| / max(max |fd|, 1e-8).
    """

    def value() -> float:
        tape = tape_cls()
        tensors = {k: tape.leaf(v) for k, v in params.items()}
        return float(build(tape, tensors).values)

    tape = tape_cls()
    tensors = {k: tape.leaf(v, requires_grad=True) for k, v in params.items()}
    loss = build(tape, tensors)
    tape.backward(loss)

    worst = 0.0
    for name, arr in params.items():
        analytic = tensors[name].grad
        if analytic is None:
            # structurally unreached parameter; treated as zero gradient
            analytic = np.zeros_like(arr)
        fd = np.zeros_like(arr)
        flat = arr.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = value()
            flat[i] = orig - h
            minus = value()
            flat[i] = orig
            fd_flat[i] = (plus - minus) / (2.0 * h)
        scale = max(float(np.max(np.abs(fd))), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)
    return worst
