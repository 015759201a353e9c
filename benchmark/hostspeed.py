"""Host-speed reference kernel.

Other tenants of a shared host slow every process on it, by a factor that
drifts over seconds to minutes: up to ±30 % on a shared 2-vCPU Xeon host,
and the same in CPU time as in wall time.  The benchmark samples this fixed
kernel before every set-up and every timed operation, and once after the
last, and scales each timing by ``NOMINAL_S`` over the mean of the samples
on either side of it.  A scaled timing reads as CPU seconds on a host where
the kernel takes ``NOMINAL_S``.  The kernel is the benchmark's own code, so
a change to ``rotavg`` cannot move it.

Its parts mirror the package's instruction mix: text parsing into Python
floats, per-row quaternion products on tiny arrays, vectorised quaternion
arithmetic over thousands of rows, small dense matmuls, scatter-adds with
``ufunc.at`` and loops of small-vector updates like a CG iteration.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from inputs import Shape, make_graph
from quat import angle_deg, qconj, qmul

NOMINAL_S = 0.012  # about the kernel's CPU time on a quiet 2-vCPU Xeon host
KERNEL_REPS = 3    # one sample is the median of this many kernel runs
_GRAPH = make_graph(Shape(60, 0.3, 0.1), 10.0, np.random.default_rng(12345))
_RNG = np.random.default_rng(54321)
_MATS = _RNG.normal(size=(3, 68, 32)) * 0.1
_IDX = _RNG.integers(0, 500, size=4000)
_VALS = _RNG.normal(size=(4000, 3))
_X0 = _RNG.normal(size=(300, 3))


def kernel() -> float:
    rows = []
    for line in _GRAPH.text.splitlines()[1:]:
        parts = line.split()
        rows.append([float(p) for p in parts[-5:-1]] if parts[0] == "EDGE" else [1.0, 0.0, 0.0, 0.0])
    q = np.array(rows)
    acc = np.array([1.0, 0.0, 0.0, 0.0])
    for r in q[:300]:
        acc = qmul(acc, r)
        acc /= np.linalg.norm(acc)
    big = np.tile(q, (8, 1))
    ang = angle_deg(qmul(qconj(big), big[::-1]))
    h = np.tile(q, (4, 17))[:, :68]
    for w in _MATS:
        h = np.maximum(h @ w, 0.0)
        h = np.concatenate([h, h, h[:, :4]], axis=1)
    out = np.zeros((500, 3))
    for _ in range(3):
        np.subtract.at(out, _IDX, _VALS)
    x = _X0.copy()
    for _ in range(80):
        r = x * 0.99 + 0.01
        x = r / np.sqrt(np.sum(r * r, axis=0))
    return float(acc[0] + ang.sum() + h.sum() + out.sum() + x.sum())


class HostSpeed:
    """Samples of the kernel's CPU time within one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take a sample; returns its index, the mark of what runs next."""
        times = []
        for _ in range(KERNEL_REPS):
            t0 = time.process_time()
            kernel()
            times.append(time.process_time() - t0)
        self.samples.append(statistics.median(times))
        return len(self.samples) - 1

    def scale(self, cpu_s: float, mark: int) -> float:
        """A CPU time taken between samples ``mark`` and ``mark + 1``, at the
        nominal speed."""
        return cpu_s * NOMINAL_S / statistics.fmean(self.samples[mark:mark + 2])

    def factor(self) -> float:
        """Scale for CPU times spread over the whole run."""
        return NOMINAL_S / statistics.median(self.samples)
