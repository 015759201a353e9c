"""Seeded view-graph inputs, written as ``VIEWGRAPH v1`` text.

The generator follows the paper's synthetic recipe: planar (yaw-only)
ground truth, a random spanning tree plus random extra pairs up to the
edge fraction, per-edge noise of angle ``|N(0, sigma)|`` about a uniform
axis with ``sigma`` fixed per graph (see ``sigma_grid``), and a fixed fraction of edges
replaced by Haar-random rotations and labelled as outliers.

It uses numpy only, not ``rotavg.synthgen``, so that a change to the
package's own random streams cannot change the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quat import qconj, qmul


@dataclass(frozen=True)
class Shape:
    """Size and corruption of one generated graph."""

    n: int
    edge_fraction: float
    outlier_fraction: float

    def n_edges(self) -> int:
        pairs = self.n * (self.n - 1) // 2
        return min(max(int(round(self.edge_fraction * pairs)), self.n - 1), pairs)


DESK = Shape(n=100, edge_fraction=0.2, outlier_fraction=0.1)  # N=100, E=990
SIGMA_MAX_DEG = 30.0


@dataclass
class SynthGraph:
    """A generated graph as plain arrays plus its text form."""

    gt: np.ndarray        # (N, 4) ground-truth orientations
    u: np.ndarray         # (E,) int64, u < v
    v: np.ndarray         # (E,) int64
    q: np.ndarray         # (E, 4) measured orientation of u -> v
    outlier: np.ndarray   # (E,) bool
    text: str


def _pairs(n: int, n_edges: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random spanning tree plus distinct random pairs, sorted by (u, v)."""
    order = rng.permutation(n)
    parents = order[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    a, b = order[1:], parents
    tree = np.minimum(a, b) * n + np.maximum(a, b)
    iu, iv = np.triu_indices(n, 1)
    ids = iu * n + iv
    extra = ids[rng.permutation(ids.size)]
    extra = extra[~np.isin(extra, tree)][: n_edges - tree.size]
    keys = np.sort(np.concatenate([tree, extra]))
    return keys // n, keys % n


def _haar(rng: np.random.Generator, m: int) -> np.ndarray:
    g = rng.normal(size=(m, 4))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def to_text(gt: np.ndarray, u: np.ndarray, v: np.ndarray, q: np.ndarray,
            outlier: np.ndarray) -> str:
    """``VIEWGRAPH v1`` text with ground truth and outlier labels."""
    lines = ["VIEWGRAPH v1"]
    lines += [f"NODE {i} {r[0]!r} {r[1]!r} {r[2]!r} {r[3]!r}" for i, r in enumerate(gt.tolist())]
    lines += [f"EDGE {a} {b} {r[0]!r} {r[1]!r} {r[2]!r} {r[3]!r} {int(o)}"
              for a, b, r, o in zip(u.tolist(), v.tolist(), q.tolist(), outlier.tolist())]
    return "\n".join(lines) + "\n"


def make_graph(shape: Shape, sigma_deg: float, rng: np.random.Generator) -> SynthGraph:
    """One graph of ``shape`` with noise level ``sigma_deg``."""
    n = shape.n
    yaw = rng.uniform(0.0, 2.0 * np.pi, size=n)
    gt = np.zeros((n, 4))
    gt[:, 0] = np.cos(0.5 * yaw)
    gt[:, 2] = np.sin(0.5 * yaw)
    u, v = _pairs(n, shape.n_edges(), rng)
    m = u.size

    angle = np.minimum(np.abs(rng.normal(0.0, np.radians(sigma_deg), size=m)), np.pi)
    axis = rng.normal(size=(m, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    noise = np.concatenate([np.cos(0.5 * angle)[:, None],
                            np.sin(0.5 * angle)[:, None] * axis], axis=1)
    q = qmul(noise, qmul(gt[v], qconj(gt[u])))

    outlier = np.zeros(m, dtype=bool)
    outlier[rng.choice(m, size=int(round(shape.outlier_fraction * m)), replace=False)] = True
    q[outlier] = _haar(rng, int(outlier.sum()))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return SynthGraph(gt=gt, u=u, v=v, q=q, outlier=outlier, text=to_text(gt, u, v, q, outlier))


def sigma_grid(sigma_max_deg: float, count: int) -> list[float]:
    """Noise levels at the midpoints of ``count`` equal strata of (0, max]."""
    return [sigma_max_deg * (k + 0.5) / count for k in range(count)]


def make_graphs(shape: Shape, sigma_max_deg: float, count: int, seed: int,
                stream: int) -> list[SynthGraph]:
    """``count`` graphs, graph ``k`` from the rng substream ``(seed, stream, k)``."""
    return [make_graph(shape, s, np.random.default_rng([seed, stream, k]))
            for k, s in enumerate(sigma_grid(sigma_max_deg, count))]
