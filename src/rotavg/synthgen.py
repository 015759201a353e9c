"""Synthetic view-graphs, and corpora that are a config and a count: graph
``i`` of ``corpus(cfg, count)`` is generated on access from ``(cfg.seed, i)``.

A graph is generated by (1) sampling a camera count and per-camera absolute
orientations (yaw-only about +y when planar, Haar-uniform otherwise),
(2) laying a random spanning tree and then random extra pairs until the
target edge fraction is reached, (3) corrupting every edge measurement with
a small rotation whose angle std sigma is drawn once per graph, and
(4) replacing a sampled fraction of edges with fully random orientations,
labelled as outliers.

Every step draws a block of values at once.  The draw order (corpus v2)
fixes each graph's bits: the camera count; the N yaw angles (planar) or N
uniform rows; the edge fraction; the tree (a permutation of the cameras,
then for tree node ``i`` the index of its parent among the first ``i``);
batches of extra endpoint pairs ``(a[], b[])``, each pair accepted, in draw
order, when new and not a self-loop; sigma; the outlier fraction; the
outlier edges (``choice`` without replacement); one uniform row per outlier
in edge order; and one noise row per inlier in edge order
(``so3.sample_noise_rows``: all angles, then all axes).
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import so3, viewgraph
from .viewgraph import ViewGraph


class SynthConfigError(ValueError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class SynthConfig:
    """What a corpus draws from: range fields are inclusive ``(lo, hi)``
    pairs, each graph sampling its value uniformly in the range."""

    n_cameras: tuple[int, int] = (250, 1000)
    edge_fraction: tuple[float, float] = (0.10, 0.30)
    sigma_deg: tuple[float, float] = (5.0, 30.0)
    outlier_fraction: tuple[float, float] = (0.0, 0.30)
    planar: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, low, high, rule in (
            ("n_cameras", 3, math.inf, "integers with 3 <= lo <= hi"),
            ("edge_fraction", 0.0, 1.0, "numbers with 0 <= lo <= hi <= 1"),
            ("sigma_deg", 0.0, sys.float_info.max, "numbers with 0 <= lo <= hi < inf"),
            ("outlier_fraction", 0.0, 1.0, "numbers with 0 <= lo <= hi <= 1"),
        ):
            kind = numbers.Integral if name == "n_cameras" else numbers.Real
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(isinstance(k, kind) and not isinstance(k, bool) for k in pair)
                    and low <= pair[0] <= pair[1] <= high):
                raise SynthConfigError(f"{name} range must hold {rule}, got {pair!r}")
        if not isinstance(self.planar, (bool, np.bool_)):
            raise SynthConfigError(f"planar must be a bool, got {self.planar!r}")
        seed = self.seed
        if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
            raise SynthConfigError(f"seed must be a non-negative integer, got {seed!r}")


# ---------------------------------------------------------------------------
# Graph generation
# ---------------------------------------------------------------------------

def _sample_range(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return lo if lo == hi else float(rng.uniform(lo, hi))


def _pair_keys(n: int, target: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted keys ``u * n + v`` (u < v) of ``target`` distinct pairs: a random
    spanning tree over a random permutation (connectivity), then uniform
    extra pairs by batched rejection, accepted in draw order."""
    order = rng.permutation(n)
    a, b = order[1:], order[rng.integers(0, np.arange(1, n))]
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    free_pairs = n * (n - 1) // 2 - keys.size
    while keys.size < target:
        need = target - keys.size
        # enough draws for ``need`` acceptances in expectation, with slack
        size = int(need * n * n / (2 * free_pairs) * 1.1) + 16
        a, b = rng.integers(0, n, size=size), rng.integers(0, n, size=size)
        new = (np.minimum(a, b) * n + np.maximum(a, b))[a != b]
        _, first = np.unique(new, return_index=True)
        new = new[np.sort(first)]  # first draw of each pair, in draw order
        new = new[~np.isin(new, keys)][:need]
        keys = np.sort(np.concatenate([keys, new]))
        free_pairs -= new.size
    return keys


def generate_graph(cfg: SynthConfig, rng: np.random.Generator) -> ViewGraph:
    """One synthetic view-graph with ground truth and outlier labels."""
    lo, hi = cfg.n_cameras
    n = int(rng.integers(lo, hi + 1))
    if cfg.planar:
        half_yaw = 0.5 * rng.uniform(0.0, 2.0 * math.pi, size=n)
        zero = np.zeros(n)
        gt = so3.qcanon(np.stack([np.cos(half_yaw), zero, np.sin(half_yaw), zero], axis=1))
    else:
        gt = so3.sample_uniform_rows(rng, n)

    total_pairs = n * (n - 1) // 2
    frac = _sample_range(rng, cfg.edge_fraction)
    target = min(max(int(round(frac * total_pairs)), n - 1), total_pairs)
    keys = _pair_keys(n, target, rng)
    u, v = keys // n, keys % n
    m = u.size
    sigma = _sample_range(rng, cfg.sigma_deg)
    out_frac = _sample_range(rng, cfg.outlier_fraction)
    n_out = int(round(out_frac * m))
    outlier = np.zeros(m, dtype=bool)
    if n_out:
        outlier[rng.choice(m, size=n_out, replace=False)] = True

    q = np.empty((m, 4))
    q[outlier] = so3.sample_uniform_rows(rng, n_out)
    inlier = ~outlier
    rel = so3.qcanon(so3.qmul(gt[v[inlier]], so3.qcanon(so3.qconj(gt[u[inlier]]))))
    noise = so3.sample_noise_rows(sigma, cfg.planar, rng, m - n_out)
    q[inlier] = so3.qcanon(so3.qmul(noise, rel))
    # distinct sorted pairs u < v in range, canonical rows, 0/1 labels: the
    # constructor's checks and copies would find nothing to change
    return ViewGraph._from_valid(n, u, v, q, outlier.astype(np.int8), gt)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

TRAIN_FRACTION, VAL_FRACTION = 0.8, 0.1  # the test split takes the rest


class _Split(Sequence):
    """One split's read-only graphs; corpus graph ``i`` is made on each access."""

    def __init__(self, cfg: SynthConfig, ids: range):
        self._cfg, self._ids = cfg, ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: int) -> ViewGraph:
        i = self._ids[viewgraph.as_index(index)]
        return generate_graph(self._cfg, np.random.default_rng([self._cfg.seed, i]))


class Corpus(NamedTuple):
    """The three splits of a corpus, each a read-only sequence of graphs."""

    train: Sequence[ViewGraph]
    val: Sequence[ViewGraph]
    test: Sequence[ViewGraph]


def corpus(cfg: SynthConfig, count: int) -> Corpus:
    """The ``count`` graphs of ``cfg`` in id order: training and validation
    take ``TRAIN_FRACTION`` and ``VAL_FRACTION`` of ``count``, rounded, and
    test the rest, so from ``count`` = 10 up each split holds a graph.  A
    pass over a split holds one graph at a time."""
    if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 10:
        raise SynthConfigError(f"corpus count must be an integer >= 10, got {count!r}")
    n_train = int(round(TRAIN_FRACTION * count))
    n_val = int(round(VAL_FRACTION * count))
    bounds = (0, n_train, n_train + n_val, count)
    return Corpus(*(_Split(cfg, range(a, b)) for a, b in zip(bounds, bounds[1:])))


# ---------------------------------------------------------------------------
# Robustness-check configurations
# ---------------------------------------------------------------------------

# name -> (cameras, edge fraction, noise std upper bound (deg), outliers, planar)
_ROBUSTNESS_ROWS: dict[str, tuple[int, float, float, float, bool]] = {
    "cam250": (250, 0.25, 30.0, 0.10, True),
    "cam1000": (1000, 0.25, 30.0, 0.10, True),
    "cam5000": (5000, 0.025, 30.0, 0.10, True),
    "cam10000": (10000, 0.025, 30.0, 0.10, True),
    "cam25000": (25000, 0.025, 30.0, 0.10, True),
    "dense25": (1000, 0.25, 30.0, 0.10, True),
    "sparse2.5": (1000, 0.025, 30.0, 0.10, True),
    "noise30o10": (1000, 0.25, 30.0, 0.10, True),
    "noise10o5": (1000, 0.25, 10.0, 0.05, True),
    "planar": (1000, 0.25, 30.0, 0.10, True),
    "nonplanar": (1000, 0.25, 30.0, 0.10, False),
}


def robustness_suite(name: str, seed: int = 0) -> SynthConfig:
    """Named generator configuration for the robustness-check datasets.

    Noise std is drawn uniformly in ``(0, E]`` degrees and the outlier
    fraction is fixed per dataset.
    """
    try:
        n, frac, sigma_hi, outliers, planar = _ROBUSTNESS_ROWS[name]
    except KeyError:
        raise SynthConfigError(
            f"unknown robustness dataset {name!r}; known: {sorted(_ROBUSTNESS_ROWS)}"
        ) from None
    return SynthConfig(
        n_cameras=(n, n),
        edge_fraction=(frac, frac),
        sigma_deg=(0.0, sigma_hi),
        outlier_fraction=(outliers, outliers),
        planar=planar,
        seed=seed,
    )
