"""Synthetic view-graph corpus generator (corpus v2).

A graph is generated by (1) sampling a camera count and per-camera absolute
orientations (yaw-only about +y when planar, Haar-uniform otherwise),
(2) laying a random spanning tree and then random extra pairs until the
target edge fraction is reached, (3) corrupting every edge measurement with
a small rotation whose angle std sigma is drawn once per graph, and
(4) replacing a sampled fraction of edges with fully random orientations,
labelled as outliers.

Every step draws a block of values at once.  The draw order fixes the
corpus bytes: the camera count; the N yaw angles (planar) or N uniform rows;
the edge fraction; the tree (a permutation of the cameras, then for tree
node ``i`` the index of its parent among the first ``i``); batches of extra
endpoint pairs ``(a[], b[])``, each pair accepted, in draw order, when new
and not a self-loop; sigma; the outlier fraction; the outlier edges
(``choice`` without replacement); one uniform row per outlier in edge
order; and one noise row per inlier in edge order (``so3.sample_noise_rows``:
all angles, then all axes).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import so3, viewgraph
from .viewgraph import ViewGraph


class SynthConfigError(ValueError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; range fields are inclusive ``(lo, hi)`` pairs."""

    n_cameras: tuple[int, int] = (250, 1000)
    edge_fraction: tuple[float, float] = (0.10, 0.30)
    sigma_deg: tuple[float, float] = (5.0, 30.0)
    outlier_fraction: tuple[float, float] = (0.0, 0.30)
    planar: bool = True
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.n_cameras
        if not all(isinstance(k, numbers.Integral) for k in (lo, hi)):
            raise SynthConfigError(f"n_cameras range must hold integers, got {self.n_cameras!r}")
        if not (3 <= lo <= hi):
            raise SynthConfigError("n_cameras range must satisfy 3 <= lo <= hi")
        for name in ("edge_fraction", "outlier_fraction"):
            a, b = getattr(self, name)
            if not (0.0 <= a <= b <= 1.0):
                raise SynthConfigError(f"{name} range must lie in [0, 1] with lo <= hi")
        a, b = self.sigma_deg
        if not (0.0 <= a <= b):
            raise SynthConfigError("sigma_deg range must satisfy 0 <= lo <= hi")

    @classmethod
    def desk(cls, seed: int = 0) -> "SynthConfig":
        """Small-camera profile that keeps CI runs in minutes."""
        return cls(n_cameras=(60, 150), seed=seed)


# --- flat key=value config files ------------------------------------------

def _format_range(value: tuple) -> str:
    lo, hi = value
    return f"{lo:g}:{hi:g}"


def save_config(cfg: SynthConfig, path: str | Path) -> None:
    lines = [
        f"n_cameras={cfg.n_cameras[0]}:{cfg.n_cameras[1]}",
        f"edge_fraction={_format_range(cfg.edge_fraction)}",
        f"sigma_deg={_format_range(cfg.sigma_deg)}",
        f"outlier_fraction={_format_range(cfg.outlier_fraction)}",
        f"planar={int(cfg.planar)}",
        f"seed={cfg.seed}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_range(text: str, as_int: bool = False) -> tuple:
    parts = text.split(":")
    if len(parts) == 1:
        parts = [parts[0], parts[0]]
    if len(parts) != 2:
        raise SynthConfigError(f"bad range {text!r}; expected 'lo:hi'")
    try:
        vals = [int(p) if as_int else float(p) for p in parts]
    except ValueError as exc:
        raise SynthConfigError(f"bad range {text!r}: {exc}") from None
    return (vals[0], vals[1])


def _parse_bool(text: str) -> bool:
    flags = {"0": False, "false": False, "1": True, "true": True}
    if text.lower() not in flags:
        raise SynthConfigError("expected 0, 1, true or false")
    return flags[text.lower()]


_FIELD_PARSERS = {
    "n_cameras": lambda text: _parse_range(text, as_int=True),
    "edge_fraction": _parse_range,
    "sigma_deg": _parse_range,
    "outlier_fraction": _parse_range,
    "planar": _parse_bool,
    "seed": int,
}


def load_config(path: str | Path) -> SynthConfig:
    kwargs: dict = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SynthConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise SynthConfigError(f"line {line_no}: unknown key {key!r}")
        try:
            kwargs[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:  # SynthConfigError included
            raise SynthConfigError(f"line {line_no}: bad {key} value {value!r}: {exc}") from None
    return SynthConfig(**kwargs)


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
    return ViewGraph(n, u, v, q, outlier, gt)


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.txt"
SPLIT_NAMES = ("train", "val", "test")


def _split_counts(count: int, split: tuple[float, float, float]) -> tuple[int, int, int]:
    if abs(sum(split) - 1.0) > 1e-9:
        raise SynthConfigError("split fractions must sum to 1")
    n_train = int(round(split[0] * count))
    n_val = int(round(split[1] * count))
    n_test = count - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise SynthConfigError("each split must receive at least one graph")
    return n_train, n_val, n_test


def generate_dataset(
    cfg: SynthConfig,
    count: int,
    out_dir: str | Path,
    split: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> dict[str, list[Path]]:
    """Write ``count`` graphs under ``out_dir`` and a manifest of the splits.

    Graph ``i`` is drawn from an independent rng substream keyed by
    ``(cfg.seed, i)``, so corpora are reproducible byte for byte.
    """
    if count < 10:
        raise SynthConfigError("dataset generation requires count >= 10")
    out_dir = Path(out_dir)
    counts = _split_counts(count, split)
    bounds = np.cumsum((0,) + counts)
    manifest: dict[str, list[Path]] = {name: [] for name in SPLIT_NAMES}
    for name in SPLIT_NAMES:
        (out_dir / name).mkdir(parents=True, exist_ok=True)
    for i in range(count):
        split_idx = int(np.searchsorted(bounds, i, side="right") - 1)
        name = SPLIT_NAMES[split_idx]
        rng = np.random.default_rng([cfg.seed, i])
        g = generate_graph(cfg, rng)
        rel = Path(name) / f"graph_{i:04d}.vg"
        (out_dir / rel).write_text(viewgraph.serialize(g), encoding="utf-8")
        manifest[name].append(rel)
    lines = []
    for name in SPLIT_NAMES:
        lines.append(f"[{name}]")
        lines.extend(str(p) for p in manifest[name])
    (out_dir / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_manifest(manifest_path: str | Path) -> dict[str, list[Path]]:
    """Read a manifest; paths are returned resolved against its directory."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    base = manifest_path.parent
    sections: dict[str, list[Path]] = {name: [] for name in SPLIT_NAMES}
    current: str | None = None
    for raw in manifest_path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current not in sections:
                raise SynthConfigError(f"unknown manifest section {current!r}")
            continue
        if current is None:
            raise SynthConfigError("manifest entry before any section header")
        sections[current].append(base / line)
    return sections


def load_split(manifest_path: str | Path, name: str) -> list[ViewGraph]:
    paths = load_manifest(manifest_path)[name]
    return [viewgraph.parse(p.read_text(encoding="utf-8")) for p in paths]


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
