"""Synthetic view-graph corpus generator.

A graph is generated by (1) sampling a camera count and per-camera absolute
orientations (yaw-only about +y when planar, Haar-uniform otherwise),
(2) laying a random spanning tree and then random extra pairs until the
target edge fraction is reached, (3) corrupting every edge measurement with
a small rotation whose angle std sigma is drawn once per graph, and
(4) replacing a sampled fraction of edges with fully random orientations,
labelled as outliers.
"""

from __future__ import annotations

import math
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
    axis_concentration: float = 0.0
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.n_cameras
        if not (3 <= lo <= hi):
            raise SynthConfigError("n_cameras range must satisfy 3 <= lo <= hi")
        for name in ("edge_fraction", "outlier_fraction"):
            a, b = getattr(self, name)
            if not (0.0 <= a <= b <= 1.0):
                raise SynthConfigError(f"{name} range must lie in [0, 1] with lo <= hi")
        a, b = self.sigma_deg
        if not (0.0 <= a <= b):
            raise SynthConfigError("sigma_deg range must satisfy 0 <= lo <= hi")
        if not 0.0 <= self.axis_concentration <= 1.0:
            raise SynthConfigError("axis_concentration must lie in [0, 1]")

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
        f"axis_concentration={cfg.axis_concentration:g}",
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
    "axis_concentration": float,
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


def generate_graph(cfg: SynthConfig, rng: np.random.Generator) -> ViewGraph:
    """One synthetic view-graph with ground truth and outlier labels."""
    lo, hi = cfg.n_cameras
    n = int(rng.integers(lo, hi + 1))
    if n < 3:
        raise SynthConfigError("camera count must be at least 3")

    if cfg.planar:
        # yaw-only scenes: rotations about the +y axis, so qx = qz = 0
        yaw = rng.uniform(0.0, 2.0 * math.pi, size=n)
        gt = so3.qcanon([(math.cos(0.5 * a), 0.0, math.sin(0.5 * a), 0.0) for a in yaw])
    else:
        gt = so3.sample_uniform_rows(rng, n)

    # random spanning tree over a random permutation guarantees connectivity
    pairs: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[int(rng.integers(0, i))])
        pairs.add((min(a, b), max(a, b)))
    total_pairs = n * (n - 1) // 2
    frac = _sample_range(rng, cfg.edge_fraction)
    target = max(int(round(frac * total_pairs)), n - 1)
    target = min(target, total_pairs)
    while len(pairs) < target:
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a != b:
            pairs.add((min(a, b), max(a, b)))

    u, v = np.array(sorted(pairs), dtype=np.int64).T
    m = u.size
    sigma = _sample_range(rng, cfg.sigma_deg)
    out_frac = _sample_range(rng, cfg.outlier_fraction)
    n_out = int(round(out_frac * m))
    outlier = np.zeros(m, dtype=bool)
    if n_out:
        outlier[rng.choice(m, size=n_out, replace=False)] = True

    # one draw per edge, in edge order (random or noise rotation): it fixes the corpus bytes
    q = np.empty((m, 4))
    for i in range(m):
        draw = (so3.sample_uniform(rng) if outlier[i]
                else so3.sample_noise(sigma, cfg.planar, rng, cfg.axis_concentration))
        q[i] = draw.as_array()
    inlier = ~outlier
    rel = so3.qcanon(so3.qmul(gt[v[inlier]], so3.qcanon(so3.qconj(gt[u[inlier]]))))
    q[inlier] = so3.qcanon(so3.qmul(q[inlier], rel))
    return ViewGraph.from_arrays(n, u, v, q, outlier, gt)


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
