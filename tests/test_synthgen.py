from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from rotavg import so3, synthgen, viewgraph
from rotavg.so3 import UnitQuaternion
from rotavg.synthgen import SynthConfig, SynthConfigError
from rotavg.viewgraph import Edge, ViewGraph


def relative_gt(g, u, v):
    """Ground-truth relative orientation of edge u -> v, from the quaternion oracle."""
    return so3.relative(UnitQuaternion.from_array(g.gt[u]), UnitQuaternion.from_array(g.gt[v]))


def is_connected_oracle(g) -> bool:
    if g.n_nodes == 0:
        return True
    nbrs = [set() for _ in range(g.n_nodes)]
    for e in g.edges:
        nbrs[e.u].add(e.v)
        nbrs[e.v].add(e.u)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.n_nodes


def generate_graph_oracle(cfg: SynthConfig, rng: np.random.Generator) -> ViewGraph:
    # the per-edge Edge/compose construction the row generator replaced, kept as the oracle
    lo, hi = cfg.n_cameras
    n = int(rng.integers(lo, hi + 1))
    if cfg.planar:
        yaw = rng.uniform(0.0, 2.0 * math.pi, size=n)
        gt = [UnitQuaternion(math.cos(0.5 * a), 0.0, math.sin(0.5 * a), 0.0) for a in yaw]
    else:
        gt = [UnitQuaternion.from_array(row) for row in so3.sample_uniform_rows(rng, n)]
    pairs: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[int(rng.integers(0, i))])
        pairs.add((min(a, b), max(a, b)))
    total_pairs = n * (n - 1) // 2
    frac = synthgen._sample_range(rng, cfg.edge_fraction)
    target = min(max(int(round(frac * total_pairs)), n - 1), total_pairs)
    while len(pairs) < target:
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edge_list = sorted(pairs)
    sigma = synthgen._sample_range(rng, cfg.sigma_deg)
    out_frac = synthgen._sample_range(rng, cfg.outlier_fraction)
    n_out = int(round(out_frac * len(edge_list)))
    out_idx = set(rng.choice(len(edge_list), size=n_out, replace=False).tolist()) if n_out else set()
    edges = []
    for i, (u, v) in enumerate(edge_list):
        if i in out_idx:
            edges.append(Edge(u, v, so3.sample_uniform(rng), True))
        else:
            noise = so3.sample_noise(sigma, cfg.planar, rng, cfg.axis_concentration)
            edges.append(Edge(u, v, so3.compose(noise, so3.relative(gt[u], gt[v])), False))
    return ViewGraph(n, edges, gt)


class TestConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(SynthConfigError):
            SynthConfig(n_cameras=(2, 10))
        with pytest.raises(SynthConfigError):
            SynthConfig(edge_fraction=(0.5, 0.1))
        with pytest.raises(SynthConfigError):
            SynthConfig(outlier_fraction=(0.0, 1.5))
        with pytest.raises(SynthConfigError):
            SynthConfig(sigma_deg=(-1.0, 5.0))

    def test_config_file_round_trip(self, tmp_path):
        cfg = SynthConfig(
            n_cameras=(60, 150), edge_fraction=(0.1, 0.3), sigma_deg=(5, 30),
            outlier_fraction=(0.0, 0.3), planar=False, axis_concentration=0.5, seed=9,
        )
        path = tmp_path / "gen.cfg"
        synthgen.save_config(cfg, path)
        assert synthgen.load_config(path) == cfg

    def test_config_file_errors(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense\n")
        with pytest.raises(SynthConfigError):
            synthgen.load_config(path)
        path.write_text("frobnicate=1\n")
        with pytest.raises(SynthConfigError):
            synthgen.load_config(path)

    @pytest.mark.parametrize("line", ["seed=abc", "axis_concentration=x", "planar=no",
                                      "planar=", "sigma_deg=1:x"])
    def test_bad_values_name_the_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# header\nseed=3\n{line}\n")
        key = line.split("=")[0]
        with pytest.raises(SynthConfigError, match=f"line 3: bad {key} value"):
            synthgen.load_config(path)

    def test_planar_flags(self, tmp_path):
        path = tmp_path / "flags.cfg"
        for text, planar in (("0", False), ("false", False), ("False", False),
                             ("1", True), ("true", True), ("TRUE", True)):
            path.write_text(f"planar={text}\n")
            assert synthgen.load_config(path).planar is planar


class TestGenerateGraph:
    def test_clean_graph_is_exact(self):
        cfg = SynthConfig(
            n_cameras=(15, 15), edge_fraction=(0.4, 0.4),
            sigma_deg=(0.0, 0.0), outlier_fraction=(0.0, 0.0), seed=0,
        )
        g = synthgen.generate_graph(cfg, np.random.default_rng(0))
        for e in g.edges:
            assert e.gt_outlier is False
            assert so3.geodesic_deg(e.q, relative_gt(g, e.u, e.v)) < 1e-9

    def test_planar_gt_is_pure_yaw(self):
        cfg = SynthConfig(n_cameras=(30, 30), planar=True, seed=1)
        g = synthgen.generate_graph(cfg, np.random.default_rng(1))
        assert np.all(np.abs(g.gt[:, [1, 3]]) < 1e-12)

    def test_nonplanar_gt_is_not_yaw(self):
        cfg = SynthConfig(n_cameras=(30, 30), planar=False, seed=2)
        g = synthgen.generate_graph(cfg, np.random.default_rng(2))
        assert np.max(np.abs(g.gt[:, 1])) > 0.05

    def test_edge_and_outlier_fractions(self):
        cfg = SynthConfig(
            n_cameras=(120, 120), edge_fraction=(0.2, 0.2),
            sigma_deg=(10.0, 10.0), outlier_fraction=(0.15, 0.15), seed=3,
        )
        g = synthgen.generate_graph(cfg, np.random.default_rng(3))
        total_pairs = g.n_nodes * (g.n_nodes - 1) / 2
        measured = len(g.edges) / total_pairs
        assert abs(measured - 0.2) < 0.01
        label_frac = sum(e.gt_outlier for e in g.edges) / len(g.edges)
        assert abs(label_frac - 0.15) < 0.01

    def test_connectivity(self):
        for seed in range(25):
            cfg = SynthConfig(n_cameras=(5, 60), edge_fraction=(0.02, 0.3), seed=seed)
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed))
            assert is_connected_oracle(g)

    def test_gauge_neutrality(self):
        # right-multiplying all ground truth by a fixed rotation leaves the
        # measured relative orientations unchanged under the same rng stream
        cfg = SynthConfig(n_cameras=(20, 20), edge_fraction=(0.3, 0.3), seed=5)
        g1 = synthgen.generate_graph(cfg, np.random.default_rng(5))
        g2 = synthgen.generate_graph(cfg, np.random.default_rng(5))
        r = so3.sample_uniform(np.random.default_rng(99))
        # emulate the gauge shift on the second graph's ground truth and
        # verify every edge is reproduced by the shifted truth + same noise
        for e1, e2 in zip(g1.edges, g2.edges):
            assert np.array_equal(e1.q.as_array(), e2.q.as_array())
        shifted = [so3.compose(UnitQuaternion.from_array(q), r) for q in g1.gt]
        for e in g1.edges:
            rel_shift = so3.relative(shifted[e.u], shifted[e.v])
            assert so3.geodesic_deg(rel_shift, relative_gt(g1, e.u, e.v)) < 1e-9

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_edge_oracle(self, planar, seed):
        cfg = SynthConfig(n_cameras=(8, 40), edge_fraction=(0.05, 0.6), sigma_deg=(0.0, 30.0),
                          outlier_fraction=(0.0, 0.3), planar=planar,
                          axis_concentration=0.3 * seed, seed=seed)
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        text = viewgraph.serialize(synthgen.generate_graph(cfg, rng))
        assert text == viewgraph.serialize(generate_graph_oracle(cfg, rng_oracle))
        # both consumed the same draws, so the stream continues in step
        assert rng.integers(2**62) == rng_oracle.integers(2**62)

    def test_outlier_labels_match_angle_rule(self):
        # injected outliers are uniformly random, so they sit > 20 degrees
        # from the true relative except with negligible probability; low-noise
        # inliers stay below the threshold
        agree = 0
        total = 0
        for seed in range(5):
            cfg = SynthConfig(
                n_cameras=(60, 60), edge_fraction=(0.2, 0.2),
                sigma_deg=(2.0, 10.0), outlier_fraction=(0.2, 0.2), seed=seed,
            )
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed + 10))
            for e in g.edges:
                rule = so3.geodesic_deg(e.q, relative_gt(g, e.u, e.v)) > 20.0
                agree += int(rule == e.gt_outlier)
                total += 1
        assert agree / total >= 0.97


class TestDataset:
    def test_split_counts(self, tmp_path):
        cfg = SynthConfig(n_cameras=(6, 10), seed=0)
        manifest = synthgen.generate_dataset(cfg, 10, tmp_path)
        assert [len(manifest[k]) for k in ("train", "val", "test")] == [8, 1, 1]
        loaded = synthgen.load_manifest(tmp_path)
        assert [len(loaded[k]) for k in ("train", "val", "test")] == [8, 1, 1]
        graphs = synthgen.load_split(tmp_path, "train")
        assert len(graphs) == 8 and all(g.has_full_gt for g in graphs)

    def test_deterministic_bytes(self, tmp_path):
        cfg = SynthConfig(n_cameras=(5, 9), seed=11)
        synthgen.generate_dataset(cfg, 10, tmp_path / "a")
        synthgen.generate_dataset(cfg, 10, tmp_path / "b")
        files_a = sorted((tmp_path / "a").rglob("*.vg"))
        files_b = sorted((tmp_path / "b").rglob("*.vg"))
        assert len(files_a) == 10
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_count_too_small(self, tmp_path):
        with pytest.raises(SynthConfigError):
            synthgen.generate_dataset(SynthConfig(), 5, tmp_path)

    def test_desk_profile_ranges(self):
        cfg = SynthConfig.desk(seed=1)
        assert cfg.n_cameras == (60, 150)
        assert cfg.edge_fraction == (0.10, 0.30)
        assert cfg.sigma_deg == (5.0, 30.0)
        assert cfg.outlier_fraction == (0.0, 0.30)
        assert cfg.planar


class TestRobustnessSuite:
    def test_sparse_row(self):
        cfg = synthgen.robustness_suite("sparse2.5")
        assert cfg.n_cameras == (1000, 1000)
        assert cfg.edge_fraction == (0.025, 0.025)
        assert cfg.sigma_deg == (0.0, 30.0)
        assert cfg.outlier_fraction == (0.10, 0.10)
        assert cfg.planar

    def test_noise_row(self):
        cfg = synthgen.robustness_suite("noise10o5")
        assert cfg.sigma_deg == (0.0, 10.0)
        assert cfg.outlier_fraction == (0.05, 0.05)

    def test_nonplanar_row(self):
        assert synthgen.robustness_suite("nonplanar").planar is False
        assert synthgen.robustness_suite("planar").planar is True

    def test_camera_rows(self):
        assert synthgen.robustness_suite("cam250").n_cameras == (250, 250)
        assert synthgen.robustness_suite("cam25000").edge_fraction == (0.025, 0.025)

    def test_unknown_name(self):
        with pytest.raises(SynthConfigError, match="unknown"):
            synthgen.robustness_suite("cam9000")
