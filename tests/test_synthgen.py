from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from rotavg import so3, synthgen, viewgraph
from rotavg.synthgen import SynthConfig, SynthConfigError


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
            assert so3.geodesic_deg(e.q, g.relative_gt(e.u, e.v)) < 1e-9

    def test_planar_gt_is_pure_yaw(self):
        cfg = SynthConfig(n_cameras=(30, 30), planar=True, seed=1)
        g = synthgen.generate_graph(cfg, np.random.default_rng(1))
        for q in g.gt:
            assert abs(q.x) < 1e-12 and abs(q.z) < 1e-12

    def test_nonplanar_gt_is_not_yaw(self):
        cfg = SynthConfig(n_cameras=(30, 30), planar=False, seed=2)
        g = synthgen.generate_graph(cfg, np.random.default_rng(2))
        assert max(abs(q.x) for q in g.gt) > 0.05

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
        shifted = [so3.compose(q, r) for q in g1.gt]
        for e in g1.edges:
            rel_shift = so3.relative(shifted[e.u], shifted[e.v])
            assert so3.geodesic_deg(rel_shift, g1.relative_gt(e.u, e.v)) < 1e-9

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
                rule = so3.geodesic_deg(e.q, g.relative_gt(e.u, e.v)) > 20.0
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
