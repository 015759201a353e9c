from __future__ import annotations

import ast
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import so3_oracle
from rotavg import so3, synthgen, viewgraph
from rotavg.synthgen import SynthConfig, SynthConfigError
from rotavg.viewgraph import ViewGraph
from so3_oracle import Edge, UnitQuaternion, edge_graph, edge_records


def relative_gt(g, u, v):
    """Ground-truth relative orientation of edge u -> v, from the quaternion oracle."""
    return so3_oracle.relative(UnitQuaternion.from_array(g.gt[u]),
                               UnitQuaternion.from_array(g.gt[v]))


def is_connected_oracle(g) -> bool:
    if g.n_nodes == 0:
        return True
    nbrs = [set() for _ in range(g.n_nodes)]
    for e in edge_records(g):
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
    """Corpus v2 replayed one value at a time: every block draw of the
    generator becomes a loop of scalar draws, pairs are accepted through a
    Python set and edges are built by composing oracle quaternions."""
    lo, hi = cfg.n_cameras
    n = int(rng.integers(lo, hi + 1))
    if cfg.planar:
        yaw = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
        gt = [UnitQuaternion(math.cos(0.5 * a), 0.0, math.sin(0.5 * a), 0.0) for a in yaw]
    else:
        gt = [so3_oracle.sample_uniform(rng) for _ in range(n)]
    total_pairs = n * (n - 1) // 2
    frac = synthgen._sample_range(rng, cfg.edge_fraction)
    target = min(max(int(round(frac * total_pairs)), n - 1), total_pairs)
    order = rng.permutation(n)
    pairs = set()
    for i in range(1, n):
        a, b = int(order[i]), int(order[int(rng.integers(0, i))])
        pairs.add((min(a, b), max(a, b)))
    free_pairs = total_pairs - len(pairs)
    while len(pairs) < target:
        need = target - len(pairs)
        size = int(need * n * n / (2 * free_pairs) * 1.1) + 16
        batch = zip(rng.integers(0, n, size=size).tolist(), rng.integers(0, n, size=size).tolist())
        for a, b in batch:
            if a != b and (min(a, b), max(a, b)) not in pairs and len(pairs) < target:
                pairs.add((min(a, b), max(a, b)))
                free_pairs -= 1
    edge_list = sorted(pairs)
    m = len(edge_list)
    sigma = synthgen._sample_range(rng, cfg.sigma_deg)
    n_out = int(round(synthgen._sample_range(rng, cfg.outlier_fraction) * m))
    outliers = set(rng.choice(m, size=n_out, replace=False).tolist()) if n_out else set()
    uniform = {i: so3_oracle.sample_uniform(rng) for i in sorted(outliers)}
    inliers = [i for i in range(m) if i not in outliers]
    angles = [min(abs(rng.normal(0.0, math.radians(sigma))), math.pi) if sigma > 0.0 else 0.0
              for _ in inliers]
    if cfg.planar:
        axes = [(math.sin(phi), 0.0, math.cos(phi))
                for phi in [rng.uniform(0.0, 2.0 * math.pi) for _ in inliers]]
    else:
        axes = [axis / np.linalg.norm(axis) for axis in [rng.normal(size=3) for _ in inliers]]
    edges = [Edge(u, v, uniform[i], True) for i, (u, v) in enumerate(edge_list) if i in outliers]
    for i, axis, angle in zip(inliers, axes, angles):
        u, v = edge_list[i]
        noise = so3_oracle.from_axis_angle(axis, angle)
        q = so3_oracle.compose(noise, so3_oracle.relative(gt[u], gt[v]))
        edges.append(Edge(u, v, q, False))
    return edge_graph(n, sorted(edges, key=lambda e: (e.u, e.v)), gt)


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
        with pytest.raises(SynthConfigError, match="hi < inf"):
            SynthConfig(sigma_deg=(0.0, math.inf))

    @pytest.mark.parametrize("n_cameras", [(3.5, 5), (3, 5.0), ("3", 5), (3, None)])
    def test_rejects_non_integer_camera_counts(self, n_cameras):
        with pytest.raises(SynthConfigError, match="n_cameras range must hold integers"):
            SynthConfig(n_cameras=n_cameras)
        assert SynthConfig(n_cameras=(np.int64(3), 5)).n_cameras == (3, 5)

    @pytest.mark.parametrize("field, value", [
        ("sigma_deg", ("1", 2)), ("outlier_fraction", (0.1, None)), ("edge_fraction", (0.1,)),
        ("n_cameras", 5), ("n_cameras", (3, True)), ("sigma_deg", [1.0, 2.0]),
    ])
    def test_malformed_ranges_are_named(self, field, value):
        with pytest.raises(SynthConfigError, match=f"{field} range must hold"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None, -1, False])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(SynthConfigError, match="seed must be a non-negative integer"):
            SynthConfig(seed=seed)
        assert SynthConfig(seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("planar", ["no", "", 0, 1, None])
    def test_planar_must_be_a_bool(self, planar):
        with pytest.raises(SynthConfigError, match="planar must be a bool"):
            SynthConfig(planar=planar)
        assert SynthConfig(planar=np.True_).planar and not SynthConfig(planar=np.False_).planar


class TestGenerateGraph:
    def test_clean_graph_is_exact(self):
        cfg = SynthConfig(
            n_cameras=(15, 15), edge_fraction=(0.4, 0.4),
            sigma_deg=(0.0, 0.0), outlier_fraction=(0.0, 0.0), seed=0,
        )
        g = synthgen.generate_graph(cfg, np.random.default_rng(0))
        for e in edge_records(g):
            assert e.gt_outlier is False
            assert so3_oracle.geodesic_deg(e.q, relative_gt(g, e.u, e.v)) < 1e-9

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
        label_frac = sum(e.gt_outlier for e in edge_records(g)) / len(g.edges)
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
        r = so3_oracle.sample_uniform(np.random.default_rng(99))
        # emulate the gauge shift on the second graph's ground truth and
        # verify every edge is reproduced by the shifted truth + same noise
        for e1, e2 in zip(edge_records(g1), edge_records(g2)):
            assert np.array_equal(e1.q.as_array(), e2.q.as_array())
        shifted = [so3_oracle.compose(UnitQuaternion.from_array(q), r) for q in g1.gt]
        for e in edge_records(g1):
            rel_shift = so3_oracle.relative(shifted[e.u], shifted[e.v])
            assert so3_oracle.geodesic_deg(rel_shift, relative_gt(g1, e.u, e.v)) < 1e-9

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_edge_oracle(self, planar, seed):
        cfg = SynthConfig(n_cameras=(8, 40), edge_fraction=(0.05, 0.6), sigma_deg=(0.0, 30.0),
                          outlier_fraction=(0.0, 0.3), planar=planar, seed=seed)
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        g, want = synthgen.generate_graph(cfg, rng), generate_graph_oracle(cfg, rng_oracle)
        assert g.n_nodes == want.n_nodes
        for a, b in zip(g.endpoint_arrays(), want.endpoint_arrays()):
            assert np.array_equal(a, b)
        assert np.array_equal(g.edge_labels(), want.edge_labels())
        # the oracle renormalizes each noise axis once more, so rows agree to rounding
        assert np.max(np.abs(g.gt - want.gt)) <= 1e-15
        assert np.max(np.abs(g.edge_quat_array() - want.edge_quat_array())) <= 1e-15
        # both consumed the same draws, so the stream continues in step
        assert rng.integers(2**62) == rng_oracle.integers(2**62)

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_v2_edge_count_labels_and_noise_axes(self, planar, seed):
        cfg = SynthConfig(n_cameras=(8, 40), edge_fraction=(0.05, 0.6), sigma_deg=(0.0, 30.0),
                          outlier_fraction=(0.0, 0.3), planar=planar, seed=seed)
        g = synthgen.generate_graph(cfg, np.random.default_rng(seed))
        # corpus v2 draws the camera count, the N ground-truth draws, then the edge fraction
        head = np.random.default_rng(seed)
        n = int(head.integers(8, 41))
        head.uniform(size=n) if planar else head.normal(size=(n, 4))
        frac = head.uniform(0.05, 0.6)
        pairs = n * (n - 1) // 2
        assert g.n_nodes == n
        assert len(g.edges) == min(max(int(round(frac * pairs)), n - 1), pairs)
        assert is_connected_oracle(g)
        label = g.edge_labels()
        assert set(label.tolist()) <= {0, 1}
        assert label.sum() <= round(0.3 * len(g.edges))
        # an inlier is its noise rotation times the true relative; planar noise turns about an
        # axis in the x-z plane, so the noise row has no y component
        noise = so3.qmul(g.edge_quat_array(), so3.qconj(g.relative_gt_array()))[label == 0]
        assert np.all(np.abs(np.linalg.norm(noise, axis=1) - 1.0) < 1e-12)
        if planar:
            assert np.max(np.abs(noise[:, 2])) < 1e-12
            assert np.max(np.abs(g.gt[:, [1, 3]])) < 1e-12

    @pytest.mark.parametrize("planar", [True, False])
    def test_v2_noise_rms_matches_sigma(self, planar):
        cfg = SynthConfig(n_cameras=(120, 120), edge_fraction=(0.5, 0.5), sigma_deg=(12.0, 12.0),
                          outlier_fraction=(0.1, 0.1), planar=planar, seed=4)
        g = synthgen.generate_graph(cfg, np.random.default_rng(4))
        inlier = g.edge_labels() == 0
        assert inlier.sum() == len(g.edges) - round(0.1 * len(g.edges))
        angles = so3.qangle_deg(g.edge_quat_array(), g.relative_gt_array())[inlier]
        rms = float(np.sqrt(np.mean(angles**2)))
        assert abs(rms - 12.0) / 12.0 < 0.03

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
            for e in edge_records(g):
                rule = so3_oracle.geodesic_deg(e.q, relative_gt(g, e.u, e.v)) > 20.0
                agree += int(rule == e.gt_outlier)
                total += 1
        assert agree / total >= 0.97


def corpus_text_oracle(cfg: SynthConfig, count: int) -> list[list[str]]:
    """The former corpus writer's loop without its files or manifest: graph
    ``i`` from the substream ``(cfg.seed, i)``, its split from the rounded
    fractions, its text from ``serialize``."""
    n_train = int(round(synthgen.TRAIN_FRACTION * count))
    n_val = int(round(synthgen.VAL_FRACTION * count))
    bounds = np.cumsum((0, n_train, n_val, count - n_train - n_val))
    texts = [[], [], []]
    for i in range(count):
        g = synthgen.generate_graph(cfg, np.random.default_rng([cfg.seed, i]))
        texts[int(np.searchsorted(bounds, i, side="right") - 1)].append(viewgraph.serialize(g))
    return texts


def graph_arrays(g: ViewGraph) -> list[np.ndarray]:
    return [*g.endpoint_arrays(), g.edge_quat_array(), g.edge_labels(), g.gt]


class TestCorpus:
    @pytest.mark.parametrize("count, sizes", [(10, [8, 1, 1]), (11, [9, 1, 1]), (25, [20, 2, 3])],
                             ids=["10", "11", "25"])
    def test_split_sizes(self, count, sizes):
        # round half to even: 0.1 * 25 = 2.5 gives 2 validation graphs
        splits = synthgen.corpus(SynthConfig(n_cameras=(5, 9)), count)
        assert [len(split) for split in splits] == sizes

    @pytest.mark.parametrize("planar", [True, False])
    def test_graphs_serialize_to_the_oracle_text(self, planar):
        cfg = SynthConfig(n_cameras=(5, 12), outlier_fraction=(0.0, 0.3), planar=planar, seed=11)
        got = [[viewgraph.serialize(g) for g in split] for split in synthgen.corpus(cfg, 10)]
        assert got == corpus_text_oracle(cfg, 10)

    def test_two_calls_give_equal_arrays(self):
        cfg = SynthConfig(n_cameras=(5, 9), seed=3)
        first, second = synthgen.corpus(cfg, 10), synthgen.corpus(cfg, 10)
        for split_a, split_b in zip(first, second):
            for a, b in zip(split_a, split_b):
                assert all(np.array_equal(x, y) for x, y in zip(graph_arrays(a), graph_arrays(b)))

    @pytest.mark.parametrize("count", [9, 10.5, 10.0, "10", None, True])
    def test_count_must_be_an_integer_of_ten_or_more(self, count):
        with pytest.raises(SynthConfigError, match=f"integer >= 10, got {count!r}"):
            synthgen.corpus(SynthConfig(), count)

    def test_indexing(self):
        train = synthgen.corpus(SynthConfig(n_cameras=(5, 9)), 10).train
        for past_the_end in (8, -9):
            with pytest.raises(IndexError):
                train[past_the_end]
        assert all(np.array_equal(x, y)
                   for x, y in zip(graph_arrays(train[-1]), graph_arrays(train[7])))
        with pytest.raises(TypeError, match="bool"):
            train[True]


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


def touches_files(node: ast.AST) -> bool:
    """A pathlib import, a name ``open``, or a file method of a path."""
    if isinstance(node, ast.Import):
        return any(alias.name == "pathlib" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "pathlib"
    if isinstance(node, ast.Name):
        return node.id == "open"
    return (isinstance(node, ast.Attribute)
            and node.attr in {"open", "read_text", "write_text", "mkdir"})


def test_package_does_file_io_only_in_checkpoints():
    """``src/rotavg`` touches files only in ``autodiff``'s checkpoint functions
    and their pathlib import: a corpus is a config and a count, so no corpus
    file format grows back."""
    found = []
    for path in sorted(Path(synthgen.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            allowed = path.name == "autodiff.py" and (
                getattr(stmt, "name", None) in ("save_checkpoint", "load_checkpoint")
                or isinstance(stmt, ast.ImportFrom) and stmt.module == "pathlib")
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(stmt)
                      if touches_files(node) and not allowed]
    assert not found, f"file I/O outside the checkpoints at {', '.join(found)}"
