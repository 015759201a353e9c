from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from fd import fd_gradients
import so3_oracle
from rotavg import cleaning, refinement, so3, synthgen, viewgraph
from rotavg.autodiff import AutodiffError, ParamStore
from rotavg.mpnn import MpnnConfig
from rotavg.viewgraph import ViewGraph, ViewGraphError
from so3_oracle import Edge, UnitQuaternion, as_quats, edge_graph, edge_records

TINY_CFG = MpnnConfig(rounds=2, hidden_dim=4, msg_dim=4)


def tiny_clean_weights(seed=0, cfg=TINY_CFG, random_heads=False):
    store = ParamStore()
    from rotavg import mpnn

    rng = np.random.default_rng(seed)
    mpnn.init_weights(cfg, rng, store)
    if random_heads:
        store.add("head_rect.w", rng.normal(0.0, 0.3, size=(cfg.msg_dim, 4)))
        store.add("head_rect.b", np.array([1.0, 0.0, 0.0, 0.0]))
        store.add("head_out.w", rng.normal(0.0, 0.3, size=(cfg.msg_dim, 1)))
        store.add("head_out.b", np.zeros(1))
    else:
        store.add("head_rect.w", np.zeros((cfg.msg_dim, 4)))
        store.add("head_rect.b", np.array([1.0, 0.0, 0.0, 0.0]))
        store.add("head_out.w", np.zeros((cfg.msg_dim, 1)))
        store.add("head_out.b", np.zeros(1))
    return store


def noisy_graph(seed=0, n=18, sigma=8.0, outliers=0.15):
    cfg = synthgen.SynthConfig(
        n_cameras=(n, n), edge_fraction=(0.3, 0.3),
        sigma_deg=(sigma, sigma), outlier_fraction=(outliers, outliers), seed=seed,
    )
    return synthgen.generate_graph(cfg, np.random.default_rng(seed))


class TestForward:
    def test_zero_weight_totality(self):
        # all-zero parameters leave the correction head degenerate; the
        # normalize guard substitutes the identity so outputs stay defined
        g = noisy_graph()
        store = ParamStore()
        for name, shape in cleaning.weight_spec().items():
            store.add(name, np.zeros(shape))
        pred = cleaning.clean_forward(g, store)
        assert not np.any(np.isnan(pred.outlier_prob))
        assert np.max(so3_oracle.qangle_deg(pred.rect, g.edge_quat_array())) < 1e-9

    def test_identity_init_passes_measurements_through(self):
        g = noisy_graph(seed=1)
        pred = cleaning.clean_forward(g, cleaning.new_weights(1))
        assert np.allclose(pred.outlier_prob, 0.5)
        assert np.max(so3_oracle.qangle_deg(pred.rect, g.edge_quat_array())) < 1e-9

    @pytest.mark.parametrize("cfg", [TINY_CFG, MpnnConfig(rounds=2)])
    def test_sizes_come_from_the_weights(self, cfg):
        # no call takes a config: a store of any sizes runs as it was made
        g = noisy_graph(seed=1)
        pred = cleaning.clean_forward(g, cleaning.new_weights(1, cfg))
        assert np.allclose(pred.outlier_prob, 0.5)
        assert np.max(so3_oracle.qangle_deg(pred.rect, g.edge_quat_array())) < 1e-9
        cleaning.clean_loss_graph(g, cleaning.new_weights(1, cfg).params).backward()

    def test_rect_quaternions_canonical_unit(self):
        g = noisy_graph(seed=2)
        store = ParamStore()
        rng = np.random.default_rng(3)
        for name, shape in cleaning.weight_spec().items():
            store.add(name, rng.normal(0.0, 0.4, size=shape))
        pred = cleaning.clean_forward(g, store)
        assert pred.rect.shape == (len(g.edges), 4)
        assert np.max(np.abs(np.linalg.norm(pred.rect, axis=1) - 1.0)) < 1e-9
        assert np.all(pred.rect[:, 0] >= 0.0)
        assert np.array_equal(so3.qcanon(pred.rect), pred.rect)

    def test_peak_memory_within_edge_budget(self):
        # a dense-shaped graph: off the tape the rounds run over runs of at
        # most CHUNK_ROWS edges, so no (2E, H) array is ever alive; what is
        # left are the directed edge arrays and their target-sorted copies
        cfg = synthgen.SynthConfig(n_cameras=(150, 150), edge_fraction=(0.66, 0.66),
                                   sigma_deg=(5.0, 5.0), outlier_fraction=(0.1, 0.1))
        g = synthgen.generate_graph(cfg, np.random.default_rng(0))
        store = cleaning.new_weights(0)
        tracemalloc.start()
        try:
            cleaning.clean_forward(g, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_edge_array = 2 * len(g.edges) * MpnnConfig().hidden_dim * 8
        assert peak < one_edge_array

    def test_weights_that_do_not_fit_rejected(self):
        g = noisy_graph(seed=3, n=8)
        # another network's store: the first of CleanNet's weights it lacks is named
        with pytest.raises(AutodiffError, match="weight 'head_rect.w' is missing"):
            cleaning.clean_forward(g, refinement.new_weights(0))
        bad = ParamStore()
        for name, shape in cleaning.weight_spec().items():
            bad.add(name, np.zeros((5, 1) if name == "head_out.w" else shape))
        with pytest.raises(AutodiffError, match=r"weight 'head_out.w' has shape \(5, 1\)"):
            cleaning.clean_forward(g, bad)
        with pytest.raises(AutodiffError, match="weight 'head_rect.w' is missing"):
            cleaning.clean_loss_graph(g, refinement.new_weights(0).params)

    def test_empty_graph_rejected(self):
        g = ViewGraph(2, [], [], np.zeros((0, 4)))
        with pytest.raises(ViewGraphError):
            cleaning.clean_forward(g, cleaning.new_weights(0))


class TestLabels:
    def test_clean_edge_is_inlier(self):
        rng = np.random.default_rng(4)
        gt = [so3_oracle.sample_uniform(rng) for _ in range(2)]
        g = edge_graph(2, [Edge(0, 1, so3_oracle.relative(gt[0], gt[1]))], gt)
        assert cleaning.gt_outlier_labels(g).tolist() == [0.0]

    def test_injected_discrepancy_is_outlier(self):
        rng = np.random.default_rng(5)
        gt = [so3_oracle.sample_uniform(rng) for _ in range(2)]
        q = so3_oracle.compose(so3_oracle.yaw_deg(90.0), so3_oracle.relative(gt[0], gt[1]))
        g = edge_graph(2, [Edge(0, 1, q)], gt)
        assert cleaning.gt_outlier_labels(g).tolist() == [1.0]

    def test_agreement_with_generator_flags(self):
        # noise std sampled per graph in (0, 10]; a >20 degree noise draw can
        # legitimately flip an inlier's label, so agreement is thresholded
        agree = total = 0
        for seed in range(5):
            cfg = synthgen.SynthConfig(
                n_cameras=(40, 40), edge_fraction=(0.3, 0.3),
                sigma_deg=(0.0, 10.0), outlier_fraction=(0.2, 0.2), seed=seed,
            )
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed))
            labels = cleaning.gt_outlier_labels(g)
            flags = np.array([float(e.gt_outlier) for e in edge_records(g)])
            agree += int(np.sum(labels == flags))
            total += len(g.edges)
        assert agree / total >= 0.97

    def test_requires_gt(self):
        g = edge_graph(2, [Edge(0, 1, UnitQuaternion.identity())])
        with pytest.raises(ViewGraphError):
            cleaning.gt_outlier_labels(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_threshold_matches_angle_oracle(self, seed):
        # measurements 1e-9 degree on each side of the threshold, about random axes
        rng = np.random.default_rng(seed)
        n = 12
        u, v = (np.array(x) for x in zip(*[(i, j) for i in range(n) for j in range(i + 1, n)]))
        gt = so3.sample_uniform_rows(rng, n)
        side = np.where(np.arange(u.size) % 2 == 0, -1e-9, 1e-9)
        axes = rng.normal(size=(u.size, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        noise = so3.qexp(axes * np.radians(cleaning.OUTLIER_THRESHOLD_DEG + side)[:, None])
        q = so3.qmul(noise, so3.qmul(gt[v], so3.qconj(gt[u])))
        g = ViewGraph(n, u, v, q, gt=gt)
        want = so3_oracle.qangle_deg(g.edge_quat_array(), g.relative_gt_array()) > 20.0
        labels = cleaning.gt_outlier_labels(g)
        assert np.array_equal(labels, want.astype(np.float64))
        assert np.array_equal(labels, (side > 0).astype(np.float64))


def loss_value(pred, g):
    return cleaning._loss_terms(pred.rect, pred.logits, g)[0]


class TestLoss:
    def test_perfect_predictions_hit_bce_floor(self):
        g = noisy_graph(seed=6)
        labels = cleaning.gt_outlier_labels(g)
        logits = np.where(labels > 0.5, 50.0, -50.0)
        assert cleaning._loss_terms(g.relative_gt_array(), logits, g)[0] < 1e-9

    def test_zero_bce_weight_reduces_to_orientation_term(self, monkeypatch):
        g = noisy_graph(seed=7)
        pred = cleaning.clean_forward(g, cleaning.new_weights(7))
        full = loss_value(pred, g)
        monkeypatch.setattr(cleaning, "BCE_WEIGHT", 0.0)
        orient_only = loss_value(pred, g)
        deg = g.degree_array()
        gt = as_quats(g.gt)
        expected = sum(
            so3_oracle.quat_dist(UnitQuaternion.from_array(r),
                                 so3_oracle.relative(gt[e.u], gt[e.v])) / (deg[e.u] * deg[e.v])
            for r, e in zip(pred.rect, edge_records(g))
        )
        assert abs(orient_only - expected) < 1e-12
        assert full > orient_only

    def test_relative_ground_truth_computed_once(self, monkeypatch):
        g = noisy_graph(seed=9, n=8)
        calls = []
        relative = ViewGraph.relative_gt_array
        monkeypatch.setattr(ViewGraph, "relative_gt_array",
                            lambda self: calls.append(1) or relative(self))
        cleaning.clean_loss_graph(g, tiny_clean_weights().params)
        assert len(calls) == 1

    def test_tensor_and_value_paths_agree(self):
        g = noisy_graph(seed=8)
        store = tiny_clean_weights(seed=8, random_heads=True)
        step = cleaning.clean_loss_graph(g, store.params)
        pred = cleaning.clean_forward(g, store)
        assert abs(step.loss - loss_value(pred, g)) < 1e-9

    def test_gradient_vs_finite_differences(self):
        # seed keeps relu pre-activations away from the kink
        g = noisy_graph(seed=17, n=8)
        store = tiny_clean_weights(seed=17, random_heads=True)
        params = dict(store.params)

        def loss_and_grads(p):
            step = cleaning.clean_loss_graph(g, p)
            return step.loss, step.backward()

        assert fd_gradients(loss_and_grads, params) < 1e-3

    def test_very_negative_logits_do_not_overflow(self):
        # zero head weights: every logit is the bias, far below exp's overflow at -709.78
        g = noisy_graph(seed=5)
        store = cleaning.new_weights(5)
        store.params["head_out.b"][0] = -1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = cleaning.clean_forward(g, store).outlier_prob
            step = cleaning.clean_loss_graph(g, store.params)
            grads = step.backward()
        assert np.all(np.isfinite(prob)) and np.all(prob < 1e-300)
        assert np.isfinite(step.loss)
        assert all(np.all(np.isfinite(grad)) for grad in grads.values())

    def test_requires_gt(self):
        g = edge_graph(2, [Edge(0, 1, UnitQuaternion.identity())])
        with pytest.raises(ViewGraphError):
            cleaning.clean_loss_graph(g, tiny_clean_weights().params)

    def test_requires_an_edge(self):
        g = ViewGraph(2, [], [], np.zeros((0, 4)), gt=np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))
        with pytest.raises(ViewGraphError, match="at least one edge"):
            cleaning._loss_terms(np.zeros((0, 4)), np.zeros(0), g)
        with pytest.raises(ViewGraphError, match="at least one edge"):
            cleaning.clean_loss_graph(g, tiny_clean_weights().params)


    def test_training_step_peak_memory_within_edge_budget(self):
        # the dense-shaped graph of TestForward; a recording step keeps the
        # per-round (N, H) states and recomputes each run's messages in the
        # backward, so its peak is a few (2E, H) arrays, not one per layer
        cfg = synthgen.SynthConfig(n_cameras=(150, 150), edge_fraction=(0.66, 0.66),
                                   sigma_deg=(5.0, 5.0), outlier_fraction=(0.1, 0.1))
        g = synthgen.generate_graph(cfg, np.random.default_rng(0))
        store = cleaning.new_weights(0)
        tracemalloc.start()
        try:
            cleaning.clean_loss_graph(g, store.params).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_edge_array = 2 * g.n_edges * MpnnConfig().hidden_dim * 8
        assert peak <= 4 * one_edge_array


class TestCleanGraph:
    def test_zero_probabilities_keep_topology(self):
        g = noisy_graph(seed=10)
        pred = cleaning.clean_forward(g, cleaning.new_weights(10))
        pred.outlier_prob[:] = 0.0
        cg = cleaning.clean_graph(g, pred)
        assert len(cg.graph.edges) == len(g.edges)
        assert cg.removed.dtype == bool and cg.removed.shape == (g.n_edges,)
        assert not cg.removed.any() and cg.dropped_nodes.size == 0
        for e_new, r in zip(edge_records(cg.graph), pred.rect):
            assert so3_oracle.geodesic_deg(e_new.q, UnitQuaternion.from_array(r)) < 1e-12
            assert e_new.gt_outlier is None
        assert np.array_equal(cg.graph.edge_quat_array(), pred.rect)

    def test_high_probability_edge_removed(self):
        g = noisy_graph(seed=11)
        pred = cleaning.clean_forward(g, cleaning.new_weights(11))
        pred.outlier_prob[:] = 0.0
        pred.outlier_prob[3] = 0.9
        cg = cleaning.clean_graph(g, pred)
        assert np.flatnonzero(cg.removed).tolist() == [3]
        removed = edge_records(g)[3]
        assert all((e.u, e.v) != (removed.u, removed.v) for e in edge_records(cg.graph))

    def test_all_edges_removed_errors(self):
        g = noisy_graph(seed=12)
        pred = cleaning.clean_forward(g, cleaning.new_weights(12))
        pred.outlier_prob[:] = 1.0
        with pytest.raises(ViewGraphError, match="empty cleaned graph"):
            cleaning.clean_graph(g, pred)

    def test_disconnection_restricts_to_largest_component(self):
        q = UnitQuaternion.identity()
        edges = [Edge(0, 1, q), Edge(1, 2, q), Edge(2, 3, q), Edge(3, 4, q)]
        g = edge_graph(5, edges)
        pred = cleaning.CleanPrediction(
            rect=np.array([e.q.as_array() for e in edges]),
            outlier_prob=np.array([0.0, 0.9, 0.0, 0.0]),
            logits=np.zeros(4),
        )
        cg = cleaning.clean_graph(g, pred)
        assert cg.node_ids.dtype == cg.dropped_nodes.dtype == np.int64
        assert cg.node_ids.tolist() == [2, 3, 4]
        assert cg.dropped_nodes.tolist() == [0, 1]
        # edge 0 passes the threshold; its component is the one dropped
        assert cg.removed.tolist() == [False, True, False, False]
        assert viewgraph.is_connected(cg.graph)

    @pytest.mark.parametrize("field", ["rect", "outlier_prob"])
    def test_short_prediction_errors(self, field):
        g = noisy_graph(seed=13)
        pred = cleaning.clean_forward(g, cleaning.new_weights(13))
        setattr(pred, field, getattr(pred, field)[:-1])
        with pytest.raises(ViewGraphError, match="does not cover every edge"):
            cleaning.clean_graph(g, pred)

    @pytest.mark.parametrize("field", ["rect", "outlier_prob", "logits"])
    @pytest.mark.parametrize("rows", ["one", "longer"])
    def test_prediction_of_another_length_errors(self, field, rows):
        # one row would broadcast over every edge and keep or drop them all
        g = noisy_graph(seed=13)
        pred = cleaning.clean_forward(g, cleaning.new_weights(13))
        values = getattr(pred, field)
        setattr(pred, field, values[:1] if rows == "one" else np.concatenate([values, values]))
        with pytest.raises(ViewGraphError, match="does not cover every edge"):
            cleaning.clean_graph(g, pred)
