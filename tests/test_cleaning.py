from __future__ import annotations

import numpy as np
import pytest

from fd import fd_gradients
import so3_oracle
from rotavg import cleaning, so3, synthgen, viewgraph
from rotavg.autodiff import ParamStore, Tape
from rotavg.mpnn import MpnnConfig
from rotavg.so3 import UnitQuaternion
from rotavg.viewgraph import Edge, ViewGraph, ViewGraphError

TINY_CFG = MpnnConfig(rounds=2, hidden_dim=4, msg_dim=4, edge_feat_dim=4, node_init_dim=0)


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
        assert np.max(so3.qangle_deg(pred.rect, g.edge_quat_array())) < 1e-9

    def test_identity_init_passes_measurements_through(self):
        g = noisy_graph(seed=1)
        pred = cleaning.clean_forward(g, cleaning.new_weights(1))
        assert np.allclose(pred.outlier_prob, 0.5)
        assert np.max(so3.qangle_deg(pred.rect, g.edge_quat_array())) < 1e-9

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

    def test_empty_graph_rejected(self):
        g = ViewGraph(2, [])
        with pytest.raises(ViewGraphError):
            cleaning.clean_forward(g, cleaning.new_weights(0))


class TestLabels:
    def test_clean_edge_is_inlier(self):
        rng = np.random.default_rng(4)
        gt = [so3_oracle.sample_uniform(rng) for _ in range(2)]
        g = ViewGraph(2, [Edge(0, 1, so3_oracle.relative(gt[0], gt[1]))], gt)
        assert cleaning.gt_outlier_labels(g).tolist() == [0.0]

    def test_injected_discrepancy_is_outlier(self):
        rng = np.random.default_rng(5)
        gt = [so3_oracle.sample_uniform(rng) for _ in range(2)]
        q = so3_oracle.compose(so3_oracle.yaw_deg(90.0), so3_oracle.relative(gt[0], gt[1]))
        g = ViewGraph(2, [Edge(0, 1, q)], gt)
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
            flags = np.array([float(e.gt_outlier) for e in g.edges])
            agree += int(np.sum(labels == flags))
            total += len(g.edges)
        assert agree / total >= 0.97

    def test_requires_gt(self):
        g = ViewGraph(2, [Edge(0, 1, UnitQuaternion.identity())])
        with pytest.raises(ViewGraphError):
            cleaning.gt_outlier_labels(g)


class TestLoss:
    def test_perfect_predictions_hit_bce_floor(self):
        g = noisy_graph(seed=6)
        labels = cleaning.gt_outlier_labels(g)
        rect = g.relative_gt_array()
        logits = np.where(labels > 0.5, 50.0, -50.0)
        pred = cleaning.CleanPrediction(
            rect=rect, outlier_prob=1.0 / (1.0 + np.exp(-logits)), logits=logits
        )
        assert cleaning.clean_loss(pred, g) < 1e-9

    def test_zero_bce_weight_reduces_to_orientation_term(self):
        g = noisy_graph(seed=7)
        pred = cleaning.clean_forward(g, cleaning.new_weights(7))
        full = cleaning.clean_loss(pred, g)
        orient_only = cleaning.clean_loss(pred, g, bce_weight=0.0)
        deg = g.degree_array()
        gt = [UnitQuaternion.from_array(r) for r in g.gt]
        expected = sum(
            so3_oracle.quat_dist(UnitQuaternion.from_array(r),
                                 so3_oracle.relative(gt[e.u], gt[e.v])) / (deg[e.u] * deg[e.v])
            for r, e in zip(pred.rect, g.edges)
        )
        assert abs(orient_only - expected) < 1e-12
        assert full > orient_only

    def test_tensor_and_value_paths_agree(self):
        g = noisy_graph(seed=8)
        store = tiny_clean_weights(seed=8, random_heads=True)
        tape = Tape(recording=False)
        loss_t = cleaning.clean_loss_graph(tape, g, store.bind(tape), TINY_CFG)
        pred = cleaning.clean_forward(g, store, TINY_CFG)
        assert abs(float(loss_t.values) - cleaning.clean_loss(pred, g)) < 1e-9

    def test_gradient_vs_finite_differences(self):
        # seed keeps relu pre-activations away from the kink
        g = noisy_graph(seed=17, n=8)
        store = tiny_clean_weights(seed=17, random_heads=True)
        params = dict(store.params)

        def build(tape, p):
            return cleaning.clean_loss_graph(tape, g, p, TINY_CFG)

        assert fd_gradients(build, params) < 1e-3

    def test_requires_gt(self):
        g = ViewGraph(2, [Edge(0, 1, UnitQuaternion.identity())])
        tape = Tape()
        store = tiny_clean_weights()
        with pytest.raises(ViewGraphError):
            cleaning.clean_loss_graph(tape, g, store.bind(tape), TINY_CFG)


class TestCleanGraph:
    def test_zero_probabilities_keep_topology(self):
        g = noisy_graph(seed=10)
        pred = cleaning.clean_forward(g, cleaning.new_weights(10))
        pred.outlier_prob[:] = 0.0
        cg = cleaning.clean_graph(g, pred)
        assert len(cg.graph.edges) == len(g.edges)
        assert cg.removed_edges == 0 and cg.dropped_nodes.size == 0
        for e_new, r in zip(cg.graph.edges, pred.rect):
            assert so3_oracle.geodesic_deg(e_new.q, UnitQuaternion.from_array(r)) < 1e-12
            assert e_new.gt_outlier is None
        assert np.array_equal(cg.graph.edge_quat_array(), pred.rect)

    def test_high_probability_edge_removed(self):
        g = noisy_graph(seed=11)
        pred = cleaning.clean_forward(g, cleaning.new_weights(11))
        pred.outlier_prob[:] = 0.0
        pred.outlier_prob[3] = 0.9
        cg = cleaning.clean_graph(g, pred)
        assert cg.removed_edges == 1
        removed = g.edges[3]
        assert all((e.u, e.v) != (removed.u, removed.v) for e in cg.graph.edges)

    def test_all_edges_removed_errors(self):
        g = noisy_graph(seed=12)
        pred = cleaning.clean_forward(g, cleaning.new_weights(12))
        pred.outlier_prob[:] = 1.0
        with pytest.raises(ViewGraphError, match="empty cleaned graph"):
            cleaning.clean_graph(g, pred)

    def test_disconnection_restricts_to_largest_component(self):
        q = UnitQuaternion.identity()
        edges = [Edge(0, 1, q), Edge(1, 2, q), Edge(2, 3, q), Edge(3, 4, q)]
        g = ViewGraph(5, edges)
        pred = cleaning.CleanPrediction(
            rect=np.array([e.q.as_array() for e in edges]),
            outlier_prob=np.array([0.0, 0.9, 0.0, 0.0]),
            logits=np.zeros(4),
        )
        cg = cleaning.clean_graph(g, pred)
        assert cg.node_ids.dtype == cg.dropped_nodes.dtype == np.int64
        assert cg.node_ids.tolist() == [2, 3, 4]
        assert cg.dropped_nodes.tolist() == [0, 1]
        assert viewgraph.is_connected(cg.graph)

    @pytest.mark.parametrize("field", ["rect", "outlier_prob"])
    def test_short_prediction_errors(self, field):
        g = noisy_graph(seed=13)
        pred = cleaning.clean_forward(g, cleaning.new_weights(13))
        setattr(pred, field, getattr(pred, field)[:-1])
        with pytest.raises(ViewGraphError, match="does not cover every edge"):
            cleaning.clean_graph(g, pred)
