from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fd import fd_gradients
import so3_oracle
from rotavg import cleaning, refinement, so3, synthgen, viewgraph
from rotavg.autodiff import AutodiffError, ParamStore, Tape
from rotavg.mpnn import MpnnConfig
from rotavg.viewgraph import ViewGraph, ViewGraphError
from so3_oracle import UnitQuaternion, as_quats

TINY_CFG = MpnnConfig(rounds=2, hidden_dim=5, msg_dim=4)


def tiny_refine_weights(seed=0, cfg=TINY_CFG, random_head=False):
    from rotavg import mpnn

    store = ParamStore()
    rng = np.random.default_rng(seed)
    mpnn.init_weights(cfg, rng, store)
    if random_head:
        store.add("head_refine.w", rng.normal(0.0, 0.3, size=(cfg.hidden_dim, 4)))
    else:
        store.add("head_refine.w", np.zeros((cfg.hidden_dim, 4)))
    store.add("head_refine.b", np.array([1.0, 0.0, 0.0, 0.0]))
    return store


def referenced_graph(seed=0, n=14, sigma=6.0, outliers=0.0):
    """Graph re-referenced so ground truth at the chosen root is identity."""
    cfg = synthgen.SynthConfig(
        n_cameras=(n, n), edge_fraction=(0.35, 0.35),
        sigma_deg=(sigma, sigma), outlier_fraction=(outliers, outliers), seed=seed,
    )
    g = synthgen.generate_graph(cfg, np.random.default_rng(seed))
    root = viewgraph.select_root(g)
    gt_ref = viewgraph.rereference(g.gt, root)
    return with_gt(g, gt_ref), root


def with_gt(g, gt):
    return ViewGraph(g.n_nodes, *g.endpoint_arrays(), g.edge_quat_array(), g.edge_labels(), gt)


def noisy_rows(g, rng):
    """Ground truth with a 5-degree noise rotation composed on the left of each node."""
    noise = np.stack([so3_oracle.sample_noise(5.0, False, rng).as_array()
                      for _ in range(g.n_nodes)])
    return so3.qcanon(so3.qmul(noise, g.gt))


def spt_init(g, root):
    return viewgraph.bootstrap_orientations(g, viewgraph.shortest_path_tree(g, root)).orientations


class TestForward:
    def test_peak_memory_within_edge_budget(self):
        # a dense-shaped graph; as for clean_forward, the final round keeps
        # no messages and no round builds a (2E, H) array
        cfg = synthgen.SynthConfig(n_cameras=(150, 150), edge_fraction=(0.66, 0.66),
                                   sigma_deg=(5.0, 5.0), outlier_fraction=(0.1, 0.1))
        g = synthgen.generate_graph(cfg, np.random.default_rng(0))
        root = viewgraph.select_root(g)
        init = spt_init(g, root)
        store = refinement.new_weights(0)
        tracemalloc.start()
        try:
            refinement.refine_forward(g, init, store, root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_edge_array = 2 * len(g.edges) * MpnnConfig().hidden_dim * 8
        assert peak < one_edge_array

    def test_perfect_init_on_clean_graph_gives_identity_features(self):
        g, root = referenced_graph(sigma=0.0)
        feats = viewgraph.discrepancy(g, g.gt)
        assert np.max(so3.angle_deg(feats)) < 1e-9

    def test_identity_init_head_returns_init(self):
        g, root = referenced_graph(seed=1)
        init = spt_init(g, root)
        out = refinement.refine_forward(g, init, tiny_refine_weights(1), root)
        for a, b in zip(as_quats(out), as_quats(init)):
            assert so3_oracle.geodesic_deg(a, b) < 1e-9

    @pytest.mark.parametrize("cfg", [TINY_CFG, MpnnConfig(rounds=2)])
    def test_sizes_come_from_the_weights(self, cfg):
        # no call takes a config: a store of any sizes runs as it was made
        g, root = referenced_graph(seed=1)
        init = np.asarray(spt_init(g, root))
        out = refinement.refine_forward(g, init, refinement.new_weights(1, cfg), root)
        assert np.max(so3_oracle.qangle_deg(np.asarray(out), init)) < 1e-9
        tape = Tape()
        tape.backward(refinement.refine_loss_graph(tape, g, init, root,
                                                   refinement.new_weights(1, cfg).bind(tape)))

    def test_outputs_valid_unit_quaternions_under_random_weights(self):
        g, root = referenced_graph(seed=2)
        store = tiny_refine_weights(2, random_head=True)
        out = refinement.refine_forward(g, spt_init(g, root), store, root)
        for q in out:
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9

    def test_output_rereferenced_at_root(self):
        g, root = referenced_graph(seed=3)
        store = tiny_refine_weights(3, random_head=True)
        out = refinement.refine_forward(g, spt_init(g, root), store, root)
        assert so3_oracle.geodesic_deg(as_quats(out)[root], UnitQuaternion.identity()) < 1e-9

    def test_unreferenced_init_rejected(self):
        g, root = referenced_graph(seed=4)
        init = np.array(spt_init(g, root))
        init[root] = so3_oracle.yaw_deg(10.0).as_array()
        with pytest.raises(ViewGraphError, match="referenced"):
            refinement.refine_forward(g, init, tiny_refine_weights(4), root)

    def test_missing_init_rejected(self):
        g, root = referenced_graph(seed=5)
        with pytest.raises(ViewGraphError, match="cover"):
            refinement.refine_forward(g, np.array([[1.0, 0.0, 0.0, 0.0]]), tiny_refine_weights(5),
                                      root)

    def test_root_out_of_range_rejected(self):
        g, root = referenced_graph(seed=5)
        init = spt_init(g, root)
        for bad in (g.n_nodes, -1):
            with pytest.raises(ViewGraphError, match=f"root {bad} out of range"):
                refinement.refine_forward(g, init, tiny_refine_weights(5), bad)

    def test_non_integer_root_rejected(self):
        g, root = referenced_graph(seed=5)
        init = spt_init(g, root)
        # a bool would otherwise run at node 1
        for bad in (float(root) + 0.5, float(root), str(root), None, True, np.True_):
            with pytest.raises(ViewGraphError, match="root must be an integer"):
                refinement.refine_forward(g, init, tiny_refine_weights(5), bad)
            with pytest.raises(ViewGraphError, match="root must be an integer"):
                refinement._loss_terms(np.asarray(init), g, bad)

    def test_weights_that_do_not_fit_rejected(self):
        g, root = referenced_graph(seed=5)
        with pytest.raises(AutodiffError, match="weight 'head_refine.w' is missing"):
            refinement.refine_forward(g, spt_init(g, root), cleaning.new_weights(0), root)
        bad = refinement.new_weights(0)
        bad.params["head_refine.b"] = np.zeros(3)
        with pytest.raises(AutodiffError, match=r"weight 'head_refine.b' has shape \(3,\)"):
            refinement.refine_forward(g, spt_init(g, root), bad, root)


def loss_value(pred, g, root):
    return refinement._loss_terms(pred, g, root)[0]


class TestLoss:
    def test_ground_truth_scores_zero(self):
        g, root = referenced_graph(seed=6)
        assert loss_value(g.gt, g, root) < 1e-9

    def test_beta_zero_is_gauge_invariant(self, monkeypatch):
        monkeypatch.setattr(refinement, "BETA", 0.0)
        g, root = referenced_graph(seed=7)
        rng = np.random.default_rng(7)
        pred = noisy_rows(g, rng)
        base = loss_value(pred, g, root)
        r = so3_oracle.sample_uniform(np.random.default_rng(8))
        shifted = so3.qcanon(so3.qmul(pred, r.as_array()))
        assert abs(loss_value(shifted, g, root) - base) < 1e-9

    def test_beta_positive_breaks_gauge_invariance(self):
        g, root = referenced_graph(seed=9)
        rng = np.random.default_rng(9)
        pred = noisy_rows(g, rng)
        assert refinement.BETA == 0.1
        base = loss_value(pred, g, root)
        r = so3_oracle.sample_uniform(np.random.default_rng(10))
        shifted = so3.qcanon(so3.qmul(pred, r.as_array()))
        assert abs(loss_value(shifted, g, root) - base) > 1e-4

    def test_reference_mismatch_errors(self):
        g, root = referenced_graph(seed=11)
        bad_graph = with_gt(g, so3.qmul(g.gt, so3_oracle.yaw_deg(25.0).as_array()))
        with pytest.raises(ViewGraphError, match="referenced"):
            loss_value(bad_graph.gt, bad_graph, root)

    def test_isolated_node_errors(self):
        # the anchoring term weighs node v by BETA / deg(v): at a node with no
        # edge a perfect prediction scored nan and one off the truth scored inf
        ident = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
        g = ViewGraph(4, [0], [2], ident[:1], gt=ident)
        off = ident.copy()
        off[3] = so3_oracle.yaw_deg(25.0).as_array()
        for pred in (ident, off):
            with pytest.raises(ViewGraphError, match="node 1 has no edge"):
                loss_value(pred, g, 0)
            tape = Tape()
            with pytest.raises(ViewGraphError, match="node 1 has no edge"):
                refinement.refine_loss_graph(tape, g, pred, 0, tiny_refine_weights().bind(tape))

    def test_init_rows_of_another_count_rejected(self):
        # a row short of the graph's 8 nodes once raised numpy's IndexError
        g, root = referenced_graph(seed=13, n=8)
        init = np.asarray(spt_init(g, root))
        for rows in (init[:7], np.vstack([init, init[:1]])):
            tape = Tape()
            with pytest.raises(ViewGraphError, match=rf"must be \(8, 4\), got \({len(rows)}, 4\)"):
                refinement.refine_loss_graph(tape, g, rows, root, tiny_refine_weights().bind(tape))

    def test_gradient_vs_finite_differences(self):
        g, root = referenced_graph(seed=12, n=8)
        store = tiny_refine_weights(12, random_head=True)
        init_rows = np.asarray(spt_init(g, root))
        params = dict(store.params)

        def build(tape, p):
            return refinement.refine_loss_graph(tape, g, init_rows, root, p)

        assert fd_gradients(build, params) < 1e-3

    def test_training_step_peak_memory_within_edge_budget(self):
        # the dense-shaped graph of TestForward, re-referenced at its root;
        # as for CleanNet, a recording step is a few (2E, H) arrays at peak
        cfg = synthgen.SynthConfig(n_cameras=(150, 150), edge_fraction=(0.66, 0.66),
                                   sigma_deg=(5.0, 5.0), outlier_fraction=(0.1, 0.1))
        g = synthgen.generate_graph(cfg, np.random.default_rng(0))
        root = viewgraph.select_root(g)
        g = with_gt(g, viewgraph.rereference(g.gt, root))
        init = np.asarray(spt_init(g, root))
        store = refinement.new_weights(0)
        tracemalloc.start()
        try:
            tape = Tape()
            tape.backward(refinement.refine_loss_graph(tape, g, init, root, store.bind(tape)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_edge_array = 2 * g.n_edges * MpnnConfig().hidden_dim * 8
        assert peak <= 4 * one_edge_array
