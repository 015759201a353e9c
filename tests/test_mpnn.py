from __future__ import annotations

import numpy as np
import pytest

from fd import fd_gradients
from rotavg import cleaning, mpnn, refinement
from rotavg.autodiff import AutodiffError, ParamStore, Tape, save_checkpoint
from rotavg.mpnn import MpnnConfig

TINY = MpnnConfig(rounds=2, hidden_dim=3, msg_dim=3, edge_feat_dim=2, node_init_dim=0)


def tiny_weights(cfg=TINY, seed=0):
    store = ParamStore()
    mpnn.init_weights(cfg, np.random.default_rng(seed), store)
    return store


def run_forward(cfg, store, uv, feats, n_nodes, node_init=None):
    tape = Tape(recording=False)
    weights = store.bind(tape)
    init = tape.constant(node_init) if node_init is not None else None
    h, msgs = mpnn.forward(tape, weights, cfg, uv, tape.constant(feats), init, n_nodes)
    return h.values, msgs.values


class TestForward:
    def test_single_node_no_edges(self):
        cfg = MpnnConfig(rounds=2, hidden_dim=3, msg_dim=3, edge_feat_dim=2)
        store = tiny_weights(cfg)
        uv = np.zeros((0, 2), dtype=np.int64)
        h, _ = run_forward(cfg, store, uv, np.zeros((0, 2)), 1)
        # zero initial state, zero aggregate: the update chain on zeros
        tape = Tape(recording=False)
        w = store.bind(tape)
        state = np.zeros((1, 3))
        for t in range(cfg.rounds):
            pre = np.concatenate([state, np.zeros((1, 3))], axis=1)
            state = np.maximum(pre @ w[f"step{t}.upd.w"].values + w[f"step{t}.upd.b"].values, 0.0)
        assert np.allclose(h, state)

    def test_permutation_invariance(self):
        cfg = TINY
        store = tiny_weights(cfg)
        rng = np.random.default_rng(1)
        uv = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]])
        feats = rng.normal(size=(6, 2))
        h1, _ = run_forward(cfg, store, uv, feats, 3)

        # relabel nodes with a permutation and permute the edge list order
        perm = np.array([2, 0, 1])  # old -> new
        order = np.array([3, 0, 5, 1, 4, 2])
        uv2 = perm[uv][order]
        feats2 = feats[order]
        h2, _ = run_forward(cfg, store, uv2, feats2, 3)
        assert np.array_equal(h2[perm], h1)

    def test_isomorphic_graphs_bit_identical(self):
        cfg = TINY
        store = tiny_weights(cfg)
        rng = np.random.default_rng(2)
        uv = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
        feats = rng.normal(size=(4, 2))
        h1, m1 = run_forward(cfg, store, uv, feats, 3)
        h2, m2 = run_forward(cfg, store, uv.copy(), feats.copy(), 3)
        assert np.array_equal(h1, h2) and np.array_equal(m1, m2)

    def test_isolated_node_gets_zero_aggregate(self):
        cfg = TINY
        store = tiny_weights(cfg)
        uv = np.array([[0, 1], [1, 0]])
        feats = np.random.default_rng(3).normal(size=(2, 2))
        h, _ = run_forward(cfg, store, uv, feats, 3)
        assert np.all(np.isfinite(h))

    def test_node_init_padding(self):
        cfg = MpnnConfig(rounds=1, hidden_dim=4, msg_dim=3, edge_feat_dim=2, node_init_dim=2)
        store = tiny_weights(cfg)
        uv = np.array([[0, 1], [1, 0]])
        feats = np.zeros((2, 2))
        init = np.array([[1.0, 2.0], [3.0, 4.0]])
        h, _ = run_forward(cfg, store, uv, feats, 2, node_init=init)
        assert h.shape == (2, 4)

    def test_shape_validation(self):
        cfg = TINY
        store = tiny_weights(cfg)
        tape = Tape()
        w = store.bind(tape)
        with pytest.raises(AutodiffError):
            mpnn.forward(tape, w, cfg, np.zeros((2, 3)), tape.constant(np.zeros((2, 2))), None, 3)
        with pytest.raises(AutodiffError):
            mpnn.forward(
                tape, w, cfg, np.array([[0, 1]]), tape.constant(np.zeros((1, 5))), None, 2
            )
        with pytest.raises(AutodiffError):
            mpnn.forward(
                tape, w, cfg, np.array([[0, 1]]), tape.constant(np.zeros((1, 2))),
                tape.constant(np.zeros((2, 4))), 2,
            )


class TestGradients:
    def test_full_network_gradient_check(self):
        cfg = MpnnConfig(rounds=4, hidden_dim=3, msg_dim=3, edge_feat_dim=2, node_init_dim=2)
        # seed keeps every relu pre-activation away from the kink, where the
        # central difference would straddle the non-differentiability
        store = tiny_weights(cfg, seed=25)
        rng = np.random.default_rng(125)
        uv = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]])
        feats = rng.normal(size=(6, 2))
        init = rng.normal(size=(3, 2))
        params = {name: arr for name, arr in store.params.items()}
        params["edge_feats"] = feats
        params["node_init"] = init

        def build(tape, p):
            weights = {k: p[k] for k in store.params}
            h, msgs = mpnn.forward(
                tape, weights, cfg, uv, p["edge_feats"], p["node_init"], 3
            )
            return tape.add(tape.sum(tape.mul(h, h)), tape.sum(msgs))

        err = fd_gradients(build, params)
        assert err < 1e-3


class TestParamCount:
    def test_combined_networks_in_budget(self):
        total = sum(
            int(np.prod(s)) for s in cleaning.weight_spec().values()
        ) + sum(int(np.prod(s)) for s in refinement.weight_spec().values())
        assert 40_000 <= total <= 60_000

    def test_checkpoints_under_half_megabyte(self, tmp_path):
        clean = cleaning.new_weights(0)
        fine = refinement.new_weights(0)
        save_checkpoint(clean, tmp_path / "clean.json")
        save_checkpoint(fine, tmp_path / "fine.json")
        total = (tmp_path / "clean.json").stat().st_size + (tmp_path / "fine.json").stat().st_size
        assert total < 500_000
