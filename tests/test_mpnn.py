from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpnn_oracle
from fd import fd_gradients
from rotavg import cleaning, mpnn, refinement
from rotavg.autodiff import AutodiffError, ParamStore, Tape, save_checkpoint
from rotavg.mpnn import MpnnConfig

TINY = MpnnConfig(rounds=2, hidden_dim=3, msg_dim=3, edge_feat_dim=2)


def tiny_weights(cfg=TINY, seed=0):
    store = ParamStore()
    mpnn.init_weights(cfg, np.random.default_rng(seed), store)
    return store


def run_forward(store, uv, feats, n_nodes, node_init=None, heads=(), head_rows=0,
                recording=False):
    """Final node states, or with ``heads`` (pairs of arrays) their outputs."""
    tape = Tape(recording=recording)
    weights = store.bind(tape)
    head_tensors = [(tape.leaf(w), tape.leaf(b)) for w, b in heads]
    out = mpnn.forward(tape, weights, uv, feats, node_init, n_nodes, head_tensors, head_rows)
    return [o.values for o in out] if heads else out.values


class TestForward:
    def test_single_node_no_edges(self):
        cfg = MpnnConfig(rounds=2, hidden_dim=3, msg_dim=3, edge_feat_dim=2)
        store = tiny_weights(cfg)
        uv = np.zeros((0, 2), dtype=np.int64)
        h = run_forward(store, uv, np.zeros((0, 2)), 1)
        # zero initial state, zero aggregate: the update chain on zeros
        tape = Tape(recording=False)
        w = store.bind(tape)
        state = np.zeros((1, 3))
        for t in range(cfg.rounds):
            pre = np.concatenate([state, np.zeros((1, 3))], axis=1)
            state = np.maximum(pre @ w[f"step{t}.upd.w"].values + w[f"step{t}.upd.b"].values, 0.0)
        assert np.allclose(h, state)

    def test_permutation_invariance(self):
        store = tiny_weights()
        rng = np.random.default_rng(1)
        uv = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]])
        feats = rng.normal(size=(6, 2))
        h1 = run_forward(store, uv, feats, 3)

        # relabel nodes with a permutation and permute the edge list order
        perm = np.array([2, 0, 1])  # old -> new
        order = np.array([3, 0, 5, 1, 4, 2])
        uv2 = perm[uv][order]
        feats2 = feats[order]
        h2 = run_forward(store, uv2, feats2, 3)
        assert np.array_equal(h2[perm], h1)

    def test_isomorphic_graphs_bit_identical(self):
        store = tiny_weights()
        rng = np.random.default_rng(2)
        uv = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
        feats = rng.normal(size=(4, 2))
        head = [(rng.normal(size=(3, 2)), rng.normal(size=2))]
        h1 = run_forward(store, uv, feats, 3)
        h2 = run_forward(store, uv.copy(), feats.copy(), 3)
        (m1,) = run_forward(store, uv, feats, 3, heads=head, head_rows=4)
        (m2,) = run_forward(store, uv.copy(), feats.copy(), 3, heads=head, head_rows=4)
        assert np.array_equal(h1, h2) and np.array_equal(m1, m2)

    def test_isolated_node_gets_zero_aggregate(self):
        store = tiny_weights()
        uv = np.array([[0, 1], [1, 0]])
        feats = np.random.default_rng(3).normal(size=(2, 2))
        h = run_forward(store, uv, feats, 3)
        assert np.all(np.isfinite(h))

    def test_node_init_padding(self):
        cfg = MpnnConfig(rounds=1, hidden_dim=4, msg_dim=3, edge_feat_dim=2)
        store = tiny_weights(cfg)
        uv = np.array([[0, 1], [1, 0]])
        feats = np.zeros((2, 2))
        init = np.array([[1.0, 2.0], [3.0, 4.0]])
        h = run_forward(store, uv, feats, 2, node_init=init)
        assert h.shape == (2, 4)

    def test_shape_validation(self):
        store = tiny_weights()
        for recording in (True, False):
            tape = Tape(recording=recording)
            w = store.bind(tape)
            feats = np.zeros((1, 2))
            with pytest.raises(AutodiffError):
                mpnn.forward(tape, w, np.zeros((2, 3)), np.zeros((2, 2)), None, 3)
            with pytest.raises(AutodiffError):
                mpnn.forward(tape, w, np.array([[0, 1]]), np.zeros((1, 5)), None, 2)
            with pytest.raises(AutodiffError):
                mpnn.forward(tape, w, np.array([[0, 1]]), feats, np.zeros((2, 4)), 2)
            bad = dict(w, **{"step1.msg2.w": tape.leaf(np.zeros((3, 4)))})
            with pytest.raises(AutodiffError, match="step1.msg2.w"):
                mpnn.forward(tape, bad, np.array([[0, 1]]), feats, None, 2)
            # np.take would wrap -1 to the last node; 2 is one past it
            for uv in ([[-1, 1]], [[0, 2]]):
                with pytest.raises(AutodiffError, match="out of range"):
                    mpnn.forward(tape, w, np.array(uv), feats, None, 2)

    @pytest.mark.parametrize("rows, width", [(3, 2), (1, 2), (2, 0), (2, 4)])
    def test_node_init_of_another_shape_rejected(self, rows, width):
        # TINY's hidden width is 3: node_init fills 1 to 3 leading columns of N rows
        tape = Tape(recording=False)
        w = tiny_weights().bind(tape)
        uv, feats = np.array([[0, 1], [1, 0]]), np.zeros((2, 2))
        with pytest.raises(AutodiffError, match="node_init shape"):
            mpnn.forward(tape, w, uv, feats, np.zeros((rows, width)), 2)
        assert run_forward(tiny_weights(), uv, feats, 2, node_init=np.ones((2, 3))).shape == (2, 3)

    @pytest.mark.parametrize("recording", [True, False])
    def test_head_validation(self, recording):
        tape = Tape(recording=recording)
        w = tiny_weights().bind(tape)
        uv = np.array([[0, 1], [1, 0]])
        feats = np.zeros((2, 2))
        good = (tape.leaf(np.zeros((3, 2))), tape.leaf(np.zeros(2)))
        for heads, rows in (([good], 3), ([good], -1),
                            ([(tape.leaf(np.zeros((4, 2))), good[1])], 1),
                            ([(good[0], tape.leaf(np.zeros(3)))], 1)):
            with pytest.raises(AutodiffError):
                mpnn.forward(tape, w, uv, feats, None, 2, heads, rows)


def random_store(cfg, seed):
    """Weights and biases all drawn at random, so that the relus see both signs."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in mpnn.weight_spec(cfg).items():
        store.add(name, rng.normal(0.0, 0.5, size=shape))
    return store


@st.composite
def directed_graphs(draw):
    """Both directions of random (multi-)edges; nodes past the drawn
    endpoints are isolated, and up to 12 extra edges into node 0 can give it
    an in-degree past every chunk size tested."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    hub = draw(st.integers(0, 12)) if n > 1 else 0
    pairs += [(1 + i % (n - 1), 0) for i in range(hub)]
    e = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return n + draw(st.integers(0, 3)), np.concatenate([e, e[:, ::-1]]), len(pairs)


def recorded_run(forward, store, n, uv, feats, init, heads, head_rows, upstream_seed,
                 used=None):
    """Outputs of ``forward`` on a recording tape, and the gradients of every
    weight and head of ``sum(out * upstream)`` over its first ``used``
    outputs (all by default); leaves the loss does not reach get zeros."""
    tape = mpnn_oracle.OracleTape()
    weights = {k: tape.leaf(v, requires_grad=True) for k, v in store.params.items()}
    head_t = [(tape.leaf(w, requires_grad=True), tape.leaf(b, requires_grad=True))
              for w, b in heads]
    out = forward(tape, weights, uv, feats, init, n, head_t, head_rows)
    outs = out if heads else [out]
    rng = np.random.default_rng(upstream_seed)
    terms = [tape.sum(tape.mul(o, tape.constant(rng.normal(size=o.shape)))) for o in outs[:used]]
    loss = terms[0]
    for term in terms[1:]:
        loss = tape.add(loss, term)
    tape.backward(loss)
    leaves = dict(weights, **{f"head{i}.{p}": t for i, pair in enumerate(head_t)
                              for p, t in zip("wb", pair)})
    grads = {k: np.zeros(t.shape) if t.grad is None else t.grad for k, t in leaves.items()}
    return [o.values for o in outs], grads


class TestInferenceRounds:
    """``mpnn.forward``, its values and its pullback, against the recording
    loop of generic tape primitives in ``mpnn_oracle``."""

    @staticmethod
    def assert_matches_oracle(store, n, uv, feats, init, heads, head_rows, seed=0, used=None):
        args = (store, n, uv, feats, init, heads, head_rows, seed, used)
        (outs, grads), (want_outs, want_grads) = (
            recorded_run(f, *args) for f in (mpnn.forward, mpnn_oracle.forward))
        assert len(outs) == len(want_outs) == max(len(heads), 1)
        for got, want in zip(outs, want_outs):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
            assert np.max(np.abs(grads[name] - want), initial=0.0) <= 1e-10 * scale, name
        return outs

    @settings(max_examples=60, deadline=None)
    @given(directed_graphs(), st.sampled_from([1, 3, 7]), st.sampled_from([0, 4]),
           st.integers(0, 2**32 - 1))
    def test_matches_recording_tape(self, graph, chunk, init_dim, seed):
        n, uv, m = graph
        cfg = MpnnConfig(rounds=3, hidden_dim=5, msg_dim=4, edge_feat_dim=3)
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(len(uv), 3))
        init = rng.normal(size=(n, init_dim)) if init_dim else None
        heads = [(rng.normal(size=(4, 4)), rng.normal(size=4)),
                 (rng.normal(size=(4, 1)), rng.normal(size=1))]
        store = random_store(cfg, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mpnn, "CHUNK_ROWS", chunk)
            (h,) = self.assert_matches_oracle(store, n, uv, feats, init, (), 0, seed)
            self.assert_matches_oracle(store, n, uv, feats, init, heads, m, seed)
        assert h.shape == (n, 5)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("init_dim", [0, 4])
    @pytest.mark.parametrize("m", [0, 21])  # 2E = 42 rows: a multiple of every chunk size
    def test_edge_counts_at_the_boundaries(self, chunk, init_dim, m, monkeypatch):
        monkeypatch.setattr(mpnn, "CHUNK_ROWS", chunk)
        cfg = MpnnConfig(rounds=2, hidden_dim=5, msg_dim=4, edge_feat_dim=3)
        rng = np.random.default_rng(m + chunk)
        n = 8
        e = np.stack([np.arange(m) % n, (3 * np.arange(m) + 1) % n], axis=1)
        uv = np.concatenate([e, e[:, ::-1]]).reshape(-1, 2)
        feats = rng.normal(size=(2 * m, 3))
        init = rng.normal(size=(n, init_dim)) if init_dim else None
        heads = [(rng.normal(size=(4, 2)), rng.normal(size=2))]
        store = random_store(cfg, chunk)
        self.assert_matches_oracle(store, n, uv, feats, init, (), 0)
        (out,) = self.assert_matches_oracle(store, n, uv, feats, init, heads, m)
        assert out.shape == (m, 2)

    def test_head_outside_the_loss(self, monkeypatch):
        # a loss that reads one head only: the other head's weights get zeros
        monkeypatch.setattr(mpnn, "CHUNK_ROWS", 3)
        cfg = MpnnConfig(rounds=2, hidden_dim=5, msg_dim=4, edge_feat_dim=3)
        rng = np.random.default_rng(4)
        e = rng.integers(0, 6, size=(9, 2))
        uv = np.concatenate([e, e[:, ::-1]])
        heads = [(rng.normal(size=(4, 4)), rng.normal(size=4)),
                 (rng.normal(size=(4, 1)), rng.normal(size=1))]
        args = (random_store(cfg, 4), 6, uv, rng.normal(size=(18, 3)), None, heads, 9)
        self.assert_matches_oracle(*args, used=1)
        _, grads = recorded_run(mpnn.forward, *args, 0, used=1)
        assert not np.any(grads["head1.w"]) and not np.any(grads["head1.b"])

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_no_state_carries_between_calls(self, chunk, monkeypatch):
        monkeypatch.setattr(mpnn, "CHUNK_ROWS", chunk)
        cfg = MpnnConfig(rounds=3, hidden_dim=5, msg_dim=4, edge_feat_dim=3)
        store = random_store(cfg, 0)
        rng = np.random.default_rng(1)
        heads = [(rng.normal(size=(4, 3)), rng.normal(size=3))]
        graphs = []
        for n, m in ((6, 9), (11, 30)):
            e = rng.integers(0, n, size=(m, 2))
            graphs.append((n, np.concatenate([e, e[:, ::-1]]), rng.normal(size=(2 * m, 3)), m))
        a, b = graphs
        runs = [(recorded_run(mpnn.forward, store, n, uv, feats, None, (), 0, 0),
                 recorded_run(mpnn.forward, store, n, uv, feats, None, heads, m, 0))
                for n, uv, feats, m in (a, b, a)]
        for (outs, grads), (outs_again, grads_again) in zip(runs[0], runs[2]):
            assert all(np.array_equal(x, y) for x, y in zip(outs, outs_again))
            assert all(np.array_equal(grads[k], grads_again[k]) for k in grads)


class TestGradients:
    def test_full_network_gradient_check(self):
        cfg = MpnnConfig(rounds=4, hidden_dim=3, msg_dim=3, edge_feat_dim=2)
        # seed keeps every relu pre-activation away from the kink, where the
        # central difference would straddle the non-differentiability
        store = tiny_weights(cfg, seed=25)
        rng = np.random.default_rng(125)
        uv = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]])
        feats = rng.normal(size=(6, 2))
        init = rng.normal(size=(3, 2))
        params = {name: arr for name, arr in store.params.items()}
        params["head.w"] = rng.normal(size=(3, 2))
        params["head.b"] = rng.normal(size=2)

        def build(tape, p):
            weights = {k: p[k] for k in store.params}
            h = mpnn.forward(tape, weights, uv, feats, init, 3)
            (out,) = mpnn.forward(tape, weights, uv, feats, init, 3,
                                  [(p["head.w"], p["head.b"])], head_rows=3)
            return tape.add(tape.sum(tape.mul(h, h)), tape.sum(out))

        err = fd_gradients(build, params, tape_cls=mpnn_oracle.OracleTape)
        assert err < 1e-3


class TestConfigOf:
    @pytest.mark.parametrize("cfg", [TINY, MpnnConfig(), MpnnConfig(1, 2, 3, 1)])
    def test_sizes_read_back(self, cfg):
        assert mpnn.config_of(tiny_weights(cfg).bind(Tape(recording=False))) == cfg

    @pytest.mark.parametrize("dropped, replaced, named", [
        (("step0.",), {}, "'step0.upd.w' is missing"),
        (("step0.upd.",), {}, "'step0.upd.w' is missing"),
        (("step0.msg1.w",), {}, "'step0.msg1.w' is missing"),
        (("step2.",), {}, "'step2.msg1.w' is missing"),  # steps 0, 1 and 3
        (("step1.upd.b",), {}, "'step1.upd.b' is missing"),
        ((), {"step0.msg1.w": np.zeros((6, 3))}, "'step0.msg1.w' has 6 rows"),
        ((), {"step0.msg1.w": np.zeros((5, 3))}, "'step0.msg1.w' has 5 rows"),
        ((), {"step0.upd.w": np.zeros((6, 0))}, r"'step0.upd.w' has shape \(6, 0\)"),
        ((), {"step0.msg2.w": np.zeros(3)}, r"'step0.msg2.w' has shape \(3,\)"),
        ((), {"step3.msg2.w": np.zeros((3, 4))}, r"'step3.msg2.w' has shape \(3, 4\)"),
    ])
    def test_failures_name_the_weight(self, dropped, replaced, named):
        # four rounds with H = M = 3 and two edge features: msg1.w is (8, 3)
        store = tiny_weights(MpnnConfig(rounds=4, hidden_dim=3, msg_dim=3, edge_feat_dim=2))
        tape = Tape(recording=False)
        weights = {k: t for k, t in store.bind(tape).items() if not k.startswith(dropped)}
        weights.update((k, tape.leaf(v)) for k, v in replaced.items())
        with pytest.raises(AutodiffError, match=f"weight {named}"):
            mpnn.config_of(weights)


def test_only_array_makers_take_a_config():
    # a network's sizes are in its weights; a config is taken only where arrays are made
    makers = {"weight_spec", "new_weights", "init_weights"}
    takers = []
    for module in (mpnn, cleaning, refinement):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__ or name in makers:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.name == "cfg" or "MpnnConfig" in str(param.annotation):
                    takers.append(f"{module.__name__}.{name}({param.name})")
    assert takers == []


class TestConfig:
    @pytest.mark.parametrize("field", ["rounds", "hidden_dim", "msg_dim", "edge_feat_dim"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", None, True])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MpnnConfig(**{field: value})
        assert getattr(MpnnConfig(**{field: np.int64(2)}), field) == 2


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
