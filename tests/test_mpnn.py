from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpnn_oracle
from fd import fd_gradients
from rotavg import cleaning, mpnn, refinement, so3
from rotavg.autodiff import AutodiffError, ParamStore, save_checkpoint
from rotavg.mpnn import MpnnConfig
from rotavg.viewgraph import ViewGraph

TINY = MpnnConfig(rounds=2, hidden_dim=3, msg_dim=3)
IDENTITY = (1.0, 0.0, 0.0, 0.0)


def tiny_weights(cfg=TINY, seed=0):
    store = ParamStore()
    mpnn.init_weights(cfg, np.random.default_rng(seed), store)
    return store


def graph(n, pairs):
    """A view-graph over the edges ``pairs`` (flipped to ``u < v`` on
    construction); ``forward`` reads only its structure, so every
    measurement is the identity."""
    e = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return ViewGraph(n, e[:, 0], e[:, 1], np.tile(IDENTITY, (len(e), 1)))


def random_graph(rng, n, m):
    """``m`` distinct random pairs of ``n`` nodes, each in a random direction."""
    iu, iv = np.triu_indices(n, 1)
    pick = rng.choice(iu.size, size=m, replace=False)
    flip = rng.random(m) < 0.5
    return graph(n, np.stack([np.where(flip, iv[pick], iu[pick]),
                              np.where(flip, iu[pick], iv[pick])], axis=1))


TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def run_forward(store, g, feats, node_init=None, heads=()):
    """Final node states, or with ``heads`` (pairs of arrays) their outputs."""
    return mpnn.forward(store.params, g, feats, node_init, heads)[0]


class TestForward:
    def test_single_node_no_edges(self):
        cfg = MpnnConfig(rounds=2, hidden_dim=3, msg_dim=3)
        store = tiny_weights(cfg)
        h = run_forward(store, graph(1, []), np.zeros((0, 4)))
        # zero initial state, zero aggregate: the update chain on zeros
        w = store.params
        state = np.zeros((1, 3))
        for t in range(cfg.rounds):
            pre = np.concatenate([state, np.zeros((1, 3))], axis=1)
            state = np.maximum(pre @ w[f"step{t}.upd.w"] + w[f"step{t}.upd.b"], 0.0)
        assert np.allclose(h, state)

    def test_permutation_invariance(self):
        store = tiny_weights()
        rng = np.random.default_rng(1)
        g = graph(3, TRIANGLE)
        feats = rng.normal(size=(3, 4))
        h1 = run_forward(store, g, feats)

        # relabel nodes with a permutation and permute the edge list order; an
        # edge the relabelling flips is stored the other way round, with the
        # conjugate feature
        perm = np.array([2, 0, 1])  # old -> new
        order = np.array([2, 0, 1])
        u, v = g.endpoint_arrays()
        pu, pv = perm[u][order], perm[v][order]
        feats2 = np.where((pu > pv)[:, None], so3.qconj(feats[order]), feats[order])
        assert np.any(pu > pv)
        h2 = run_forward(store, graph(3, np.stack([pu, pv], axis=1)), feats2)
        assert np.array_equal(h2[perm], h1)

    def test_isomorphic_graphs_bit_identical(self):
        store = tiny_weights()
        rng = np.random.default_rng(2)
        g = graph(3, [(0, 1), (1, 2)])
        feats = rng.normal(size=(2, 4))
        head = [(rng.normal(size=(3, 2)), rng.normal(size=2))]
        h1 = run_forward(store, g, feats)
        h2 = run_forward(store, graph(3, [(0, 1), (1, 2)]), feats.copy())
        (m1,) = run_forward(store, g, feats, heads=head)
        (m2,) = run_forward(store, graph(3, [(0, 1), (1, 2)]), feats.copy(), heads=head)
        assert np.array_equal(h1, h2) and np.array_equal(m1, m2)

    def test_isolated_node_gets_zero_aggregate(self):
        store = tiny_weights()
        feats = np.random.default_rng(3).normal(size=(1, 4))
        h = run_forward(store, graph(3, [(0, 1)]), feats)
        assert np.all(np.isfinite(h))

    def test_node_init_padding(self):
        cfg = MpnnConfig(rounds=1, hidden_dim=4, msg_dim=3)
        store = tiny_weights(cfg)
        init = np.array([[1.0, 2.0], [3.0, 4.0]])
        h = run_forward(store, graph(2, [(0, 1)]), np.zeros((1, 4)), node_init=init)
        assert h.shape == (2, 4)

    def test_shape_validation(self):
        w = tiny_weights().params
        g = graph(2, [(0, 1)])
        feats = np.zeros((1, 4))
        # one row per stored edge, four wide: not both directions, not 5 wide
        for bad_feats in (np.zeros((2, 4)), np.zeros((1, 5)), np.zeros(4)):
            with pytest.raises(AutodiffError, match="edge_feats shape"):
                mpnn.forward(w, g, bad_feats)
        with pytest.raises(AutodiffError):
            mpnn.forward(w, g, feats, np.zeros((2, 4)))
        bad = dict(w, **{"step1.msg2.w": np.zeros((3, 4))})
        with pytest.raises(AutodiffError, match="step1.msg2.w"):
            mpnn.forward(bad, g, feats)

    @pytest.mark.parametrize("rows, width", [(3, 2), (1, 2), (2, 0), (2, 4)])
    def test_node_init_of_another_shape_rejected(self, rows, width):
        # TINY's hidden width is 3: node_init fills 1 to 3 leading columns of N rows
        w = tiny_weights().params
        g, feats = graph(2, [(0, 1)]), np.zeros((1, 4))
        with pytest.raises(AutodiffError, match="node_init shape"):
            mpnn.forward(w, g, feats, np.zeros((rows, width)))
        assert run_forward(tiny_weights(), g, feats, node_init=np.ones((2, 3))).shape == (2, 3)

    @pytest.mark.parametrize("recording", [True, False])
    def test_head_validation(self, recording):
        # recording: the run is pulled back, as a training step's tape record does
        w = tiny_weights().params
        g, feats = graph(2, [(0, 1)]), np.zeros((1, 4))
        good = (np.zeros((3, 2)), np.zeros(2))
        for heads in ([(np.zeros((4, 2)), good[1])],
                      [(good[0], np.zeros(3))],
                      [good, (np.zeros(3), np.zeros(1))]):
            with pytest.raises(AutodiffError, match="head shapes"):
                mpnn.forward(w, g, feats, None, heads)
        (out,), pullback = mpnn.forward(w, g, feats, None, [good])
        assert out.shape == (1, 2)
        if recording:
            g_stack, ((gw, gb),) = pullback(np.ones_like(out))
            assert g_stack.keys() == w.keys()
            assert gw.shape == good[0].shape and gb.shape == good[1].shape


def random_store(cfg, seed):
    """Weights and biases all drawn at random, so that the relus see both signs."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in mpnn.weight_spec(cfg).items():
        store.add(name, rng.normal(0.0, 0.5, size=shape))
    return store


@st.composite
def view_graphs(draw):
    """Random distinct edges in random directions over 1 to 12 nodes; up to
    11 extra edges at node 0 can give it a degree past every chunk size
    tested, and nodes past the drawn endpoints are isolated."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    pairs += [(k, 0) for k in range(1, draw(st.integers(0, n - 1)) + 1)]
    first = {}
    for a, b in pairs:
        if a != b:
            first.setdefault((min(a, b), max(a, b)), (a, b))
    return graph(n + draw(st.integers(0, 3)), list(first.values()))


def recorded_run(forward, store, g, feats, init, heads, upstream_seed, used=None):
    """Outputs of ``forward`` (``mpnn.forward`` or the oracle's
    ``array_forward``), and the gradients of every weight and head of
    ``sum(out * upstream)`` over its first ``used`` outputs (all by
    default); weights and heads the loss does not reach get zeros."""
    out, pullback = forward(store.params, g, feats, init, heads)
    outs = out if heads else [out]
    rng = np.random.default_rng(upstream_seed)
    upstream = [rng.normal(size=o.shape) for o in outs[:used]]
    g_stack, g_heads = pullback(*upstream, *[None] * (len(outs) - len(upstream)))
    grads = dict(g_stack, **{f"head{i}.{p}": grad for i, pair in enumerate(g_heads)
                             for p, grad in zip("wb", pair)})
    return outs, grads


class TestInferenceRounds:
    """``mpnn.forward``, its values and its pullback, against the recording
    loop of generic tape primitives in ``mpnn_oracle`` over the directed
    edges that ``mpnn_oracle.directed`` builds, run by ``array_forward``."""

    @staticmethod
    def assert_matches_oracle(store, g, feats, init, heads, seed=0, used=None):
        args = (store, g, feats, init, heads, seed, used)
        (outs, grads), (want_outs, want_grads) = (
            recorded_run(f, *args) for f in (mpnn.forward, mpnn_oracle.array_forward))
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
    @given(view_graphs(), st.sampled_from([1, 3, 7]), st.sampled_from([0, 4]),
           st.integers(0, 2**32 - 1))
    def test_matches_recording_tape(self, g, chunk, init_dim, seed):
        cfg = MpnnConfig(rounds=3, hidden_dim=5, msg_dim=4)
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(g.n_edges, 4))
        init = rng.normal(size=(g.n_nodes, init_dim)) if init_dim else None
        heads = [(rng.normal(size=(4, 4)), rng.normal(size=4)),
                 (rng.normal(size=(4, 1)), rng.normal(size=1))]
        store = random_store(cfg, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mpnn, "CHUNK_ROWS", chunk)
            (h,) = self.assert_matches_oracle(store, g, feats, init, (), seed)
            self.assert_matches_oracle(store, g, feats, init, heads, seed)
        assert h.shape == (g.n_nodes, 5)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("init_dim", [0, 4])
    @pytest.mark.parametrize("m", [0, 21])  # 2E = 42 rows: a multiple of every chunk size
    def test_edge_counts_at_the_boundaries(self, chunk, init_dim, m, monkeypatch):
        monkeypatch.setattr(mpnn, "CHUNK_ROWS", chunk)
        cfg = MpnnConfig(rounds=2, hidden_dim=5, msg_dim=4)
        rng = np.random.default_rng(m + chunk)
        n = 8
        g = random_graph(rng, n, m)
        feats = rng.normal(size=(m, 4))
        init = rng.normal(size=(n, init_dim)) if init_dim else None
        heads = [(rng.normal(size=(4, 2)), rng.normal(size=2))]
        store = random_store(cfg, chunk)
        self.assert_matches_oracle(store, g, feats, init, ())
        (out,) = self.assert_matches_oracle(store, g, feats, init, heads)
        assert out.shape == (m, 2)

    def test_head_outside_the_loss(self, monkeypatch):
        # a loss that reads one head only: the other head's weights get zeros
        monkeypatch.setattr(mpnn, "CHUNK_ROWS", 3)
        cfg = MpnnConfig(rounds=2, hidden_dim=5, msg_dim=4)
        rng = np.random.default_rng(4)
        g = random_graph(rng, 6, 9)
        heads = [(rng.normal(size=(4, 4)), rng.normal(size=4)),
                 (rng.normal(size=(4, 1)), rng.normal(size=1))]
        args = (random_store(cfg, 4), g, rng.normal(size=(9, 4)), None, heads)
        self.assert_matches_oracle(*args, used=1)
        _, grads = recorded_run(mpnn.forward, *args, 0, used=1)
        assert not np.any(grads["head1.w"]) and not np.any(grads["head1.b"])

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_no_state_carries_between_calls(self, chunk, monkeypatch):
        monkeypatch.setattr(mpnn, "CHUNK_ROWS", chunk)
        cfg = MpnnConfig(rounds=3, hidden_dim=5, msg_dim=4)
        store = random_store(cfg, 0)
        rng = np.random.default_rng(1)
        heads = [(rng.normal(size=(4, 3)), rng.normal(size=3))]
        a, b = ((random_graph(rng, n, m), rng.normal(size=(m, 4))) for n, m in ((6, 9), (11, 30)))
        runs = [(recorded_run(mpnn.forward, store, g, feats, None, (), 0),
                 recorded_run(mpnn.forward, store, g, feats, None, heads, 0))
                for g, feats in (a, b, a)]
        for (outs, grads), (outs_again, grads_again) in zip(runs[0], runs[2]):
            assert all(np.array_equal(x, y) for x, y in zip(outs, outs_again))
            assert all(np.array_equal(grads[k], grads_again[k]) for k in grads)


class TestEdgeRuns:
    @settings(max_examples=60, deadline=None)
    @given(view_graphs(), st.integers(0, 2**32 - 1))
    def test_sorted_rows_match_fancy_indexing(self, g, seed):
        # ``build`` gathers with ``take``; fancy indexing gives the same bits
        feats = np.random.default_rng(seed).normal(size=(g.n_edges, 4))
        runs = mpnn._EdgeRuns.build(g, feats)
        u, v = g.endpoint_arrays()
        src, dst = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.argsort(dst, kind="stable")
        for got, want in ((runs.s_src, src[order]), (runs.s_dst, dst[order]),
                          (runs.s_feats, np.concatenate([feats, so3.qconj(feats)])[order])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


class TestGradients:
    def test_full_network_gradient_check(self):
        cfg = MpnnConfig(rounds=4, hidden_dim=3, msg_dim=3)
        # seed keeps every relu pre-activation away from the kink, where the
        # central difference would straddle the non-differentiability; with
        # zero biases, an edge whose first message layer is all dead puts the
        # second layer's pre-activations on it
        store = tiny_weights(cfg, seed=2)
        rng = np.random.default_rng(102)
        g = graph(3, TRIANGLE)
        feats = rng.normal(size=(3, 4))
        init = rng.normal(size=(3, 2))
        params = {name: arr for name, arr in store.params.items()}
        params["head.w"] = rng.normal(size=(3, 2))
        params["head.b"] = rng.normal(size=2)

        def build(tape, p):
            weights = {k: p[k] for k in store.params}
            h = mpnn_oracle.taped_forward(tape, weights, g, feats, init)
            (out,) = mpnn_oracle.taped_forward(tape, weights, g, feats, init,
                                               [(p["head.w"], p["head.b"])])
            return tape.add(tape.sum(tape.mul(h, h)), tape.sum(out))

        err = fd_gradients(build, params, tape_cls=mpnn_oracle.OracleTape)
        assert err < 1e-3


class TestConfigOf:
    @pytest.mark.parametrize("cfg", [TINY, MpnnConfig(), MpnnConfig(1, 2, 3)])
    def test_sizes_read_back(self, cfg):
        assert mpnn.config_of(tiny_weights(cfg).params) == cfg

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
        ((), {"step0.msg1.w": np.zeros((12, 3))}, r"'step0.msg1.w' has 12 rows, not 2H \+ 4"),
    ])
    def test_failures_name_the_weight(self, dropped, replaced, named):
        # four rounds with H = M = 3 and four-wide edge features: msg1.w is (10, 3)
        store = tiny_weights(MpnnConfig(rounds=4, hidden_dim=3, msg_dim=3))
        weights = {k: v for k, v in store.params.items() if not k.startswith(dropped)}
        weights.update(replaced)
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


def test_forward_knows_no_tape():
    # the message passing runs on arrays; a network's training step records it
    imported = {alias.name for node in ast.walk(ast.parse(inspect.getsource(mpnn)))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported & {"Tape", "Tensor", "accumulate"} == set()


class TestConfig:
    @pytest.mark.parametrize("field", ["rounds", "hidden_dim", "msg_dim"])
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
