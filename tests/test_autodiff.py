from __future__ import annotations

import ast
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpnn_oracle
from fd import fd_gradients
from mpnn_oracle import OracleTape
from rotavg import autodiff, so3
from rotavg.autodiff import (
    AutodiffError,
    CheckpointError,
    ParamStore,
    Tape,
    load_checkpoint,
    save_checkpoint,
)

RNG = np.random.default_rng(1234)


def oracle_fd(build, params):
    """``fd_gradients`` of ``build(tape, leaves)`` on the oracle tape, which
    has the generic primitives."""
    return fd_gradients(lambda p: mpnn_oracle.loss_and_grads(build, p), params)


def quat_rows(n, scale=1.0, seed=0):
    rows = so3.sample_uniform_rows(np.random.default_rng(seed), n)
    return rows * scale


class TestPrimitiveGradients:
    """Every primitive against the central finite-difference oracle."""

    def test_linear(self):
        params = {
            "x": RNG.normal(size=(6, 5)),
            "w": RNG.normal(size=(5, 3)),
            "b": RNG.normal(size=3),
        }
        err = oracle_fd(lambda t, p: t.sum(t.linear(p["x"], p["w"], p["b"])), params)
        assert err < 1e-4

    def test_relu(self):
        # keep inputs away from the kink
        x = RNG.normal(size=(5, 4))
        x[np.abs(x) < 0.05] += 0.1
        err = oracle_fd(lambda t, p: t.sum(t.mul(t.relu(p["x"]), p["x"])), {"x": x})
        assert err < 1e-4

    def test_relu_subgradient_sides(self):
        tape = OracleTape()
        x = tape.leaf(np.array([[2.0, -3.0, 0.0, -0.0]]), requires_grad=True)
        y = tape.sum(tape.relu(x))
        tape.backward(y)
        assert x.grad.tolist() == [[1.0, 0.0, 0.0, 0.0]]

    def test_concat_axis1(self):
        params = {"a": RNG.normal(size=(4, 2)), "b": RNG.normal(size=(4, 3))}
        err = oracle_fd(
            lambda t, p: t.sum(t.mul(t.concat([p["a"], p["b"]]), t.concat([p["a"], p["b"]]))),
            params,
        )
        assert err < 1e-4

    def test_gather(self):
        idx = np.array([0, 2, 2, 1])
        params = {"x": RNG.normal(size=(3, 4))}
        err = oracle_fd(
            lambda t, p: t.sum(t.mul(t.gather(p["x"], idx), t.gather(p["x"], idx))), params
        )
        assert err < 1e-4

    def test_edge_linear(self):
        dst, src = np.array([0, 2, 1, 2, 0]), np.array([2, 0, 2, 1, 1])
        params = {
            "h": RNG.normal(size=(4, 3)),  # node 3 is isolated
            "e": RNG.normal(size=(5, 2)),
            "w": RNG.normal(size=(8, 3)),
            "b": RNG.normal(size=3),
        }

        def build(t, p):
            out = t.edge_linear(p["h"], dst, src, p["e"], p["w"], p["b"])
            return t.sum(t.mul(out, out))

        assert oracle_fd(build, params) < 1e-4

    def test_scatter_mean(self):
        idx = np.array([0, 0, 1, 3, 3, 3])
        params = {"src": RNG.normal(size=(6, 2))}
        err = oracle_fd(
            lambda t, p: t.sum(t.mul(t.scatter_mean(p["src"], idx, 5), t.scatter_mean(p["src"], idx, 5))),
            params,
        )
        assert err < 1e-4

    def test_quat_normalize(self):
        params = {"x": quat_rows(5, scale=1.7, seed=3)}
        target = quat_rows(5, seed=4)
        err = oracle_fd(
            lambda t, p: t.sum(t.quat_dist_loss(t.quat_normalize(p["x"]), t.constant(target))),
            params,
        )
        assert err < 1e-4

    def test_quat_compose_and_conjugate(self):
        params = {"a": quat_rows(4, seed=5), "b": quat_rows(4, seed=6)}
        tgt = quat_rows(4, seed=7)
        err = oracle_fd(
            lambda t, p: t.sum(
                t.quat_dist_loss(t.quat_compose(p["a"], t.quat_conjugate(p["b"])), t.constant(tgt))
            ),
            params,
        )
        assert err < 1e-4

    def test_bce_with_logits(self):
        targets = (RNG.uniform(size=7) > 0.4).astype(float)
        params = {"z": RNG.normal(size=7) * 2.0}
        err = oracle_fd(
            lambda t, p: t.mean(t.bce_with_logits(p["z"], t.constant(targets))), params
        )
        assert err < 1e-4

    def test_quat_dist_loss_both_sides(self):
        params = {"a": quat_rows(6, seed=8), "b": quat_rows(6, seed=9)}
        err = oracle_fd(
            lambda t, p: t.sum(t.quat_dist_loss(p["a"], p["b"])), params
        )
        assert err < 1e-4

    def test_elementwise_and_reductions(self):
        params = {"a": RNG.normal(size=(3, 3)), "b": RNG.normal(size=(3, 3))}
        err = oracle_fd(
            lambda t, p: t.add(
                t.mean(t.mul(p["a"], p["b"])), t.scale(t.sum(p["a"]), 0.3)
            ),
            params,
        )
        assert err < 1e-4

    def test_reshape(self):
        params = {"x": RNG.normal(size=(4, 1))}
        err = oracle_fd(
            lambda t, p: t.sum(
                t.bce_with_logits(t.reshape(p["x"], (4,)), t.constant(np.ones(4)))
            ),
            params,
        )
        assert err < 1e-4


class TestForwardSemantics:
    def test_scatter_mean_one_edge_per_node_is_copy(self):
        tape = OracleTape()
        src = tape.leaf(RNG.normal(size=(4, 3)))
        out = tape.scatter_mean(src, np.array([0, 1, 2, 3]), 4)
        assert np.array_equal(out.values, src.values)

    def test_scatter_mean_empty_target_rows_are_zero(self):
        tape = OracleTape()
        src = tape.leaf(np.ones((2, 3)))
        out = tape.scatter_mean(src, np.array([0, 0]), 3)
        assert np.array_equal(out.values[1:], np.zeros((2, 3)))
        assert not np.any(np.isnan(out.values))

    def test_scatter_mean_matches_add_at(self):
        rng = np.random.default_rng(5)
        src = rng.normal(size=(50, 8))
        idx = rng.integers(0, 12, size=50)
        tape = OracleTape()
        out = tape.scatter_mean(tape.leaf(src), idx, 12).values
        ref = np.zeros((12, 8))
        np.add.at(ref, idx, src)
        counts = np.maximum(np.bincount(idx, minlength=12), 1)
        assert np.allclose(out, ref / counts[:, None], atol=1e-12)

    def test_quat_compose_matches_so3(self):
        a = quat_rows(5, seed=10)
        b = quat_rows(5, seed=11)
        tape = OracleTape()
        out = tape.quat_compose(tape.leaf(a), tape.leaf(b))
        assert np.allclose(out.values, so3.qmul(a, b))

    def test_quat_dist_tie_takes_flip_branch(self):
        # orthogonal quaternions: both branches give the same norm; the
        # deterministic choice is the sign-flipped one
        a = np.array([[1.0, 0.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0, 0.0]])
        tape = OracleTape()
        ta = tape.leaf(a, requires_grad=True)
        loss = tape.sum(tape.quat_dist_loss(ta, tape.leaf(b)))
        tape.backward(loss)
        expected = (a + b) / np.linalg.norm(a + b)
        assert np.allclose(ta.grad, expected)


def reduceat_segment_sum(rows: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """The former segment sum (stable argsort, then ``np.add.reduceat``), kept
    as the oracle of the bincount one."""
    out = np.zeros((n_rows, rows.shape[1]), dtype=np.float64)
    if index.size == 0:
        return out
    order = np.argsort(index, kind="stable")
    sorted_idx = index[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_idx)) + 1))
    out[sorted_idx[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


@st.composite
def segment_inputs(draw):
    """Rows, an index into ``n_rows`` buckets (possibly empty, often leaving
    buckets without entries) and row weights, of random shapes."""
    n_rows = draw(st.integers(0, 12))
    n_entries = draw(st.integers(0, 40)) if n_rows else 0
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    index = rng.integers(0, max(n_rows, 1), size=n_entries)
    return rng.normal(scale=scale, size=(n_entries, d)), index, n_rows


def assert_close(got: np.ndarray, want: np.ndarray, bound: np.ndarray) -> None:
    """Within 1e-12 of the summed magnitudes ``bound``; exactly 0 where ``bound`` is 0."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * bound)


class TestSegmentSumOracle:
    @settings(max_examples=200, deadline=None)
    @given(segment_inputs())
    def test_segment_sum(self, case):
        rows, index, n_rows = case
        got = autodiff._segment_sum(rows, index, n_rows)
        bound = reduceat_segment_sum(np.abs(rows), index, n_rows)
        assert_close(got, reduceat_segment_sum(rows, index, n_rows), bound)

    @settings(max_examples=200, deadline=None)
    @given(segment_inputs())
    def test_gather_pullback(self, case):
        g, index, n_rows = case
        tape = OracleTape()
        x = tape.leaf(np.ones((n_rows, g.shape[1])), requires_grad=True)
        tape.backward(tape.sum(tape.mul(tape.gather(x, index), tape.constant(g))))
        bound = reduceat_segment_sum(np.abs(g), index, n_rows)
        assert_close(x.grad, reduceat_segment_sum(g, index, n_rows), bound)

    @settings(max_examples=200, deadline=None)
    @given(segment_inputs())
    def test_scatter_mean(self, case):
        src, index, n_rows = case
        out = OracleTape().scatter_mean(OracleTape().leaf(src), index, n_rows).values
        denom = np.maximum(np.bincount(index, minlength=n_rows), 1)[:, None]
        bound = reduceat_segment_sum(np.abs(src), index, n_rows) / denom
        assert_close(out, reduceat_segment_sum(src, index, n_rows) / denom, bound)


def concat_edge_linear(tape, h, dst, src, e, w, b):
    """The former first message layer, the (m, 2H+F) concat of gathered rows
    and ``linear``, kept as the oracle of ``OracleTape.edge_linear``."""
    return tape.linear(tape.concat([tape.gather(h, dst), tape.gather(h, src), e]), w, b)


@st.composite
def edge_linear_inputs(draw):
    """Node rows, edge rows (possibly none) with random ends, which often
    leave nodes isolated, and weights of random shapes."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 40)) if n else 0
    hid, f, o = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    values = {
        "h": rng.normal(scale=scale, size=(n, hid)),
        "e": rng.normal(scale=scale, size=(m, f)),
        "w": rng.normal(size=(2 * hid + f, o)),
        "b": rng.normal(size=o),
    }
    dst, src = rng.integers(0, max(n, 1), size=(2, m))
    return values, dst, src, rng.normal(size=(m, o))


def edge_linear_run(op, values, dst, src, upstream):
    """Output and gradients of ``sum(op(...) * upstream)``."""
    tape = OracleTape()
    t = {k: tape.leaf(v, requires_grad=True) for k, v in values.items()}
    out = op(tape, t["h"], dst, src, t["e"], t["w"], t["b"])
    tape.backward(tape.sum(tape.mul(out, tape.constant(upstream))))
    return {"out": out.values, **{k: t[k].grad for k in values}}


class TestEdgeLinearOracle:
    @settings(max_examples=200, deadline=None)
    @given(edge_linear_inputs())
    def test_matches_concat_path(self, case):
        values, dst, src, upstream = case
        got = edge_linear_run(OracleTape.edge_linear, values, dst, src, upstream)
        want = edge_linear_run(concat_edge_linear, values, dst, src, upstream)
        # the oracle on magnitudes bounds every sum the two paths reorder
        bound = edge_linear_run(concat_edge_linear, {k: np.abs(v) for k, v in values.items()},
                                dst, src, np.abs(upstream))
        for key in want:
            assert_close(got[key], want[key], bound[key])


def where_relu(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The former two-pass relu (a mask, then ``np.where``) and its pullback,
    kept as the oracle of the one-pass one."""
    mask = x > 0.0
    return np.where(mask, x, 0.0), np.where(mask, g, 0.0)


class TestRelu:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=30),
           st.integers(0, 2**32 - 1))
    def test_matches_where_relu_on_finite_input(self, xs, seed):
        x = np.array(xs)
        g = np.random.default_rng(seed).normal(size=x.shape)
        tape = OracleTape()
        xt = tape.leaf(x, requires_grad=True)
        out = tape.relu(xt)
        tape.backward(tape.sum(tape.mul(out, tape.constant(g))))
        want_out, want_grad = where_relu(x, g)
        assert np.array_equal(out.values, want_out)
        assert np.array_equal(xt.grad, want_grad)

    def test_nan_propagates_with_zero_gradient(self):
        tape = OracleTape()
        x = tape.leaf(np.array([np.nan, 1.0, -1.0]), requires_grad=True)
        out = tape.relu(x)
        assert np.array_equal(out.values, [np.nan, 1.0, 0.0], equal_nan=True)
        tape.backward(tape.sum(tape.mul(tape.constant(np.ones(3)), out)))
        assert x.grad.tolist() == [0.0, 1.0, 0.0]

    def test_off_tape_leaves_caller_arrays_alone(self):
        tape = OracleTape()
        data = np.array([[-1.0, 2.0], [3.0, -4.0]])
        for x in (tape.leaf(data), tape.constant(data), tape.reshape(tape.leaf(data), (4,))):
            assert tape.relu(x).values.tolist() in ([[0.0, 2.0], [3.0, 0.0]], [0.0, 2.0, 3.0, 0.0])
        assert data.tolist() == [[-1.0, 2.0], [3.0, -4.0]]


class TestErrors:
    def test_shape_mismatch(self):
        tape = OracleTape()
        with pytest.raises(AutodiffError):
            tape.linear(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((4, 2))), tape.leaf(np.ones(2)))
        with pytest.raises(AutodiffError):
            tape.add(tape.leaf(np.ones(2)), tape.leaf(np.ones(3)))
        h, e = tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((2, 1)))
        w, b = tape.leaf(np.ones((5, 2))), tape.leaf(np.ones(2))
        ends = np.array([0, 1])
        for args in ((h, ends, ends, e, tape.leaf(np.ones((4, 2))), b),  # w rows != 2H + F
                     (h, ends, ends, e, w, tape.leaf(np.ones(3))),
                     (h, ends[:1], ends, e, w, b),
                     (h, ends, ends, tape.leaf(np.ones(2)), w, b)):
            with pytest.raises(AutodiffError, match="edge_linear"):
                tape.edge_linear(*args)

    def test_index_out_of_range(self):
        tape = OracleTape()
        with pytest.raises(AutodiffError):
            tape.gather(tape.leaf(np.ones((2, 2))), np.array([0, 2]))
        with pytest.raises(AutodiffError):
            tape.scatter_mean(tape.leaf(np.ones((2, 2))), np.array([0, 5]), 3)
        h, e = tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((2, 1)))
        w, b = tape.leaf(np.ones((5, 2))), tape.leaf(np.ones(2))
        for dst, src in (([0, 3], [1, 2]), ([0, 1], [-1, 2])):
            with pytest.raises(AutodiffError, match="out of range"):
                tape.edge_linear(h, np.array(dst), np.array(src), e, w, b)

    def test_non_scalar_backward(self):
        tape = OracleTape()
        x = tape.leaf(np.ones((2, 2)), requires_grad=True)
        y = tape.relu(x)
        with pytest.raises(AutodiffError, match="scalar"):
            tape.backward(y)

    def test_consumed_tape(self):
        tape = OracleTape()
        x = tape.leaf(np.ones(3), requires_grad=True)
        loss = tape.sum(x)
        tape.backward(loss)
        with pytest.raises(AutodiffError, match="consumed"):
            tape.backward(loss)

    def test_quat_normalize_degenerate(self):
        tape = OracleTape()
        with pytest.raises(AutodiffError, match="norm"):
            tape.quat_normalize(tape.leaf(np.zeros((1, 4))))


class TestBackwardClosedForms:
    def test_sum_of_weights_gives_ones(self):
        tape = OracleTape()
        w = tape.leaf(RNG.normal(size=(3, 4)), requires_grad=True)
        tape.backward(tape.sum(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_norm_squared_gradient(self):
        # loss = |W x|^2 has gradient 2 (W x) x^T in W
        x = RNG.normal(size=(1, 4))
        w0 = RNG.normal(size=(4, 3))
        tape = OracleTape()
        w = tape.leaf(w0, requires_grad=True)
        y = tape.linear(tape.constant(x), w, tape.constant(np.zeros(3)))
        loss = tape.sum(tape.mul(y, y))
        tape.backward(loss)
        expected = 2.0 * x.T @ (x @ w0)
        assert np.allclose(w.grad, expected, atol=1e-12)

    def test_fanout_accumulates(self):
        tape = OracleTape()
        x = tape.leaf(np.array([2.0]), requires_grad=True)
        loss = tape.sum(tape.add(x, x))
        tape.backward(loss)
        assert x.grad.tolist() == [2.0]

    def test_pass_through_gradients_are_not_shared(self):
        # add hands the same upstream array to both inputs; each gets its own
        tape = OracleTape()
        a = tape.leaf(np.ones(3), requires_grad=True)
        b = tape.leaf(np.ones(3), requires_grad=True)
        c = tape.leaf(np.ones(3), requires_grad=True)
        s = tape.add(a, b)
        loss = tape.sum(tape.mul(tape.add(s, c), tape.constant(np.arange(3.0))))
        tape.backward(loss)
        grads = [a.grad, b.grad, c.grad, s.grad]
        assert all(not np.shares_memory(p, q) for i, p in enumerate(grads) for q in grads[i + 1:])
        assert all(g.tolist() == [0.0, 1.0, 2.0] for g in grads)

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(33)
            tape = OracleTape()
            x = tape.leaf(rng.normal(size=(8, 4)), requires_grad=True)
            w = tape.leaf(rng.normal(size=(4, 4)), requires_grad=True)
            y = tape.relu(tape.linear(x, w, tape.constant(np.zeros(4))))
            loss = tape.sum(tape.mul(y, y))
            tape.backward(loss)
            return loss.values.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


class TestAdam:
    def _store(self, values):
        store = ParamStore()
        store.add("p", values)
        return store

    def test_zero_gradients_no_change(self):
        store = self._store(np.array([1.0, -2.0]))
        store.adam_step({"p": np.zeros(2)}, lr=0.1, weight_decay=0.0)
        assert store.params["p"].tolist() == [1.0, -2.0]

    def test_quadratic_convergence(self):
        # minimize (p - 3)^2 elementwise
        store = self._store(np.zeros(1))
        target = 3.0
        for _ in range(500):
            store.adam_step({"p": 2.0 * (store.params["p"] - target)}, lr=0.05)
        assert abs(float(store.params["p"][0]) - target) < 1e-3

    def test_weight_decay_shrinks_monotonically(self):
        store = self._store(np.array([5.0]))
        norms = [5.0]
        for _ in range(10):
            store.adam_step({"p": np.zeros(1)}, lr=0.1, weight_decay=0.1)
            norms.append(abs(float(store.params["p"][0])))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_missing_gradients_error(self):
        # gradients must name every parameter and no other; a mismatch moves nothing
        store = self._store(np.ones(2))
        store.add("q", np.ones(3))
        for grads in ({}, {"p": np.zeros(2)}, {"p": np.zeros(2), "q": np.zeros(3), "r": np.zeros(1)},
                      {"p": np.zeros(2), "r": np.zeros(3)}):
            with pytest.raises(AutodiffError, match="do not match the parameters"):
                store.adam_step(grads, lr=0.1)
        assert store.step_count == 0
        assert store.params["p"].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("shape", [(2,), (4, 2)], ids=["broadcasts", "too-many-rows"])
    def test_misshaped_gradient_error(self, shape):
        # a (2,) gradient would broadcast into every row of a (3, 2) parameter,
        # and a (4, 2) one fail in numpy after the step count moved
        store = self._store(np.ones(2))
        store.add("w", np.arange(6.0).reshape(3, 2))
        store.adam_step({"p": np.ones(2), "w": np.ones((3, 2))}, lr=0.1)
        before = {name: (store.params[name].copy(), store._m[name].copy(), store._v[name].copy())
                  for name in store.params}
        with pytest.raises(AutodiffError, match=r"gradient 'w' has shape"):
            store.adam_step({"p": np.ones(2), "w": np.ones(shape)}, lr=0.1)
        assert store.step_count == 1
        for name, (p, m, v) in before.items():
            assert np.array_equal(store.params[name], p)
            assert np.array_equal(store._m[name], m)
            assert np.array_equal(store._v[name], v)


class TestCheckpoint:
    def _example_store(self):
        store = ParamStore()
        store.add("layer.w", RNG.normal(size=(3, 2)))
        store.add("layer.b", RNG.normal(size=2))
        return store

    def test_round_trip_bitwise(self, tmp_path):
        store = self._example_store()
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, path)
        expected = {name: arr.shape for name, arr in store.params.items()}
        loaded = load_checkpoint(path, expected)
        for name, arr in store.params.items():
            assert np.array_equal(loaded.params[name], arr)

    def test_shape_validation(self, tmp_path):
        store = self._example_store()
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, path)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path, {"layer.w": (2, 3), "layer.b": (2,)})
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path, {"layer.w": (3, 2), "layer.b": (2,), "extra": (1,)})
        with pytest.raises(CheckpointError, match="unexpected"):
            load_checkpoint(path, {"layer.w": (3, 2)})

    def test_malformed_entries(self, tmp_path):
        store = self._example_store()
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, path)
        expected = {name: arr.shape for name, arr in store.params.items()}
        saved = path.read_text()
        payload = json.loads(saved)
        del payload["params"][1]["name"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="entry 1"):
            load_checkpoint(path, expected)
        # cut mid-float (9 bytes) and at a float boundary (3 of 6 floats)
        for cut in (12, 32):
            payload = json.loads(saved)
            payload["params"][0]["data"] = payload["params"][0]["data"][:cut]
            path.write_text(json.dumps(payload))
            with pytest.raises(CheckpointError, match="'layer.w'"):
                load_checkpoint(path, expected)
        # structurally malformed JSON: a top-level list, non-list params, a list name
        payload = json.loads(saved)
        bad_name = json.loads(saved)
        bad_name["params"][0]["name"] = ["layer.w"]
        for bad, match in (([payload], "format 'list'"), ({**payload, "params": 5}, "must be a list"),
                           (bad_name, r"unexpected parameter \['layer.w'\]")):
            path.write_text(json.dumps(bad))
            with pytest.raises(CheckpointError, match=match):
                load_checkpoint(path, expected)

    def test_repeated_entry_is_named(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._example_store(), path)
        payload = json.loads(path.read_text())
        payload["params"].append(payload["params"][0])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="duplicate parameter 'layer.w'"):
            load_checkpoint(path, {"layer.w": (3, 2), "layer.b": (2,)})

    def test_non_finite_values(self, tmp_path):
        path = tmp_path / "ckpt.json"
        for bad in (np.nan, np.inf):
            store = self._example_store()
            store.params["layer.w"][1, 0] = bad
            save_checkpoint(store, path)
            with pytest.raises(CheckpointError, match="'layer.w' has non-finite"):
                load_checkpoint(path, {"layer.w": (3, 2), "layer.b": (2,)})

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        # a lone surrogate cannot be encoded, so the write raises part way
        store = self._example_store()
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, path)
        saved = path.read_bytes()
        monkeypatch.setattr(autodiff.json, "dumps", lambda payload: "{" + "\ud800" * 9)
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(self._example_store(), path)
        monkeypatch.undo()
        assert path.read_bytes() == saved and list(tmp_path.iterdir()) == [path]
        loaded = load_checkpoint(path, {name: arr.shape for name, arr in store.params.items()})
        assert all(np.array_equal(loaded.params[name], arr) for name, arr in store.params.items())

    def test_bad_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "params": []}')
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path, {})

    def test_unreadable_bytes_name_the_file(self, tmp_path):
        # not UTF-8, not JSON, and no file at all: each a CheckpointError
        path = tmp_path / "corrupt.json"
        for content in (b"\xff\xfe\x00garbage", b"{not json"):
            path.write_bytes(content)
            with pytest.raises(CheckpointError, match="cannot read checkpoint .*corrupt.json"):
                load_checkpoint(path, {})
        with pytest.raises(CheckpointError, match="cannot read checkpoint .*absent.json"):
            load_checkpoint(tmp_path / "absent.json", {})


def _package_calls():
    """Every call node in ``src/rotavg``, with its file name."""
    for path in sorted(Path(autodiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                yield path.name, node


def test_every_public_tape_method_has_a_package_caller():
    """Every public ``Tape`` method is called as ``<step>.<method>(...)`` in
    ``src/rotavg``: a method only tests use belongs to the tests'
    ``mpnn_oracle.OracleTape``, not to the package."""
    called = {node.func.attr for _, node in _package_calls()
              if isinstance(node.func, ast.Attribute)}
    public = {name for name, attr in vars(Tape).items()
              if callable(attr) and not name.startswith("_")}
    assert public - called == set(), f"Tape methods without a package caller: {public - called}"


def test_tape_has_no_option():
    """A ``Tape`` takes only its step's ``loss`` and ``pullback``, and no module
    in ``src/rotavg`` passes ``recording=``: a step is one record, and
    inference has no tape."""
    assert list(inspect.signature(Tape).parameters) == ["loss", "pullback"]
    calls = [f"{name}:{node.lineno}" for name, node in _package_calls()
             if any(k.arg == "recording" for k in node.keywords)]
    assert not calls, f"recording= passed at {', '.join(calls)}"


def test_tape_has_no_generic_primitive():
    """``backward`` is the only public method of ``Tape``, and no module in
    ``src/rotavg`` calls an attribute named ``linear``: generic primitives
    belong to the tests' ``mpnn_oracle.OracleTape``."""
    public = {name for name in dir(Tape)
              if not name.startswith("_") and callable(getattr(Tape, name))}
    assert public == {"backward"}
    calls = [f"{name}:{node.lineno}" for name, node in _package_calls()
             if isinstance(node.func, ast.Attribute) and node.func.attr == "linear"]
    assert not calls, f"linear called at {', '.join(calls)}"


def test_autodiff_keeps_no_tensor_binding():
    """Weights reach a step as arrays: ``autodiff`` defines no ``Tensor`` or
    ``accumulate``, and ``ParamStore`` has no ``bind``."""
    assert not hasattr(autodiff, "Tensor") and not hasattr(autodiff, "accumulate")
    assert not hasattr(ParamStore, "bind")


def test_runtime_imports_are_numpy_and_the_standard_library():
    """Runtime dependencies stay numpy-only: every import in ``src/rotavg`` is
    of the standard library, ``numpy`` or the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "rotavg"}
    foreign = []
    for path in sorted(Path(autodiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]  # a relative import is the package's
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside numpy and the standard library: {foreign}"
