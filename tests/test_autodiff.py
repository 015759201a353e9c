from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd import fd_gradients
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
        err = fd_gradients(lambda t, p: t.sum(t.linear(p["x"], p["w"], p["b"])), params)
        assert err < 1e-4

    def test_relu(self):
        # keep inputs away from the kink
        x = RNG.normal(size=(5, 4))
        x[np.abs(x) < 0.05] += 0.1
        err = fd_gradients(lambda t, p: t.sum(t.mul(t.relu(p["x"]), p["x"])), {"x": x})
        assert err < 1e-4

    def test_relu_subgradient_sides(self):
        tape = Tape()
        x = tape.leaf(np.array([[2.0, -3.0]]), requires_grad=True)
        y = tape.sum(tape.relu(x))
        tape.backward(y)
        assert x.grad.tolist() == [[1.0, 0.0]]

    def test_concat_axis1(self):
        params = {"a": RNG.normal(size=(4, 2)), "b": RNG.normal(size=(4, 3))}
        err = fd_gradients(
            lambda t, p: t.sum(t.mul(t.concat([p["a"], p["b"]]), t.concat([p["a"], p["b"]]))),
            params,
        )
        assert err < 1e-4

    def test_gather(self):
        idx = np.array([0, 2, 2, 1])
        params = {"x": RNG.normal(size=(3, 4))}
        err = fd_gradients(
            lambda t, p: t.sum(t.mul(t.gather(p["x"], idx), t.gather(p["x"], idx))), params
        )
        assert err < 1e-4

    def test_scatter_mean(self):
        idx = np.array([0, 0, 1, 3, 3, 3])
        params = {"src": RNG.normal(size=(6, 2))}
        err = fd_gradients(
            lambda t, p: t.sum(t.mul(t.scatter_mean(p["src"], idx, 5), t.scatter_mean(p["src"], idx, 5))),
            params,
        )
        assert err < 1e-4

    def test_quat_normalize(self):
        params = {"x": quat_rows(5, scale=1.7, seed=3)}
        target = Tape().constant(quat_rows(5, seed=4))
        err = fd_gradients(
            lambda t, p: t.sum(t.quat_dist_loss(t.quat_normalize(p["x"]), t.constant(target.values))),
            params,
        )
        assert err < 1e-4

    def test_quat_compose_and_conjugate(self):
        params = {"a": quat_rows(4, seed=5), "b": quat_rows(4, seed=6)}
        tgt = quat_rows(4, seed=7)
        err = fd_gradients(
            lambda t, p: t.sum(
                t.quat_dist_loss(t.quat_compose(p["a"], t.quat_conjugate(p["b"])), t.constant(tgt))
            ),
            params,
        )
        assert err < 1e-4

    def test_bce_with_logits(self):
        targets = (RNG.uniform(size=7) > 0.4).astype(float)
        params = {"z": RNG.normal(size=7) * 2.0}
        err = fd_gradients(
            lambda t, p: t.mean(t.bce_with_logits(p["z"], t.constant(targets))), params
        )
        assert err < 1e-4

    def test_quat_dist_loss_both_sides(self):
        params = {"a": quat_rows(6, seed=8), "b": quat_rows(6, seed=9)}
        err = fd_gradients(
            lambda t, p: t.sum(t.quat_dist_loss(p["a"], p["b"])), params
        )
        assert err < 1e-4

    def test_elementwise_and_reductions(self):
        params = {"a": RNG.normal(size=(3, 3)), "b": RNG.normal(size=(3, 3))}
        err = fd_gradients(
            lambda t, p: t.add(
                t.mean(t.mul(p["a"], p["b"])), t.scale(t.sum(p["a"]), 0.3)
            ),
            params,
        )
        assert err < 1e-4

    def test_reshape(self):
        params = {"x": RNG.normal(size=(4, 1))}
        err = fd_gradients(
            lambda t, p: t.sum(
                t.bce_with_logits(t.reshape(p["x"], (4,)), t.constant(np.ones(4)))
            ),
            params,
        )
        assert err < 1e-4


class TestForwardSemantics:
    def test_scatter_mean_one_edge_per_node_is_copy(self):
        tape = Tape()
        src = tape.leaf(RNG.normal(size=(4, 3)))
        out = tape.scatter_mean(src, np.array([0, 1, 2, 3]), 4)
        assert np.array_equal(out.values, src.values)

    def test_scatter_mean_empty_target_rows_are_zero(self):
        tape = Tape()
        src = tape.leaf(np.ones((2, 3)))
        out = tape.scatter_mean(src, np.array([0, 0]), 3)
        assert np.array_equal(out.values[1:], np.zeros((2, 3)))
        assert not np.any(np.isnan(out.values))

    def test_scatter_mean_matches_add_at(self):
        rng = np.random.default_rng(5)
        src = rng.normal(size=(50, 8))
        idx = rng.integers(0, 12, size=50)
        tape = Tape()
        out = tape.scatter_mean(tape.leaf(src), idx, 12).values
        ref = np.zeros((12, 8))
        np.add.at(ref, idx, src)
        counts = np.maximum(np.bincount(idx, minlength=12), 1)
        assert np.allclose(out, ref / counts[:, None], atol=1e-12)

    def test_quat_compose_matches_so3(self):
        a = quat_rows(5, seed=10)
        b = quat_rows(5, seed=11)
        tape = Tape()
        out = tape.quat_compose(tape.leaf(a), tape.leaf(b))
        assert np.allclose(out.values, so3.qmul(a, b))

    def test_quat_dist_tie_takes_flip_branch(self):
        # orthogonal quaternions: both branches give the same norm; the
        # deterministic choice is the sign-flipped one
        a = np.array([[1.0, 0.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0, 0.0]])
        tape = Tape()
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


def assert_segment_close(got: np.ndarray, want: np.ndarray, bound: np.ndarray) -> None:
    """Within 1e-12 of the summed magnitudes ``bound``; empty buckets exactly 0."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * bound)


class TestSegmentSumOracle:
    @settings(max_examples=200, deadline=None)
    @given(segment_inputs())
    def test_segment_sum(self, case):
        rows, index, n_rows = case
        got = autodiff._segment_sum(rows, index, n_rows)
        bound = reduceat_segment_sum(np.abs(rows), index, n_rows)
        assert_segment_close(got, reduceat_segment_sum(rows, index, n_rows), bound)

    @settings(max_examples=200, deadline=None)
    @given(segment_inputs())
    def test_gather_pullback(self, case):
        g, index, n_rows = case
        tape = Tape()
        x = tape.leaf(np.ones((n_rows, g.shape[1])), requires_grad=True)
        tape.backward(tape.sum(tape.mul(tape.gather(x, index), tape.constant(g))))
        bound = reduceat_segment_sum(np.abs(g), index, n_rows)
        assert_segment_close(x.grad, reduceat_segment_sum(g, index, n_rows), bound)

    @settings(max_examples=200, deadline=None)
    @given(segment_inputs())
    def test_scatter_mean(self, case):
        src, index, n_rows = case
        out = Tape().scatter_mean(Tape().leaf(src), index, n_rows).values
        denom = np.maximum(np.bincount(index, minlength=n_rows), 1)[:, None]
        bound = reduceat_segment_sum(np.abs(src), index, n_rows) / denom
        assert_segment_close(out, reduceat_segment_sum(src, index, n_rows) / denom, bound)


class TestErrors:
    def test_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(AutodiffError):
            tape.linear(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((4, 2))), tape.leaf(np.ones(2)))
        with pytest.raises(AutodiffError):
            tape.add(tape.leaf(np.ones(2)), tape.leaf(np.ones(3)))

    def test_index_out_of_range(self):
        tape = Tape()
        with pytest.raises(AutodiffError):
            tape.gather(tape.leaf(np.ones((2, 2))), np.array([0, 2]))
        with pytest.raises(AutodiffError):
            tape.scatter_mean(tape.leaf(np.ones((2, 2))), np.array([0, 5]), 3)

    def test_non_scalar_backward(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)), requires_grad=True)
        y = tape.relu(x)
        with pytest.raises(AutodiffError, match="scalar"):
            tape.backward(y)

    def test_consumed_tape(self):
        tape = Tape()
        x = tape.leaf(np.ones(3), requires_grad=True)
        loss = tape.sum(x)
        tape.backward(loss)
        with pytest.raises(AutodiffError, match="consumed"):
            tape.backward(loss)

    def test_quat_normalize_degenerate(self):
        tape = Tape()
        with pytest.raises(AutodiffError, match="norm"):
            tape.quat_normalize(tape.leaf(np.zeros((1, 4))))


class TestBackwardClosedForms:
    def test_sum_of_weights_gives_ones(self):
        tape = Tape()
        w = tape.leaf(RNG.normal(size=(3, 4)), requires_grad=True)
        tape.backward(tape.sum(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_norm_squared_gradient(self):
        # loss = |W x|^2 has gradient 2 (W x) x^T in W
        x = RNG.normal(size=(1, 4))
        w0 = RNG.normal(size=(4, 3))
        tape = Tape()
        w = tape.leaf(w0, requires_grad=True)
        y = tape.linear(tape.constant(x), w, tape.constant(np.zeros(3)))
        loss = tape.sum(tape.mul(y, y))
        tape.backward(loss)
        expected = 2.0 * x.T @ (x @ w0)
        assert np.allclose(w.grad, expected, atol=1e-12)

    def test_fanout_accumulates(self):
        tape = Tape()
        x = tape.leaf(np.array([2.0]), requires_grad=True)
        loss = tape.sum(tape.add(x, x))
        tape.backward(loss)
        assert x.grad.tolist() == [2.0]

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(33)
            tape = Tape()
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
        tape = Tape()
        bound = store.bind(tape)
        loss = tape.sum(tape.scale(bound["p"], 0.0))
        tape.backward(loss)
        store.adam_step(lr=0.1, weight_decay=0.0)
        assert store.params["p"].tolist() == [1.0, -2.0]

    def test_quadratic_convergence(self):
        # minimize (p - 3)^2 elementwise
        store = self._store(np.zeros(1))
        target = 3.0
        for _ in range(500):
            tape = Tape()
            bound = store.bind(tape)
            diff = tape.add(bound["p"], tape.constant(np.array([-target])))
            loss = tape.sum(tape.mul(diff, diff))
            tape.backward(loss)
            store.adam_step(lr=0.05)
        assert abs(float(store.params["p"][0]) - target) < 1e-3

    def test_weight_decay_shrinks_monotonically(self):
        store = self._store(np.array([5.0]))
        norms = [5.0]
        for _ in range(10):
            tape = Tape()
            bound = store.bind(tape)
            loss = tape.sum(tape.scale(bound["p"], 0.0))
            tape.backward(loss)
            store.adam_step(lr=0.1, weight_decay=0.1)
            norms.append(abs(float(store.params["p"][0])))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_missing_gradients_error(self):
        store = self._store(np.ones(2))
        tape = Tape()
        store.bind(tape)
        with pytest.raises(AutodiffError, match="gradient"):
            store.adam_step(lr=0.1)
        store2 = self._store(np.ones(2))
        with pytest.raises(AutodiffError, match="bind"):
            store2.adam_step(lr=0.1)


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

    def test_bad_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "params": []}')
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path, {})
