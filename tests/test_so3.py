from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import so3_oracle
from rotavg import so3
from so3_oracle import UnitQuaternion


def random_quat(rng):
    return so3_oracle.sample_uniform(rng)


class TestGroupLaws:
    def test_compose_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = random_quat(rng)
            out = so3_oracle.compose(UnitQuaternion.identity(), q)
            assert so3_oracle.geodesic_deg(out, q) < 1e-9

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = random_quat(rng)
            out = so3_oracle.compose(q, so3_oracle.inverse(q))
            assert so3_oracle.geodesic_deg(out, UnitQuaternion.identity()) < 1e-9

    def test_yaw_composition_matches_matrix_product(self):
        a, b = so3_oracle.yaw_deg(30.0), so3_oracle.yaw_deg(60.0)
        composed = so3_oracle.compose(a, b)
        assert so3_oracle.geodesic_deg(composed, so3_oracle.yaw_deg(90.0)) < 1e-9
        # independent oracle: multiply the rotation matrices instead
        m = so3_oracle.to_matrix(a) @ so3_oracle.to_matrix(b)
        assert so3_oracle.geodesic_deg(so3_oracle.from_matrix(m), composed) < 1e-9

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = (random_quat(rng) for _ in range(3))
            left = so3_oracle.compose(so3_oracle.compose(a, b), c)
            right = so3_oracle.compose(a, so3_oracle.compose(b, c))
            assert so3_oracle.geodesic_deg(left, right) < 1e-9

    def test_inverse_trivials(self):
        ident = UnitQuaternion.identity()
        assert so3_oracle.geodesic_deg(so3_oracle.inverse(ident), ident) == 0.0
        inv = so3_oracle.inverse(so3_oracle.yaw_deg(30.0))
        assert so3_oracle.geodesic_deg(inv, so3_oracle.yaw_deg(-30.0)) < 1e-9

    def test_gauge_identity(self):
        # relative(q_u r, q_v r) == relative(q_u, q_v) for any r
        rng = np.random.default_rng(3)
        for _ in range(50):
            qu, qv, r = (random_quat(rng) for _ in range(3))
            lhs = so3_oracle.relative(so3_oracle.compose(qu, r), so3_oracle.compose(qv, r))
            rhs = so3_oracle.relative(qu, qv)
            assert so3_oracle.geodesic_deg(lhs, rhs) < 1e-9


class TestMetrics:
    def test_geodesic_trivials(self):
        rng = np.random.default_rng(4)
        q = random_quat(rng)
        assert so3_oracle.geodesic_deg(q, q) < 1e-12
        yaw = so3_oracle.yaw_deg(45.0)
        assert abs(so3_oracle.geodesic_deg(UnitQuaternion.identity(), yaw) - 45.0) < 1e-9

    def test_geodesic_matches_trace_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_quat(rng), random_quat(rng)
            rel = so3_oracle.to_matrix(a).T @ so3_oracle.to_matrix(b)
            theta = math.degrees(math.acos(np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)))
            assert abs(so3_oracle.geodesic_deg(a, b) - theta) < 1e-6

    def test_geodesic_bi_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b, r = (random_quat(rng) for _ in range(3))
            d = so3_oracle.geodesic_deg(a, b)
            left = so3_oracle.geodesic_deg(so3_oracle.compose(r, a), so3_oracle.compose(r, b))
            right = so3_oracle.geodesic_deg(so3_oracle.compose(a, r), so3_oracle.compose(b, r))
            assert abs(left - d) < 1e-9
            assert abs(right - d) < 1e-9
            assert abs(so3_oracle.geodesic_deg(b, a) - d) < 1e-12

    def test_quat_dist_sign_invariance(self):
        rng = np.random.default_rng(7)
        a, b = random_quat(rng), random_quat(rng)
        flipped = UnitQuaternion.from_array(-b.as_array())
        assert abs(so3_oracle.quat_dist(a, b) - so3_oracle.quat_dist(a, flipped)) < 1e-12
        assert so3_oracle.quat_dist(a, a) == 0.0

    def test_metric_chain(self):
        # d_C = 2*sqrt(2)*sin(theta/2) and d_Q = 2*sin(theta/4)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a, b = random_quat(rng), random_quat(rng)
            theta = math.radians(so3_oracle.geodesic_deg(a, b))
            assert abs(so3_oracle.quat_dist(a, b) - 2.0 * math.sin(theta / 4.0)) < 1e-9
            chordal = so3_oracle.chordal_dist(a, b)
            assert abs(chordal - 2.0 * math.sqrt(2.0) * math.sin(theta / 2.0)) < 1e-9


class TestMatrixBridge:
    def test_identity(self):
        assert np.allclose(so3_oracle.to_matrix(UnitQuaternion.identity()), np.eye(3))
        q = so3_oracle.from_matrix(np.eye(3))
        assert so3_oracle.geodesic_deg(q, UnitQuaternion.identity()) == 0.0

    def test_yaw90_matrix(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(so3_oracle.to_matrix(so3_oracle.yaw_deg(90.0)) - expected)) < 1e-12

    def test_round_trips(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            q = random_quat(rng)
            m = so3_oracle.to_matrix(q)
            assert np.max(np.abs(m.T @ m - np.eye(3))) < so3_oracle.MATRIX_TOL
            assert abs(np.linalg.det(m) - 1.0) < so3_oracle.MATRIX_TOL
            back = so3_oracle.from_matrix(m)
            assert np.max(np.abs(back.as_array() - q.as_array())) < 1e-9

    def test_from_matrix_rejects_invalid(self):
        with pytest.raises(ValueError):
            so3_oracle.from_matrix(np.eye(3) * 1.001)
        bad = np.eye(3)
        bad[0, 0] = -1.0  # det -1 reflection
        with pytest.raises(ValueError):
            so3_oracle.from_matrix(bad)
        with pytest.raises(ValueError):
            so3_oracle.from_matrix(np.eye(4))


class TestCanonicalization:
    def test_sign_convention(self):
        q = UnitQuaternion(-0.5, 0.5, 0.5, 0.5)
        assert q.w > 0
        q = UnitQuaternion(0.0, -1.0, 0.0, 0.0)
        assert q.x > 0
        q = UnitQuaternion(0.0, 0.0, 0.0, -1.0)
        assert q.z > 0

    def test_idempotent_bit_for_bit(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(size=(200, 4)) * 3.0
        once = so3.qcanon(raw)
        twice = so3.qcanon(once)
        assert np.array_equal(once, twice)

    def test_unit_invariant(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(500, 4))
        norms = np.linalg.norm(so3.qcanon(raw), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    @staticmethod
    def assert_matches_oracle(q):
        out = so3.qcanon(q)
        ref = so3_oracle.qcanon(q)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))  # signed zeros too
        assert not np.shares_memory(out, q)

    @staticmethod
    def half_turn_rows():
        """w = 0 or +-1e-13 (below ZERO_SIGN_TOL): the sign goes to x, then y,
        then z, skipping components that are zero or below the tolerance."""
        rows = []
        for w in (0.0, 1e-13, -1e-13):
            for tiny in (0.0, 1e-13, -1e-13):
                for s in (1.0, -1.0):
                    rows += [(w, s * 0.6, 0.8, 0.0), (w, tiny, s * 0.6, -0.8),
                             (w, tiny, -tiny, s * 1.0), (w, s * 1.0, 0.0, 0.0)]
        return np.array(rows)

    @staticmethod
    def near_unit_rows(rng):
        """Rows just inside and just outside NORM_SKIP_TOL of unit norm."""
        unit = so3_oracle.qcanon(rng.normal(size=(8, 4)))
        unit[::2] *= -1.0
        scale = np.array([1 + 5e-13, 1 - 5e-13, 1 + 4e-12, 1 - 4e-12, 1.0, 1 + 2e-12, 1 - 2e-12, 1.0])
        rows = unit * scale[:, None]
        inside = np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= so3.NORM_SKIP_TOL
        assert inside.tolist() == [True, True, False, False, True, False, False, True]
        return rows

    def test_half_turn_sign_cascade_matches_oracle(self):
        rows = self.half_turn_rows()
        self.assert_matches_oracle(rows)  # unit rows: no division, full cascade
        self.assert_matches_oracle(rows * 1.5)  # and every row rescaled
        out = so3.qcanon(rows)
        first = np.array([next(c for c in row[1:] if abs(c) > so3.ZERO_SIGN_TOL) for row in out])
        assert np.all(first > 0.0)

    def test_norm_skip_boundary_matches_oracle(self):
        rng = np.random.default_rng(15)
        rows = self.near_unit_rows(rng)
        self.assert_matches_oracle(rows)
        self.assert_matches_oracle(rows[[0, 1, 4, 7]])  # all inside: no division
        self.assert_matches_oracle(rows[[2, 3, 5, 6]])  # all outside

    def test_mixed_rows_match_oracle(self):
        rng = np.random.default_rng(16)
        ordinary = rng.normal(size=(40, 4))
        rows = np.concatenate([ordinary, self.half_turn_rows(), self.near_unit_rows(rng),
                               so3_oracle.qcanon(ordinary), -so3_oracle.qcanon(ordinary)])
        rows = rows[rng.permutation(len(rows))]
        self.assert_matches_oracle(rows)
        self.assert_matches_oracle(rows.reshape(-1, 2, 4))
        self.assert_matches_oracle(so3_oracle.qcanon(ordinary))  # both fast paths
        for row in rows[:12]:
            self.assert_matches_oracle(row)  # a single (4,) row

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            UnitQuaternion(math.nan, 0.0, 0.0, 1.0)


class TestAxisAngle:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            q = random_quat(rng)
            aa = so3_oracle.axis_angle(q)
            assert 0.0 <= aa.angle <= math.pi + 1e-12
            back = so3_oracle.from_axis_angle(aa.axis, aa.angle)
            assert so3_oracle.geodesic_deg(back, q) < 1e-9

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(13)
        rows = so3.sample_uniform_rows(rng, 500)
        back = so3.qexp(so3.qlog(rows))
        assert np.max(np.abs(back - rows)) < 1e-9

    def test_log_small_angles(self):
        v = np.array([[1e-9, -2e-9, 3e-10]])
        assert np.max(np.abs(so3.qlog(so3.qexp(v)) - v)) < 1e-15


class TestSampling:
    def test_uniform_deterministic(self):
        a = so3_oracle.sample_uniform(np.random.default_rng(42))
        b = so3_oracle.sample_uniform(np.random.default_rng(42))
        assert a.as_array().tolist() == b.as_array().tolist()

    def test_uniform_outer_product_moment(self):
        # Haar-uniform quaternions satisfy E[q q^T] = I/4
        rng = np.random.default_rng(14)
        rows = so3.sample_uniform_rows(rng, 100_000)
        second = rows.T @ rows / len(rows)
        assert np.max(np.abs(second - np.eye(4) / 4.0)) < 0.02

    def test_uniform_angle_density(self):
        # angle-to-identity under Haar follows (1 - cos t)/pi on [0, pi]
        rng = np.random.default_rng(15)
        rows = so3.sample_uniform_rows(rng, 100_000)
        ident = np.zeros((len(rows), 4))
        ident[:, 0] = 1.0
        angles = np.radians(so3.qangle_deg(ident, rows))
        edges = np.linspace(0.0, math.pi, 19)
        observed, _ = np.histogram(angles, bins=edges)
        cdf = (edges - np.sin(edges)) / math.pi
        expected = np.diff(cdf) * len(rows)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        # 17 dof; 99.9th percentile is ~40.8
        assert chi2 < 40.8

    def test_noise_zero_sigma(self):
        rows = so3.sample_noise_rows(0.0, True, np.random.default_rng(0), 3)
        assert np.array_equal(rows, np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))

    def test_noise_vertical_axis_in_xz_plane(self):
        rows = so3.sample_noise_rows(20.0, True, np.random.default_rng(16), 200)
        for q in rows:
            aa = so3_oracle.axis_angle(UnitQuaternion.from_array(q))
            assert abs(aa.axis[1]) < 1e-12

    def test_noise_angle_std(self):
        # signed noise angle is N(0, sigma); RMS of magnitudes estimates sigma
        rng = np.random.default_rng(17)
        sigma = 12.0
        ident = np.array([1.0, 0.0, 0.0, 0.0])
        angles = so3.qangle_deg(ident, so3.sample_noise_rows(sigma, True, rng, 100_000))
        rms = float(np.sqrt(np.mean(angles**2)))
        assert abs(rms - sigma) / sigma < 0.03

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, 0.5, 12.0, 400.0]))
    def test_noise_row_matches_scalar_oracle(self, seed, planar, sigma):
        # one row draws what one scalar sample draws, in the same order; the
        # oracle renormalizes the axis once more, so values agree to rounding
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        row = so3.sample_noise_rows(sigma, planar, rng, 1)
        expected = so3_oracle.sample_noise(sigma, planar, rng_oracle).as_array()
        assert row.shape == (1, 4) and np.max(np.abs(row[0] - expected)) <= 1e-15
        assert rng.integers(2**62) == rng_oracle.integers(2**62)

    def test_noise_rejects_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            so3.sample_noise_rows(-1.0, True, rng, 1)
        with pytest.raises(ValueError):
            so3_oracle.sample_noise(-1.0, True, rng)


class TestOrientations:
    def test_items_and_buffer(self):
        rows = so3.sample_uniform_rows(np.random.default_rng(30), 5)
        view = so3.Orientations(rows)
        assert len(view) == 5
        for i, q in enumerate(view):
            # the row's own floats, bit for bit, by name and by position
            assert isinstance(q, so3.Quat) and (q.w, q.x, q.y, q.z) == tuple(rows[i].tolist())
            assert all(type(c) is float for c in q)
        assert np.array_equal(np.array(view[-1]), rows[4])
        # items are neither re-validated nor re-canonicalised
        assert so3.Orientations(-rows)[0] == so3.Quat(*(-rows[0]).tolist())
        with pytest.raises(IndexError):
            view[5]
        # np.asarray hands out the stored buffer itself, read-only
        arr = np.asarray(view)
        assert arr is np.asarray(view) and np.shares_memory(arr, rows)
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0
        assert rows.flags.writeable  # the caller's array is not frozen
        # a requested copy is a writable copy
        copied = np.array(view)
        assert not np.shares_memory(copied, rows) and copied.flags.writeable
        assert np.array_equal(copied, rows)


# ---------------------------------------------------------------------------
# Row kernels against their frozen copies, bit for bit
# ---------------------------------------------------------------------------

def assert_same_bits(out, ref):
    out, ref = np.asarray(out), np.asarray(ref)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()  # signed zeros too


@st.composite
def norm_inputs(draw):
    """Arrays of shape (4,), (k, 3), (k, 4) or (n, d, 4) whose rows have
    magnitudes from 1e-150 to 1e150 (components within a factor 100 of the
    row's), some rows all zero."""
    shape = draw(st.sampled_from(["4", "k3", "k4", "nd4"]))
    k, n, d = draw(st.integers(0, 40)), draw(st.integers(0, 6)), draw(st.integers(1, 6))
    shape = {"4": (4,), "k3": (k, 3), "k4": (k, 4), "nd4": (n, d, 4)}[shape]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row_exp = rng.uniform(-150.0, 150.0, size=shape[:-1] + (1,))
    x = rng.normal(size=shape) * 10.0 ** (row_exp + rng.uniform(-1.0, 1.0, size=shape))
    x[rng.random(shape[:-1]) < draw(st.floats(0.0, 0.5))] = 0.0
    return x


ROW_KINDS = ("unit", "small", "identity", "half_turn", "non_unit", "near_unit")


@st.composite
def kernel_rows(draw, min_rows=1):
    """(k, 4) rows mixing every case the log, the exp and canonicalization
    branch on: random unit rows, rows below ``SMALL_ANGLE``, exact identity
    rows (vector part 0), half turns (``|w| <= ZERO_SIGN_TOL``, sign decided
    by a later component), rows far from and just around unit norm; about
    half of them negated."""
    k = draw(st.integers(min_rows, 24))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.empty((k, 4))
    for i, kind in enumerate(kinds):
        axis = rng.normal(size=3)
        axis[rng.random(3) < 0.3] = 0.0  # zero components move the sign cascade along
        axis = axis / np.linalg.norm(axis) if axis.any() else np.array([0.0, 0.0, 1.0])
        if kind == "small":
            half = 0.5 * 10.0 ** rng.uniform(-12.0, -6.1)
            rows[i] = (math.cos(half), *(axis * math.sin(half)))
        elif kind == "identity":
            rows[i] = (1.0, 0.0, 0.0, 0.0)
        elif kind == "half_turn":
            w = rng.choice([0.0, 1e-13, -1e-13, so3.ZERO_SIGN_TOL, -so3.ZERO_SIGN_TOL])
            rows[i] = (w, *axis)
        else:
            rows[i] = so3_oracle.qcanon(rng.normal(size=4))
            if kind == "non_unit":
                rows[i] *= 10.0 ** rng.uniform(-3.0, 3.0)
            elif kind == "near_unit":
                rows[i] *= 1.0 + rng.uniform(-4.0, 4.0) * so3.NORM_SKIP_TOL
    rows[rng.random(k) < 0.5] *= -1.0
    return rows


def shapes_of(rows):
    """The rows as given, as (k/2, 2, 4) when k is even, and the first row alone."""
    yield rows
    if len(rows) % 2 == 0:
        yield rows.reshape(-1, 2, 4)
    yield rows[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFrozenKernels:
    @settings(max_examples=300, deadline=None)
    @given(norm_inputs(), st.booleans())
    def test_rownorm_equals_linalg_norm(self, x, keepdims):
        assert_same_bits(so3.rownorm(x, keepdims=keepdims),
                         np.linalg.norm(x, axis=-1, keepdims=keepdims))

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows())
    def test_qcanon(self, rows):
        for q in shapes_of(rows):
            assert_same_bits(so3.qcanon(q), so3_oracle.qcanon(q))

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows())
    def test_qlog(self, rows):
        for q in shapes_of(rows):
            assert_same_bits(so3.qlog(q), so3_oracle.qlog(q))

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows(), st.floats(0.0, 3.0))
    def test_qexp(self, rows, stretch):
        # rotation vectors of every kind: 0, below SMALL_ANGLE, up to 3 turns
        for q in shapes_of(rows):
            v = so3_oracle.qlog(q) * stretch
            assert_same_bits(so3.qexp(v), so3_oracle.qexp(v))

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows(min_rows=2))
    def test_qangle_deg(self, rows):
        half = len(rows) // 2
        a, b = so3_oracle.qcanon(rows[:half]), so3_oracle.qcanon(rows[half:2 * half])
        assert_same_bits(so3.qangle_deg(a, b), so3_oracle.qangle_deg(a, b))
        assert_same_bits(so3.qangle_deg(a[0], b[0]), so3_oracle.qangle_deg(a[0], b[0]))

    def test_identity_rows_take_each_log_path(self):
        # exact identities (|v| = 0) alone, with a half turn (the qcanon
        # path) and with an ordinary row (the sign path without a small row)
        identity = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
        half_turn = np.array([[0.0, -1.0, 0.0, 0.0]])
        ordinary = np.array([[-0.5, 0.5, -0.5, 0.5]])
        for q in (identity, np.concatenate([identity, half_turn]), ordinary,
                  np.concatenate([identity, ordinary]), np.concatenate([ordinary, half_turn])):
            assert_same_bits(so3.qlog(q), so3_oracle.qlog(q))
        assert np.signbit(so3.qlog(identity[1])).all()  # -0.0, as the flipped row gives

    def test_zero_row_rejected_like_the_frozen_log(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        for log in (so3.qlog, so3_oracle.qlog):
            with pytest.raises(ValueError, match="near-zero"):
                log(q)


def test_package_has_one_norm_kernel():
    """No ``np.linalg.norm`` call in ``src/rotavg``: row norms go through
    ``so3.rownorm``, so that a norm has one implementation."""
    calls = []
    for path in sorted(Path(so3.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "norm"
                    and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"np.linalg.norm called at {', '.join(calls)}; use so3.rownorm"
