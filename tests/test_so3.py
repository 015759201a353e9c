from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import so3_oracle
from rotavg import so3
from so3_oracle import UnitQuaternion


def log_rows(q):
    """The log map of rows: ``so3.qlog_parts`` on their columns, stacked."""
    return so3.stack_rows(so3.qlog_parts(so3.components(q)))


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
        back = so3.qexp(log_rows(rows))
        assert np.max(np.abs(back - rows)) < 1e-9

    def test_log_small_angles(self):
        v = np.array([[1e-9, -2e-9, 3e-10]])
        assert np.max(np.abs(log_rows(so3.qexp(v)) - v)) < 1e-15


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
        angles = np.radians(so3.angle_deg(rows))
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
        angles = so3.angle_deg(so3.sample_noise_rows(sigma, True, rng, 100_000))
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
# L1 medians (Weiszfeld's node update checks them against the scalar oracle)
# ---------------------------------------------------------------------------

def row_medoids(cands: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The medoid start of ``so3.l1_medians`` from the full (n, D, D) score
    block: each set's candidate of least ``sum_j d_ij`` over its first
    ``so3.MEDOID_REFERENCES`` candidates (all of a smaller set), both i and
    j among them."""
    n, d = valid.shape
    cols = cands.transpose(0, 2, 1).copy()
    dist = cands @ cols
    np.abs(dist, out=dist)
    np.minimum(dist, 1.0, out=dist)
    dist[:, np.arange(d), np.arange(d)] = 1.0
    np.arccos(dist, out=dist)
    sample = valid & (np.arange(d) < so3.MEDOID_REFERENCES)
    sums = (dist @ sample[:, :, None].astype(np.float64))[:, :, 0]
    return cands[np.arange(n), np.argmin(np.where(sample, sums, np.inf), axis=1)]


class TestL1Medians:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.booleans())
    def test_bi_equivariant(self, seed, iters, capped):
        # l1_medians(G c H) = G l1_medians(c) H: the distances, the medoid
        # and every tangent step are invariant, up to rounding; ``capped``
        # sets have more than MEDOID_REFERENCES candidates
        rng = np.random.default_rng(seed)
        low, high = (33, 100) if capped else (1, 15)
        degrees = rng.integers(low, high, size=rng.integers(1, 5)).tolist()
        repeats = rng.choice([0.0, 0.3], size=len(degrees))
        cands, valid = so3_oracle.padded_candidates(rng, degrees, repeats)
        for i, k in enumerate(valid.sum(axis=1)):
            # two medoids tied within rounding may swap under the product
            assume(so3_oracle.l1_median(cands[i, :k], 0)[1] > 1.0)
        g, h = so3.sample_uniform_rows(np.random.default_rng(seed + 1), 2)
        moved = so3.l1_medians(so3.qcanon(so3.qmul(g, so3.qmul(cands, h))), valid, iters)
        want = so3.qmul(g, so3.qmul(so3.l1_medians(cands, valid, iters), h))
        assert np.max(so3_oracle.qangle_deg(moved, want)) <= 1e-9

    @pytest.mark.parametrize("iters", [0, 1, 4, 10])
    def test_identical_candidates_return_their_row(self, iters):
        # every step is exactly 0, so the freeze rule keeps each row bit for bit
        rng = np.random.default_rng(iters)
        rows = so3.sample_uniform_rows(rng, 5)
        valid = np.arange(7) < np.array([1, 2, 3, 7, 4])[:, None]
        cands = np.repeat(rows[:, None], 7, axis=1)
        assert np.array_equal(so3.l1_medians(cands, valid, iters), rows)

    def test_sets_within_the_reference_cap_score_every_candidate(self):
        # sets of up to MEDOID_REFERENCES candidates, some with repeats of
        # their first: the medoid is the one of the full row score, bit for
        # bit, also beside sets past the cap that score their sample alone
        rng = np.random.default_rng(64)
        for degrees in ([1, 2, 3], [5, 17, 40], [31, 32], [32, 32, 32, 32], [20, 63, 64]):
            for share in (0.0, 0.3):
                cands, valid = so3_oracle.padded_candidates(rng, degrees, [share] * len(degrees))
                assert np.array_equal(so3.l1_medians(cands, valid, 0), row_medoids(cands, valid))

    def test_a_set_past_the_cap_takes_its_samples_medoid(self, monkeypatch):
        # six candidates in one tangent plane, the cap at 4: the sixth lies in
        # the middle, so it has the least score over the whole set and also
        # against the first four alone, but the medoid is the one of the
        # first four scored among themselves
        monkeypatch.setattr(so3, "MEDOID_REFERENCES", 4)
        tangent = 0.2 * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                  [1.0, 1.2, 0.0], [0.3, 0.8, 0.0], [0.5, 0.55, 0.0]])
        centre = so3.sample_uniform_rows(np.random.default_rng(4), 1)
        cands = so3.qmul(so3.qexp(tangent), centre)
        dist = np.arccos(np.minimum(np.abs(cands @ cands.T), 1.0))
        np.fill_diagonal(dist, 0.0)
        assert np.argmin(dist.sum(axis=1)) == 5
        assert np.argmin(dist[:, :4].sum(axis=1)) == 5
        sample = int(np.argmin(dist[:4, :4].sum(axis=1)))
        assert sample == 2
        out = so3.l1_medians(cands[None], np.ones((1, 6), dtype=bool), 0)
        assert np.array_equal(out[0], cands[sample])

    def test_padded_runs_mix_sets_on_either_side_of_the_reference_cap(self, monkeypatch):
        # each set's medoid rule is its own, whatever the batch: sets at and
        # past the cap share a batch while their 4 * 6 * min(6, 4) cells fit
        monkeypatch.setattr(so3, "MEDOID_REFERENCES", 4)
        monkeypatch.setattr(so3, "MEDOID_CELLS", 96)
        counts = np.array([3, 4, 5, 6])
        runs = so3.padded_runs(np.cumsum(counts) - counts, counts)
        assert [(r.start, r.stop) for r, _, _ in runs] == [(0, 4)]

    def test_padded_runs_fit_the_medoid_budget(self, monkeypatch):
        monkeypatch.setattr(so3, "MEDOID_CELLS", 40)
        counts = np.array([1, 2, 2, 3, 3, 3, 5, 7, 7])
        starts = np.cumsum(counts) - counts + 100
        runs = so3.padded_runs(starts, counts)
        # consecutive slices that cover every set, each within the budget or alone
        assert [r.start for r, _, _ in runs] == [0] + [r.stop for r, _, _ in runs[:-1]]
        assert runs[-1][0].stop == counts.size
        for run, idx, valid in runs:
            assert idx.shape == valid.shape == (run.stop - run.start, counts[run.stop - 1])
            assert run.stop - run.start == 1 or valid.size * valid.shape[1] <= 40
            col = np.arange(idx.shape[1])
            for i, k in enumerate(counts[run]):
                assert np.array_equal(valid[i], col < k)
                assert np.array_equal(idx[i], starts[run][i] + np.where(col < k, col, 0))
        # each run takes the next set while (sets + 1) * its count**2 fits: 4 * 3**2
        # does, 5 * 3**2 does not
        assert [(r.start, r.stop) for r, _, _ in runs] == [(0, 4), (4, 6), (6, 7), (7, 8), (8, 9)]


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
            assert_same_bits(log_rows(q), so3_oracle.qlog(q))

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows(), st.floats(0.0, 3.0))
    def test_qexp(self, rows, stretch):
        # rotation vectors of every kind: 0, below SMALL_ANGLE, up to 3 turns
        for q in shapes_of(rows):
            v = so3_oracle.qlog(q) * stretch
            assert_same_bits(so3.qexp(v), so3_oracle.qexp(v))

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows(min_rows=2))
    def test_angle_deg(self, rows):
        # the angle between rows is the angle of their relative rotation
        half = len(rows) // 2
        a, b = so3_oracle.qcanon(rows[:half]), so3_oracle.qcanon(rows[half:2 * half])
        assert_same_bits(so3.angle_deg(so3.qmul(so3.qconj(a), b)), so3_oracle.qangle_deg(a, b))
        assert_same_bits(so3.angle_deg(so3.qmul(so3.qconj(a[0]), b[0])),
                         so3_oracle.qangle_deg(a[0], b[0]))

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows())
    def test_angle_deg_ignores_sign(self, rows):
        for q in shapes_of(so3_oracle.qcanon(rows)):
            assert_same_bits(so3.angle_deg(-q), so3.angle_deg(q))

    def test_angle_deg_identity_and_half_turn(self):
        rows = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -0.6, 0.8]])
        assert so3.angle_deg(rows).tolist() == [0.0, 0.0, 180.0, 180.0]

    def test_identity_rows_take_each_log_path(self):
        # exact identities (|v| = 0) alone, with a half turn (the qcanon
        # path) and with an ordinary row (the sign path without a small row)
        identity = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
        half_turn = np.array([[0.0, -1.0, 0.0, 0.0]])
        ordinary = np.array([[-0.5, 0.5, -0.5, 0.5]])
        for q in (identity, np.concatenate([identity, half_turn]), ordinary,
                  np.concatenate([identity, ordinary]), np.concatenate([ordinary, half_turn])):
            assert_same_bits(log_rows(q), so3_oracle.qlog(q))
        assert np.signbit(log_rows(identity[1])).all()  # -0.0, as the flipped row gives

    def test_zero_row_rejected_like_the_frozen_log(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        for log in (log_rows, so3_oracle.qlog):
            with pytest.raises(ValueError, match="near-zero"):
                log(q)


def with_signed_zeros(rows, rng):
    """``rows`` with about half of their zero components negated to -0.0."""
    rows = rows.copy()
    flip = (rows == 0.0) & (rng.random(rows.shape) < 0.5)
    rows[flip] = -0.0
    return rows


def columns(rows):
    """The contiguous component-major (4, ...) copy of rows."""
    return np.ascontiguousarray(np.moveaxis(rows, -1, 0))


# every product of two signed basis rows, with each zero component +0.0 or -0.0
SIGNED_BASIS = np.array([[s * (k == j) if k == j else z for k in range(4)]
                         for j in range(4) for s in (1.0, -1.0) for z in (0.0, -0.0)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestComponentBodies:
    """The row API stacks the component bodies' results: ``qmul`` and the
    stacked ``qlog_parts`` give, bit for bit, the frozen row kernels and the
    transpose of the bodies run on contiguous component-major arrays."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows(min_rows=2), st.integers(0, 2**32 - 1))
    def test_qmul(self, rows, seed):
        rows = with_signed_zeros(rows, np.random.default_rng(seed))
        half = len(rows) // 2
        a, b = rows[:half], rows[half:2 * half]
        for x, y in ((a, b), (a[0], b[0]), (a[:, None], b)):
            assert_same_bits(so3.qmul(x, y), so3_oracle.qmul(x, y))
        out = np.stack(so3.qmul_parts(columns(a), columns(b)))
        assert_same_bits(out, columns(so3.qmul(a, b)))

    def test_qmul_signed_zeros(self):
        a, b = SIGNED_BASIS[:, None], SIGNED_BASIS
        assert_same_bits(so3.qmul(a, b), so3_oracle.qmul(a, b))
        pairs = np.broadcast_arrays(a, b)
        out = np.stack(so3.qmul_parts(*(columns(p.reshape(-1, 4)) for p in pairs)))
        assert_same_bits(out, columns(so3_oracle.qmul(a, b).reshape(-1, 4)))

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows(), st.integers(0, 2**32 - 1))
    def test_qlog(self, rows, seed):
        # half turns (|w| <= ZERO_SIGN_TOL) and off-unit rows take the qcanon
        # branch; rows below SMALL_ANGLE the series
        rows = with_signed_zeros(rows, np.random.default_rng(seed))
        for q in shapes_of(rows):
            assert_same_bits(log_rows(q), so3_oracle.qlog(q))
        assert_same_bits(np.stack(so3.qlog_parts(columns(rows))), columns(log_rows(rows)))

    @pytest.mark.parametrize("kind", ["half_turn", "non_unit", "small", "signed_zero"])
    def test_qlog_branches(self, kind):
        rng = np.random.default_rng(5)
        unit = so3.sample_uniform_rows(rng, 6)
        extra = {
            "half_turn": np.array([[0.0, 0.0, -1.0, 0.0], [-1e-13, 0.6, 0.0, -0.8]]),
            "non_unit": unit[:2] * 3.0,
            "small": np.array([[1.0, 1e-9, -2e-9, 0.0], [-1.0, 0.0, 0.0, 3e-8]]),
            "signed_zero": np.array([[1.0, -0.0, 0.0, -0.0], [-1.0, 0.0, -0.0, 0.0]]),
        }[kind]
        rows = np.concatenate([unit, extra])
        assert_same_bits(np.stack(so3.qlog_parts(columns(rows))), columns(log_rows(rows)))
        assert_same_bits(log_rows(rows), so3_oracle.qlog(rows))


def package_calls(matches, skip=()) -> list[str]:
    """``file:line`` of each call in ``src/rotavg``, outside the modules in
    ``skip``, whose function node ``matches``."""
    calls = []
    for path in sorted(Path(so3.__file__).parent.glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and matches(node.func):
                calls.append(f"{path.name}:{node.lineno}")
    return calls


def test_package_has_one_norm_kernel():
    """No ``np.linalg.norm`` call in ``src/rotavg``: row norms go through
    ``so3.rownorm``, so that a norm has one implementation."""
    calls = package_calls(lambda f: isinstance(f, ast.Attribute) and f.attr == "norm"
                          and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg")
    assert not calls, f"np.linalg.norm called at {', '.join(calls)}; use so3.rownorm"


def test_package_has_one_angle_kernel():
    """No module of ``src/rotavg`` but ``so3`` calls ``np.degrees``: every
    angle in degrees goes through ``so3.angle_deg``."""
    calls = package_calls(lambda f: isinstance(f, ast.Attribute) and f.attr == "degrees",
                          skip=("so3.py",))
    assert not calls, f"np.degrees called at {', '.join(calls)}; use so3.angle_deg"
