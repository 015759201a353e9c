from __future__ import annotations

import numpy as np
import pytest

import so3_oracle
from rotavg import baselines, so3, synthgen, viewgraph
from rotavg.baselines import CG_TOL, IRLS_STEP_TOL, SolverError
from rotavg.viewgraph import Edge, ViewGraph, ViewGraphError


def make_graph(seed=0, n=30, edge_fraction=0.3, sigma=0.0, outliers=0.0):
    cfg = synthgen.SynthConfig(
        n_cameras=(n, n), edge_fraction=(edge_fraction, edge_fraction),
        sigma_deg=(sigma, sigma), outlier_fraction=(outliers, outliers), seed=seed,
    )
    return synthgen.generate_graph(cfg, np.random.default_rng(seed))


def bootstrap(g):
    tree = viewgraph.shortest_path_tree(g, viewgraph.select_root(g))
    return viewgraph.bootstrap_orientations(g, tree).orientations


def relative_rows(g, orientations):
    """Per-edge ``q_v q_u^-1``: the gauge-free part of a solution."""
    rows = np.asarray(orientations)
    u, v = g.endpoint_arrays()
    return so3.qmul(rows[v], so3.qconj(rows[u]))


def max_relative_error_deg(g, orientations):
    return float(np.max(so3.qangle_deg(relative_rows(g, orientations), g.relative_gt_array())))


def reduced_index(g):
    """Edge endpoints in the root-removed numbering, -1 at the root."""
    n = g.n_nodes
    root = viewgraph.select_root(g)
    red = -np.ones(n, dtype=np.int64)
    red[[v for v in range(n) if v != root]] = np.arange(n - 1)
    u, v = g.endpoint_arrays()
    return red[u], red[v]


def normal_equations_oracle(u_red, v_red, w, resid, n):
    """Per-edge loop right-hand side and ``ufunc.at`` Laplacian on (n, 3)
    arrays: the reference for the segment-sum system."""
    rhs = np.zeros((n, 3))
    wr = w[:, None] * resid
    for e in range(len(w)):
        if v_red[e] >= 0:
            rhs[v_red[e]] += wr[e]
        if u_red[e] >= 0:
            rhs[u_red[e]] -= wr[e]
    diag = np.zeros(n)
    np.add.at(diag, v_red[v_red >= 0], w[v_red >= 0])
    np.add.at(diag, u_red[u_red >= 0], w[u_red >= 0])
    both = (u_red >= 0) & (v_red >= 0)
    uu, vv, ww = u_red[both], v_red[both], w[both]

    def apply_laplacian(x):
        out = diag[:, None] * x
        np.subtract.at(out, uu, ww[:, None] * x[vv])
        np.subtract.at(out, vv, ww[:, None] * x[uu])
        return out

    return apply_laplacian, diag, rhs


def assert_rel_close(actual, expected, rtol=1e-12):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


class TestReducedLaplacian:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_and_ufunc_at_oracle(self, seed):
        g = make_graph(seed=seed, n=40, edge_fraction=0.2)
        u_red, v_red = reduced_index(g)
        n = g.n_nodes - 1
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 10.0, size=len(u_red))
        resid = rng.normal(size=(len(u_red), 3))
        x = rng.normal(size=(n, 3))
        apply_op, diag, rhs = baselines._reduced_laplacian(u_red, v_red, n)(w, resid)
        ref_op, ref_diag, ref_rhs = normal_equations_oracle(u_red, v_red, w, resid, n)
        assert_rel_close(diag, ref_diag)
        assert_rel_close(rhs.T, ref_rhs)
        assert_rel_close(apply_op(x.T).T, ref_op(x))

    def test_cg_iteration_cap_raises(self):
        g = make_graph(seed=3, n=40, edge_fraction=0.2)
        u_red, v_red = reduced_index(g)
        n = g.n_nodes - 1
        rng = np.random.default_rng(3)
        apply_op, diag, rhs = baselines._reduced_laplacian(u_red, v_red, n)(
            rng.uniform(0.1, 10.0, size=len(u_red)), rng.normal(size=(len(u_red), 3))
        )
        with pytest.raises(SolverError, match="did not converge"):
            baselines._cg_multi(apply_op, rhs, diag, max_iter=2, tol=CG_TOL)
        x, rel_res, iters = baselines._cg_multi(apply_op, rhs, diag, max_iter=10 * n, tol=CG_TOL)
        assert rel_res <= CG_TOL and 2 <= iters < 10 * n
        dense = np.stack([apply_op(np.tile(e, (3, 1)))[0] for e in np.eye(n)], axis=1)
        assert_rel_close(x.T, np.linalg.solve(dense, rhs.T), rtol=1e-9)


class TestNoiseFreeRecovery:
    def test_irls_recovers_from_perturbed_init(self):
        for seed in range(3):
            g = make_graph(seed=seed)
            rng = np.random.default_rng(100 + seed)
            init = so3.qmul(g.gt_array(), so3.qexp(rng.normal(scale=0.15, size=(g.n_nodes, 3))))
            assert max_relative_error_deg(g, so3.qcanon(init)) > 10.0
            res = baselines.irls_mra(g, so3.qcanon(init))
            assert res.converged
            assert max_relative_error_deg(g, res.orientations) < 1e-9

    def test_weiszfeld_recovers_perturbed_independent_set(self):
        # every perturbed node has only exact neighbors, so its candidates agree
        for seed in range(3):
            g = make_graph(seed=seed)
            root = viewgraph.select_root(g)
            u, v = g.endpoint_arrays()
            chosen: list[int] = []
            for node in range(g.n_nodes):
                nbrs = np.concatenate([v[u == node], u[v == node]])
                if node != root and not np.isin(nbrs, chosen).any():
                    chosen.append(node)
            rows = g.gt_array().copy()
            rng = np.random.default_rng(seed)
            rows[chosen] = so3.qmul(rows[chosen], so3.qexp(rng.normal(scale=0.3, size=(len(chosen), 3))))
            assert max_relative_error_deg(g, so3.qcanon(rows)) > 10.0
            res = baselines.weiszfeld_mra(g, so3.qcanon(rows), sweeps=3)
            assert max_relative_error_deg(g, res.orientations) < 1e-4


@pytest.mark.parametrize(
    "solve",
    [
        lambda g, init: baselines.irls_mra(g, init),
        lambda g, init: baselines.weiszfeld_mra(g, init, sweeps=3),
    ],
    ids=["irls", "weiszfeld"],
)
def test_relative_outputs_are_gauge_invariant(solve):
    g = make_graph(seed=4, sigma=8.0, outliers=0.1)
    init = bootstrap(g)
    gauge = so3.sample_uniform_rows(np.random.default_rng(4), 1)
    moved = so3.qcanon(so3.qmul(np.asarray(init), gauge))
    a = relative_rows(g, solve(g, init).orientations)
    b = relative_rows(g, solve(g, moved).orientations)
    assert np.max(so3.qangle_deg(a, b)) < 1e-6


class TestIrlsReport:
    def test_cg_residual_and_iterations(self):
        g = make_graph(seed=5, sigma=10.0, outliers=0.1)
        res = baselines.irls_mra(g, bootstrap(g))
        assert res.cg_residual <= CG_TOL
        assert len(res.cg_iterations) == res.iterations == len(res.max_step_trace)
        assert all(0 < k < 10 * g.n_nodes for k in res.cg_iterations)

    # the seed-6 graph needs 44 iterations to converge (corpus v2)
    @pytest.mark.parametrize("max_iters, converged",
                             [((5, 50), True), ((1, 1), False), ((0, 0), False)])
    def test_converged_matches_step_trace(self, max_iters, converged):
        g = make_graph(seed=6, sigma=10.0, outliers=0.1)
        res = baselines.irls_mra(g, bootstrap(g), max_iters=max_iters)
        assert res.converged == (bool(res.max_step_trace) and res.max_step_trace[-1] < IRLS_STEP_TOL)
        assert res.converged == converged


@pytest.mark.parametrize("solver", [baselines.irls_mra, baselines.weiszfeld_mra])
def test_disconnected_graph_rejected(solver):
    q = so3_oracle.yaw_deg(10.0)
    g = ViewGraph(4, [Edge(0, 1, q), Edge(2, 3, q)])
    with pytest.raises(ViewGraphError, match="connected"):
        solver(g, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))


def test_weiszfeld_objective_never_increases():
    g = synthgen.generate_graph(synthgen.SynthConfig.desk(seed=2), np.random.default_rng(2))
    trace = baselines.weiszfeld_mra(g, bootstrap(g), sweeps=5).objective_trace
    assert len(trace) == 6
    assert all(b <= a for a, b in zip(trace, trace[1:]))
