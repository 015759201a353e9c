from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import so3_oracle
from rotavg import baselines, so3, synthgen, viewgraph
from rotavg.baselines import CG_TOL, IRLS_STEP_TOL, SolverError
from rotavg.viewgraph import ViewGraph, ViewGraphError
from so3_oracle import Edge, edge_graph


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


def irls_on(path, g, init, **kwargs):
    """``irls_mra`` with its dense solve (``"direct"``) or its CG solve
    (``"cg"``) taken at every graph size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "DENSE_SOLVE_MAX_N", {"direct": 1 << 62, "cg": -1}[path])
        return baselines.irls_mra(g, init, **kwargs)


def assert_rel_close(actual, expected, rtol=1e-12):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


def assert_system_matches_oracle(u_red, v_red, n, seed=0):
    """The segment-sum system against ``normal_equations_oracle``: the whole
    dense operator, ``apply_op(x)`` and the right-hand side; the operator
    maps 0 to exactly 0, which CG's ``r = rhs`` start relies on; and the
    scattered dense matrix of the direct solve is the same operator."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10.0, size=len(u_red))
    resid = rng.normal(size=(len(u_red), 3))
    x = rng.normal(size=(n, 3))
    system, dense_system = baselines._reduced_laplacian(u_red, v_red, n)
    apply_op, _, rhs = system(w, resid)
    ref_op, _, ref_rhs = normal_equations_oracle(u_red, v_red, w, resid, n)
    dense = np.stack([apply_op(np.tile(e, (3, 1)))[0] for e in np.eye(n)], axis=1)
    ref_dense = np.stack([ref_op(np.tile(e[:, None], (1, 3)))[:, 0] for e in np.eye(n)], axis=1)
    assert_rel_close(dense, ref_dense)
    assert_rel_close(rhs.T, ref_rhs)
    assert_rel_close(apply_op(x.T).T, ref_op(x))
    zero = apply_op(np.zeros((3, n)))
    assert zero.shape == (3, n) and not np.any(zero)
    lap, dense_rhs = dense_system(w, resid)
    assert_rel_close(lap, ref_dense)
    assert np.array_equal(lap, lap.T) and np.array_equal(dense_rhs, rhs)


@st.composite
def root_only_neighbour_graphs(draw):
    """Reduced edge lists (root ends -1) on ``n`` unknowns, connected through
    the root, in which a random subset of nodes touches only the root: their
    off-diagonal rows are empty, anywhere in the numbering, last included."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    only_root = rng.random(n) < draw(st.floats(0.1, 0.9))
    inner = rng.permutation(np.flatnonzero(~only_root))
    pairs = [(-1, a) for a in np.flatnonzero(only_root)]
    pairs += [(-1 if i == 0 or rng.random() < 0.2 else inner[rng.integers(0, i)], a)
              for i, a in enumerate(inner)]  # a random tree over the rest and the root
    pairs += [(a, b) for i, a in enumerate(inner) for b in inner[:i] if rng.random() < 0.3]
    u, v = np.array(pairs, dtype=np.int64)[rng.permutation(len(pairs))].T
    swap = rng.random(u.size) < 0.5  # either end may be the root
    return np.where(swap, v, u), np.where(swap, u, v), n


class TestReducedLaplacian:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_and_ufunc_at_oracle(self, seed):
        g = make_graph(seed=seed, n=40, edge_fraction=0.2)
        assert_system_matches_oracle(*reduced_index(g), g.n_nodes - 1, seed)

    def test_star_on_the_root_has_only_empty_rows(self):
        n = 7
        assert_system_matches_oracle(np.full(n, -1), np.arange(n), n)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_path_from_the_root(self, ascending):
        # root - 0 - 1 - ... - (n-1), or numbered from the far end
        n = 9
        u, v = np.arange(-1, n - 1), np.arange(n)
        if not ascending:
            u, v = np.where(u < 0, -1, n - 1 - u), n - 1 - v
        assert_system_matches_oracle(u, v, n)

    @pytest.mark.parametrize("u, v", [([-1], [0]), ([0], [-1])])
    def test_two_nodes(self, u, v):
        assert_system_matches_oracle(np.array(u), np.array(v), 1)

    @settings(max_examples=150, deadline=None)
    @given(root_only_neighbour_graphs(), st.integers(0, 2**32 - 1))
    def test_nodes_touching_only_the_root(self, case, seed):
        assert_system_matches_oracle(*case, seed)

    def test_cg_iteration_cap_raises(self):
        g = make_graph(seed=3, n=40, edge_fraction=0.2)
        u_red, v_red = reduced_index(g)
        n = g.n_nodes - 1
        rng = np.random.default_rng(3)
        apply_op, precond, rhs = baselines._reduced_laplacian(u_red, v_red, n)[0](
            rng.uniform(0.1, 10.0, size=len(u_red)), rng.normal(size=(len(u_red), 3))
        )
        with pytest.raises(SolverError, match="did not converge"):
            baselines._cg_multi(apply_op, rhs, precond, max_iter=2, tol=CG_TOL)
        x, rel_res, iters = baselines._cg_multi(apply_op, rhs, precond, max_iter=10 * n, tol=CG_TOL)
        assert rel_res <= CG_TOL and 2 <= iters < 10 * n
        dense = np.stack([apply_op(np.tile(e, (3, 1)))[0] for e in np.eye(n)], axis=1)
        assert_rel_close(x.T, np.linalg.solve(dense, rhs.T), rtol=1e-9)


# ---------------------------------------------------------------------------
# IRLS: the maximum-spanning-tree preconditioner and Jacobi CG as its oracle
# ---------------------------------------------------------------------------

def kruskal_oracle(u, v, w, n):
    """Edge ids of the maximum-weight spanning forest: Kruskal's algorithm
    with a scalar union-find, edges by descending weight, ties by edge id."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    tree = []
    for e in sorted(range(len(w)), key=lambda e: (-w[e], e)):
        a, b = find(int(u[e])), find(int(v[e]))
        if a != b:
            root[a] = b
            tree.append(e)
    return sorted(tree)


def tree_system_oracle(u, v, w, n):
    """Dense ``M = diag(L) - A_T`` on the unknowns ``0..n-1`` of a graph whose
    node ``n`` is the ground, with the full Laplacian diagonal ``diag(L)``
    and ``T`` the Kruskal tree."""
    diag = np.zeros(n + 1)
    np.add.at(diag, u, w)
    np.add.at(diag, v, w)
    m = np.diag(diag[:n])
    for e in kruskal_oracle(u, v, w, n + 1):
        if u[e] < n and v[e] < n:
            m[u[e], v[e]] -= w[e]
            m[v[e], u[e]] -= w[e]
    return diag[:n], m


@st.composite
def weighted_graphs(draw):
    """A connected graph on nodes ``0..n`` (node ``n`` the ground): a random
    tree plus random extra edges, with tied or spread weights."""
    n = draw(st.integers(0, 14))
    density = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(n + 1)
    pairs = set()
    for i in range(1, n + 1):
        a, b = ids[i], ids[rng.integers(0, i)]
        pairs.add((min(a, b), max(a, b)))
    pairs |= {(a, b) for a in range(n + 1) for b in range(a + 1, n + 1) if rng.random() < density}
    u, v = (np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)[rng.permutation(len(pairs))].T
            if pairs else (np.zeros(0, dtype=np.int64),) * 2)
    if draw(st.booleans()):
        w = rng.choice([0.5, 1.0, 2.0, 3.0], size=u.size)  # many ties
    else:
        w = np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=u.size))
    return u, v, w, n


def assert_precond_matches_dense_solve(u, v, w, n, seed=0):
    """The apply equals ``np.linalg.solve`` on the dense ``M`` within 1e-12
    relative while ``cond(M) <= 1e3``.  Both solves carry a forward error of
    order ``cond(M) * eps``, and weights over four decades on a deep tree
    reach ``cond(M) ~ 1e5``, so past 1e3 the bound grows with ``cond(M)``;
    the normwise backward error stays at rounding level throughout."""
    diag, m = tree_system_oracle(u, v, w, n)
    r = np.random.default_rng(seed).normal(size=(3, n))
    z = baselines._tree_preconditioner(u, v, w, diag)(r)
    assert z.shape == (3, n)
    if n:
        assert_rel_close(z, np.linalg.solve(m, r.T).T,
                         rtol=1e-12 * max(1.0, np.linalg.cond(m) / 1e3))
        backward = np.max(np.abs(r.T - m @ z.T)) / (
            np.max(np.abs(m)) * np.max(np.abs(z)) + np.max(np.abs(r)))
        assert backward <= 1e-14
    return diag, r, z


class TestTreePreconditioner:
    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs())
    def test_tree_matches_kruskal(self, case):
        u, v, w, n = case
        tree = baselines._max_spanning_tree(u, v, w, n + 1)
        assert tree.tolist() == kruskal_oracle(u, v, w, n + 1)
        # it spans: every node reaches the ground over tree edges
        _, depth = viewgraph.bfs_levels(n + 1, u[tree], v[tree], n)
        assert tree.size == n and np.all(depth >= 0)
        assert np.sum(w[tree]) == np.sum(w[kruskal_oracle(u, v, w, n + 1)])

    def test_all_ones_weights_of_the_first_iteration(self):
        g = make_graph(seed=9, n=60, edge_fraction=0.2)
        u, v = g.endpoint_arrays()
        w = np.ones(u.size)
        tree = baselines._max_spanning_tree(u, v, w, g.n_nodes)
        assert tree.tolist() == kruskal_oracle(u, v, w, g.n_nodes)
        assert np.sum(w[tree]) == g.n_nodes - 1
        _, depth = viewgraph.bfs_levels(g.n_nodes, u[tree], v[tree], viewgraph.select_root(g))
        assert np.all(depth >= 0)

    def test_clamped_bootstrap_tree_edges_of_the_first_l1_weights(self):
        # weights 1 / max(|r|, delta) at the bootstrap: the N - 1 tree edges
        # are exactly consistent and tie at 1 / delta among spread weights
        g = make_graph(seed=9, n=60, edge_fraction=0.2, sigma=10.0, outliers=0.1)
        root = viewgraph.select_root(g)
        rows = np.asarray(bootstrap(g))
        u, v = g.endpoint_arrays()
        resid = so3.qlog(so3.qmul(so3.qconj(rows[v]), so3.qmul(g.edge_quat_array(), rows[u])))
        w = 1.0 / np.maximum(np.linalg.norm(resid, axis=1), baselines.IRLS_DELTA)
        clamped = np.flatnonzero(w == 1.0 / baselines.IRLS_DELTA)
        assert clamped.size == g.n_nodes - 1 and np.unique(w).size > g.n_nodes
        tree = baselines._max_spanning_tree(u, v, w, g.n_nodes)
        assert tree.tolist() == kruskal_oracle(u, v, w, g.n_nodes) == clamped.tolist()
        _, depth = viewgraph.bfs_levels(g.n_nodes, u[tree], v[tree], root)
        assert np.all(depth >= 0)

    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs())
    def test_apply_matches_dense_solve(self, case):
        assert_precond_matches_dense_solve(*case)

    def test_star_on_the_ground_is_jacobi(self):
        # every node at depth 1: no doubling round, the apply is r / diag
        n = 9
        w = np.random.default_rng(1).uniform(0.1, 10.0, size=n)
        diag, r, z = assert_precond_matches_dense_solve(np.arange(n), np.full(n, n), w, n)
        assert np.array_equal(z, r / diag)

    @pytest.mark.parametrize("ties", [False, True])
    def test_path_from_the_ground(self, ties):
        # ground n - 0 - 1 - ... - (n-1): depth N - 1 = n, the deepest doubling
        n = 40
        rng = np.random.default_rng(2)
        w = np.ones(n) if ties else rng.uniform(0.5, 2.0, size=n)
        assert_precond_matches_dense_solve(np.arange(-1, n - 1) % (n + 1), np.arange(n), w, n)

    @pytest.mark.parametrize("n", [0, 1])  # graphs of N = 1 and N = 2 nodes
    def test_smallest_graphs(self, n):
        u, v = np.arange(n), np.full(n, n)
        assert_precond_matches_dense_solve(u, v, np.full(n, 2.5), n)


def jacobi_cg_oracle(apply_op, rhs, diag, max_iter, tol):
    """The former Jacobi-preconditioned CG of ``irls_mra``: the same stopping
    rule on the true residuals, ``z = r / diag`` as the preconditioner."""
    x = np.zeros_like(rhs)
    r = rhs - apply_op(x)
    p = r / diag
    rz = np.sum(r * p, axis=1)
    norm_b = np.maximum(np.sqrt(np.sum(rhs * rhs, axis=1)), 1e-300)
    for it in range(max_iter):
        if np.all(np.sqrt(np.sum(r * r, axis=1)) / norm_b <= tol):
            break
        ap = apply_op(p)
        denom = np.sum(p * ap, axis=1)
        alpha = np.where(denom > 0.0, rz / np.maximum(denom, 1e-300), 0.0)[:, None]
        x += alpha * p
        r -= alpha * ap
        z = r / diag
        rz_new = np.sum(r * z, axis=1)
        p = z + (rz_new / np.maximum(rz, 1e-300))[:, None] * p
        rz = rz_new
    else:
        raise SolverError(f"conjugate gradient did not converge within {max_iter} iterations")
    return x, it


def irls_oracle(g, init, max_iters=(5, 20)):
    """``irls_mra`` on the loop/``ufunc.at`` normal equations, solved by
    Jacobi CG: (rows, iterations, CG iterations per inner solve)."""
    rows = viewgraph.orientation_rows(g, init)
    n = g.n_nodes
    root = viewgraph.select_root(g)
    u, v = g.endpoint_arrays()
    u_red, v_red = reduced_index(g)
    trace, cg_iterations = [], []
    for phase_iters, exponent in ((max_iters[0], 1.0), (max_iters[1], 1.5)):
        for _ in range(phase_iters):
            resid = so3.qlog(so3.qmul(so3.qconj(rows[v]), so3.qmul(g.edge_quat_array(), rows[u])))
            norms = np.linalg.norm(resid, axis=1)
            w = 1.0 / np.maximum(norms**exponent, baselines.IRLS_DELTA) if trace else np.ones_like(norms)
            op, diag, rhs = normal_equations_oracle(u_red, v_red, w, resid, n - 1)
            x, its = jacobi_cg_oracle(lambda y: op(y.T).T, rhs.T, diag, 10 * n, CG_TOL)
            cg_iterations.append(its)
            step = np.insert(x.T, root, 0.0, axis=0)
            rows = so3.qcanon(so3.qmul(rows, so3.qexp(step)))
            trace.append(float(np.max(np.linalg.norm(step, axis=1))))
            if trace[-1] < IRLS_STEP_TOL:
                break
    return rows, len(trace), cg_iterations


class TestIrlsJacobiOracle:
    # ids without a suffix run the dense solve, the size's own choice
    @pytest.mark.parametrize("seed, path", [
        *[pytest.param(seed, "direct", id=str(seed)) for seed in (10, 11, 12)],
        *[pytest.param(seed, "cg", id=f"{seed}-cg") for seed in (10, 11, 12)],
    ])
    def test_matches_jacobi_cg_irls(self, seed, path):
        g = make_graph(seed=seed, n=40, edge_fraction=0.2, sigma=10.0, outliers=0.1)
        res = irls_on(path, g, bootstrap(g))
        rows, iterations, _ = irls_oracle(g, bootstrap(g))
        assert res.iterations == iterations
        assert np.max(so3.qangle_deg(np.asarray(res.orientations), rows)) <= 1e-9

    def test_sparse_graph_needs_a_third_of_the_cg_iterations(self):
        g = make_graph(seed=13, n=120, edge_fraction=0.08, sigma=20.0, outliers=0.1)
        res = irls_on("cg", g, bootstrap(g))
        rows, iterations, oracle_cg = irls_oracle(g, bootstrap(g))
        assert res.iterations == iterations
        assert np.max(so3.qangle_deg(np.asarray(res.orientations), rows)) <= 1e-9
        assert 3 * sum(res.cg_iterations) <= sum(oracle_cg)


@st.composite
def irls_cases(draw):
    """A connected view-graph on 2-60 nodes, ids shuffled, with 1-20 deg of
    noise per measurement and about 10 % outliers: a star on the root, a
    path, or a hub (the root) joined to every node plus random edges among a
    subset, so that the other nodes touch only the root.  Bridges (the edges
    of those nodes, every edge of a star or a path) stay exactly consistent,
    so their weights clamp at ``1 / delta`` from the second step on.  The
    init is the BFS bootstrap or a perturbed ground truth."""
    kind = draw(st.sampled_from(["star", "path", "root_only"]))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(n)
    if kind == "path":
        pairs = list(zip(ids[:-1], ids[1:]))
    else:
        pairs = [(ids[0], b) for b in ids[1:]]
    if kind == "root_only":
        inner = ids[1:][rng.random(n - 1) < draw(st.floats(0.0, 1.0))]
        pairs += [(a, b) for i, a in enumerate(inner) for b in inner[:i] if rng.random() < 0.3]
    u, v = np.sort(np.array(pairs, dtype=np.int64), axis=1)[rng.permutation(len(pairs))].T
    gt = so3.sample_uniform_rows(rng, n)
    axis = rng.normal(size=(u.size, 3))
    angle = np.radians(rng.uniform(1.0, 20.0, size=u.size))
    noise = so3.qexp(axis / np.linalg.norm(axis, axis=1, keepdims=True) * angle[:, None])
    q = so3.qmul(noise, so3.qmul(gt[v], so3.qconj(gt[u])))
    outlier = rng.random(u.size) < 0.1
    q[outlier] = so3.sample_uniform_rows(rng, int(outlier.sum()))
    g = ViewGraph(n, u, v, so3.qcanon(q))
    if draw(st.booleans()):
        init = np.asarray(bootstrap(g))
    else:
        init = so3.qcanon(so3.qmul(gt, so3.qexp(rng.normal(scale=0.2, size=(n, 3)))))
    return g, init


class TestDenseSolve:
    # A fixed example set.  On random draws of this family both solves can
    # end at the rounding floor eps * |L| |x| / |b| of the residual: the last
    # step's residual exceeds CG_TOL in about 1 run in 1000, on either path
    # (up to 9e-12 for the dense solve; iterative refinement does not lower
    # it), and 25 IRLS iterations amplify the CG solve's error past 1e-9 deg
    # in about 1 run in 3000.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(irls_cases())
    def test_matches_cg_path(self, case):
        g, init = case
        direct, cg = irls_on("direct", g, init), irls_on("cg", g, init)
        assert direct.iterations == cg.iterations
        assert np.max(so3.qangle_deg(np.asarray(direct.orientations), np.asarray(cg.orientations))) <= 1e-9
        assert direct.cg_residual <= CG_TOL
        assert direct.cg_iterations == [0] * direct.iterations

    def test_selected_by_node_count(self, monkeypatch):
        g = make_graph(seed=5, sigma=10.0, outliers=0.1)
        monkeypatch.setattr(baselines, "DENSE_SOLVE_MAX_N", g.n_nodes - 1)
        res = baselines.irls_mra(g, bootstrap(g))
        assert res.iterations > 0 and res.cg_iterations == [0] * res.iterations
        monkeypatch.setattr(baselines, "DENSE_SOLVE_MAX_N", g.n_nodes - 2)
        res = baselines.irls_mra(g, bootstrap(g))
        assert res.iterations > 0 and all(k > 0 for k in res.cg_iterations)

    def test_singular_matrix_raises_solver_error(self):
        with pytest.raises(SolverError, match="dense solve failed"):
            baselines._dense_solve(np.zeros((3, 3)), np.ones((3, 3)))

    # N = 1 has no unknown: each phase with a budget takes one zero step
    @pytest.mark.parametrize("path", ["direct", "cg"])
    @pytest.mark.parametrize("max_iters, iterations", [((5, 20), 2), ((0, 3), 1), ((0, 0), 0)])
    def test_one_node(self, path, max_iters, iterations):
        g = ViewGraph(1, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                                  np.zeros((0, 4)))
        init = np.array([[-0.5, 0.5, -0.5, 0.5]])
        res = irls_on(path, g, init, max_iters=max_iters)
        assert np.array_equal(np.asarray(res.orientations), so3.qcanon(init))
        assert res.iterations == iterations and res.max_step_trace == [0.0] * iterations
        assert res.converged == (iterations > 0)
        assert res.cg_iterations == [0] * iterations and res.cg_residual == 0.0


def irls_frozen(g, init, path, max_iters=(5, 20)):
    """``irls_mra``'s step as it stood before the fused step, on the path
    ``"direct"`` or ``"cg"``: ``so3_oracle``'s log, exp and canonicalization,
    ``np.linalg.norm``, the E gathered rows conjugated, the right-hand side
    scattered from its transposed copy and the dense matrix by one
    ``np.bincount`` over the diagonal and the off-diagonal cells.  The parts
    the fused step left alone are the package's: ``_dense_solve``,
    ``_cg_multi`` and the CG operator and preconditioner of
    ``_reduced_laplacian``.  Returns ``(rows, max_step_trace, cg_residual,
    cg_iterations)``."""
    rows = so3_oracle.qcanon(np.asarray(init, dtype=np.float64))
    n = g.n_nodes - 1
    root = viewgraph.select_root(g)
    u, v = g.endpoint_arrays()
    u_red, v_red = reduced_index(g)
    ends = np.concatenate([v_red, u_red])
    inc = ends >= 0
    inc_node, inc_edge = ends[inc], np.tile(np.arange(u.size), 2)[inc]
    inc_sign = np.repeat([1.0, -1.0], u.size)[inc]
    inc_bins = (np.arange(3)[:, None] * n + inc_node).ravel()
    both = np.flatnonzero((u_red >= 0) & (v_red >= 0))
    cells = np.concatenate([np.arange(n) * (n + 1), u_red[both] * n + v_red[both],
                            v_red[both] * n + u_red[both]])
    system = baselines._reduced_laplacian(u_red, v_red, n)[0]
    trace, cg_iterations, cg_residual = [], [], 0.0
    for phase_iters, exponent in ((max_iters[0], 1.0), (max_iters[1], 1.5)):
        for _ in range(phase_iters):
            resid = so3_oracle.qlog(so3.qmul(so3.qconj(rows[v]), so3.qmul(g.edge_quat_array(), rows[u])))
            norms = np.linalg.norm(resid, axis=1)
            w = 1.0 / np.maximum(norms**exponent, baselines.IRLS_DELTA) if trace else np.ones_like(norms)
            diag = np.bincount(inc_node, w[inc_edge], n)
            swr = (inc_sign * w[inc_edge])[:, None] * resid[inc_edge]
            rhs = np.bincount(inc_bins, swr.T.ravel(), 3 * n).reshape(3, n).astype(np.float64, copy=False)
            if path == "direct":
                lap = np.bincount(cells, np.concatenate([diag, -w[both], -w[both]]), n * n)
                x, cg_residual = baselines._dense_solve(lap.reshape(n, n), rhs)
                its = 0
            else:
                apply_op, precond, _ = system(w, resid)
                x, cg_residual, its = baselines._cg_multi(apply_op, rhs, precond, 10 * g.n_nodes, CG_TOL)
            cg_iterations.append(its)
            step = np.insert(x.T, root, 0.0, axis=0)
            rows = so3_oracle.qcanon(so3.qmul(rows, so3_oracle.qexp(step)))
            trace.append(float(np.max(np.linalg.norm(step, axis=1))))
            if trace[-1] < IRLS_STEP_TOL:
                break
    return rows, trace, cg_residual, cg_iterations


def assert_matches_frozen_step(g, init, path):
    res = irls_on(path, g, init)
    rows, trace, cg_residual, cg_iterations = irls_frozen(g, init, path)
    out = np.asarray(res.orientations)
    assert out.shape == rows.shape and out.tobytes() == rows.tobytes()
    assert res.max_step_trace == trace and res.iterations == len(trace)
    assert res.cg_residual == cg_residual and res.cg_iterations == cg_iterations


class TestFrozenIrlsStep:
    """Rows, step trace, residual and CG iterations equal, bit for bit, those
    of the step before the row-norm kernel and the fused normal equations."""

    @pytest.mark.parametrize("path", ["direct", "cg"])
    @settings(max_examples=60, deadline=None)
    @given(irls_cases())
    def test_random_graphs(self, path, case):
        assert_matches_frozen_step(*case, path)

    @pytest.mark.parametrize("path", ["direct", "cg"])
    @pytest.mark.parametrize("seed", [20, 21])
    def test_noisy_graphs_with_outliers(self, path, seed):
        g = make_graph(seed=seed, n=80, edge_fraction=0.3, sigma=15.0, outliers=0.1)
        assert_matches_frozen_step(g, bootstrap(g), path)


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
        res = irls_on("cg", g, bootstrap(g))
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
    g = edge_graph(4, [Edge(0, 1, q), Edge(2, 3, q)])
    with pytest.raises(ViewGraphError, match="connected"):
        solver(g, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))


def test_weiszfeld_objective_never_increases():
    g = synthgen.generate_graph(synthgen.SynthConfig.desk(seed=2), np.random.default_rng(2))
    trace = baselines.weiszfeld_mra(g, bootstrap(g), sweeps=5).objective_trace
    assert len(trace) == 6
    assert all(b <= a for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# Weiszfeld: the per-node sweep as the oracle of the level schedule
# ---------------------------------------------------------------------------

def median_oracle(cands, iters):
    """One node's tangent-space Weiszfeld median, scalar step by step.  The
    medoid start minimises ``sum_j d_ij + d_ji`` with ``d_ii = 0``."""
    aw, ax, ay, az = cands[:, 0], cands[:, 1], cands[:, 2], cands[:, 3]
    dist = np.arccos(np.minimum(np.abs(cands @ cands.T), 1.0))
    np.fill_diagonal(dist, 0.0)
    m = cands[int(np.argmin(dist.sum(axis=1) + dist.sum(axis=0)))].copy()
    for _ in range(iters):
        w, x, y, z = m
        # rel = cands * conj(m)
        cw = aw * w + ax * x + ay * y + az * z
        cx = -aw * x + ax * w - ay * z + az * y
        cy = -aw * y + ax * z + ay * w - az * x
        cz = -aw * z - ax * y + ay * x + az * w
        nv = np.sqrt(cx * cx + cy * cy + cz * cz)
        ang = 2.0 * np.arctan2(nv, np.abs(cw))
        scale = np.where(nv > 1e-12, np.copysign(ang, cw) / np.maximum(nv, 1e-300), 0.0)
        weights = 1.0 / np.maximum(ang, baselines.WEISZFELD_FLOOR)
        coef = weights * scale / weights.sum()
        sx, sy, sz = float(coef @ cx), float(coef @ cy), float(coef @ cz)
        step = math.sqrt(sx * sx + sy * sy + sz * sz)
        if step < 1e-12:
            break
        half = 0.5 * step
        s = math.sin(half) / step
        ew, ex, ey, ez = math.cos(half), sx * s, sy * s, sz * s
        # m = exp(step) * m
        m = np.array([
            ew * w - ex * x - ey * y - ez * z,
            ew * x + ex * w + ey * z - ez * y,
            ew * y - ex * z + ey * w + ez * x,
            ew * z + ex * y - ey * x + ez * w,
        ])
        m /= math.sqrt(float(m @ m))
    return m


def incoming_candidates(g, rows, node):
    """``q_uv * rows[u]`` over the edges at ``node``, in edge order."""
    u, v = g.endpoint_arrays()
    q = g.edge_quat_array()
    at = np.flatnonzero((u == node) | (v == node))
    into = (v[at] == node)[:, None]
    return np.where(into, so3.qmul(q[at], rows[u[at]]), so3.qmul(so3.qconj(q[at]), rows[v[at]]))


def weiszfeld_oracle(g, init, sweeps, median_iters):
    """Gauss-Seidel sweeps one node at a time, in ascending id order."""
    rows = viewgraph.orientation_rows(g, init)
    root = viewgraph.select_root(g)
    u, v = g.endpoint_arrays()

    def objective():
        rel = so3.qmul(rows[v], so3.qconj(rows[u]))
        return float(np.sum(so3.qangle_deg(rel, g.edge_quat_array())))

    trace = [objective()]
    for _ in range(sweeps):
        for node in range(g.n_nodes):
            if node != root:
                rows[node] = median_oracle(incoming_candidates(g, rows, node), median_iters)
        trace.append(objective())
    return so3.qcanon(rows), trace


@st.composite
def weiszfeld_cases(draw):
    """A random connected graph (path, star or near-complete, ids shuffled),
    measurements with 1-30 deg of noise each, a perturbed init, a budget."""
    kind = draw(st.sampled_from(["path", "star", "near_complete"]))
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(n)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(ids[:-1], ids[1:])}
    if kind == "star":
        pairs = {(min(ids[0], b), max(ids[0], b)) for b in ids[1:]}
    elif kind == "near_complete":
        pairs |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.8}
    u, v = np.array(sorted(pairs)).T
    order = rng.permutation(u.size)  # edge order sets the candidate order
    u, v = u[order], v[order]
    gt = so3.sample_uniform_rows(rng, n)
    axis = rng.normal(size=(u.size, 3))
    angle = np.radians(rng.uniform(1.0, 30.0, size=u.size))
    noise = so3.qexp(axis / np.linalg.norm(axis, axis=1, keepdims=True) * angle[:, None])
    q = so3.qmul(noise, so3.qmul(gt[v], so3.qconj(gt[u])))
    init = so3.qmul(gt, so3.qexp(rng.normal(scale=0.2, size=(n, 3))))
    g = ViewGraph(n, u, v, so3.qcanon(q))
    return g, so3.qcanon(init), draw(st.integers(0, 3)), draw(st.integers(0, 10))


class TestWeiszfeldLevelSchedule:
    @settings(max_examples=150, deadline=None)
    @given(weiszfeld_cases())
    def test_matches_per_node_sweep(self, case):
        g, init, sweeps, median_iters = case
        res = baselines.weiszfeld_mra(g, init, sweeps=sweeps, median_iters=median_iters)
        rows, trace = weiszfeld_oracle(g, init, sweeps, median_iters)
        assert np.max(np.abs(np.asarray(res.orientations) - rows)) <= 1e-10
        assert len(res.objective_trace) == len(trace) == sweeps + 1
        assert np.max(np.abs(np.subtract(res.objective_trace, trace))) <= 1e-12 * max(trace)

    @settings(max_examples=100, deadline=None)
    @given(weiszfeld_cases())
    def test_levels_are_a_wavefront_order(self, case):
        g = case[0]
        root = viewgraph.select_root(g)
        level = baselines._weiszfeld_levels(g, root)
        u, v = g.endpoint_arrays()
        inner = (u != root) & (v != root)
        assert level[root] == -1 and np.all(np.delete(level, root) >= 0)
        # neighbours sit on different levels, the smaller id on the lower one
        assert np.all(level[u[inner]] < level[v[inner]])
        for node in np.flatnonzero(level > 0):
            lower = u[inner & (v == node)]
            assert np.any(level[lower] == level[node] - 1)
        plan = baselines._weiszfeld_plan(g, root)
        nodes = np.concatenate([p[0] for p in plan]) if plan else np.zeros(0, dtype=np.int64)
        assert np.array_equal(np.sort(nodes), np.delete(np.arange(g.n_nodes), root))
        # each batch is one level, and the batches run in level order
        batch_level = [level[members] for members, *_ in plan]
        assert all(np.all(lv == lv[0]) for lv in batch_level)
        assert np.all(np.diff([lv[0] for lv in batch_level]) >= 0)

    def test_levels_cut_to_the_medoid_budget_match_per_node_sweep(self, monkeypatch):
        monkeypatch.setattr(baselines, "MEDOID_CELLS", 200)
        g = make_graph(seed=8, n=30, sigma=10.0, outliers=0.1)
        root = viewgraph.select_root(g)
        plan = baselines._weiszfeld_plan(g, root)
        assert len(plan) > baselines._weiszfeld_levels(g, root).max() + 1
        assert all(len(nodes) == 1 or valid.size * valid.shape[1] <= 200
                   for nodes, _, _, valid in plan)
        rng = np.random.default_rng(8)
        init = so3.qcanon(so3.qmul(g.gt_array(), so3.qexp(rng.normal(scale=0.2, size=(30, 3)))))
        res = baselines.weiszfeld_mra(g, init, sweeps=2)
        rows, trace = weiszfeld_oracle(g, init, 2, 10)
        assert np.max(np.abs(np.asarray(res.orientations) - rows)) <= 1e-10
        assert np.max(np.abs(np.subtract(res.objective_trace, trace))) <= 1e-12 * max(trace)

    def test_level_counts_of_path_and_star(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (7, 1))
        path = ViewGraph(8, np.arange(7), np.arange(1, 8), q)
        assert baselines._weiszfeld_levels(path, 0).max() + 1 == 7  # N - 1
        star = ViewGraph(8, np.full(7, 3), np.delete(np.arange(8), 3), q)
        assert viewgraph.select_root(star) == 3
        assert np.array_equal(baselines._weiszfeld_levels(star, 3), [0, 0, 0, -1, 0, 0, 0, 0])

    def test_degree_two_medoid_is_the_first_candidate(self):
        # a triangle rooted at 0: node 1 sees edge (0, 1) before edge (1, 2)
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = so3.sample_uniform_rows(rng, 3)
            q = so3.sample_uniform_rows(rng, 3)
            g = ViewGraph(3, np.array([0, 1, 0]), np.array([1, 2, 2]), q)
            out = baselines.weiszfeld_mra(g, rows, sweeps=1, median_iters=0).orientations
            first = so3.qmul(q[0], viewgraph.orientation_rows(g, rows)[0])
            assert so3.qangle_deg(np.asarray(out)[1], first) < 1e-9


@pytest.mark.parametrize(
    "solve, name",
    [
        (lambda g, init: baselines.weiszfeld_mra(g, init, sweeps=-1), "sweeps"),
        (lambda g, init: baselines.weiszfeld_mra(g, init, median_iters=-1), "median_iters"),
        (lambda g, init: baselines.irls_mra(g, init, max_iters=(-1, 0)), "max_iters"),
        (lambda g, init: baselines.irls_mra(g, init, max_iters=(0, -1)), "max_iters"),
        (lambda g, init: baselines.irls_mra(g, init, delta=0.0), "delta"),
        (lambda g, init: baselines.irls_mra(g, init, delta=-1.0), "delta"),
        (lambda g, init: baselines.irls_mra(g, init, delta=math.inf), "delta"),
        (lambda g, init: baselines.irls_mra(g, init, delta=math.nan), "delta"),
        (lambda g, init: baselines.irls_mra(g, init, step_tol=-1e-3), "step_tol"),
        (lambda g, init: baselines.irls_mra(g, init, step_tol=math.inf), "step_tol"),
        (lambda g, init: baselines.irls_mra(g, init, step_tol=math.nan), "step_tol"),
        pytest.param(lambda g, init: baselines.weiszfeld_mra(g, init, sweeps=2.5), "sweeps",
                     id="sweeps-non-integer"),
        pytest.param(lambda g, init: baselines.weiszfeld_mra(g, init, median_iters=2.5),
                     "median_iters", id="median_iters-non-integer"),
        pytest.param(lambda g, init: baselines.irls_mra(g, init, max_iters=(5,)), "max_iters",
                     id="max_iters-one-phase"),
        pytest.param(lambda g, init: baselines.irls_mra(g, init, max_iters=(5, 20, 7)), "max_iters",
                     id="max_iters-three-phases"),
        pytest.param(lambda g, init: baselines.irls_mra(g, init, max_iters=(2.5, 1)), "max_iters",
                     id="max_iters-non-integer"),
    ],
)
def test_negative_budget_rejected(solve, name):
    g = make_graph(seed=0, n=10)
    with pytest.raises(ValueError, match=name):
        solve(g, bootstrap(g))
