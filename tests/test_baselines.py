from __future__ import annotations

import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import so3_oracle
from rotavg import baselines, pipeline, so3, synthgen, viewgraph
from rotavg.baselines import CG_TOL, IRLS_STEP_TOL, SolverError
from rotavg.viewgraph import ViewGraph, ViewGraphError
from so3_oracle import ROW_TOL, Edge, edge_graph


def make_graph(seed=0, n=30, edge_fraction=0.3, sigma=0.0, outliers=0.0):
    cfg = synthgen.SynthConfig(
        n_cameras=(n, n), edge_fraction=(edge_fraction, edge_fraction),
        sigma_deg=(sigma, sigma), outlier_fraction=(outliers, outliers), seed=seed,
    )
    return synthgen.generate_graph(cfg, np.random.default_rng(seed))


def log_rows(q):
    """The log map of rows, through the package's one log body."""
    return so3.stack_rows(so3.qlog_parts(so3.components(q)))


def relative_rows(g, orientations):
    """Per-edge ``q_v q_u^-1``: the gauge-free part of a solution."""
    rows = np.asarray(orientations)
    u, v = g.endpoint_arrays()
    return so3.qmul(rows[v], so3.qconj(rows[u]))


def max_relative_error_deg(g, orientations):
    return float(np.max(so3_oracle.qangle_deg(relative_rows(g, orientations), g.relative_gt_array())))


def root_index(g):
    """Edge endpoints, node count and root of ``g``: the IRLS system's arguments."""
    return (*g.endpoint_arrays(), g.n_nodes, viewgraph.select_root(g))


def normal_equations_oracle(u, v, w, resid, n, root):
    """Per-edge loop right-hand side and ``ufunc.at`` Laplacian on (n, 3)
    arrays, with the identity in the row and column of the pinned ``root``
    and 0 in its right-hand side: the reference for the segment-sum system."""
    rhs = np.zeros((n, 3))
    wr = w[:, None] * resid
    for e in range(len(w)):
        rhs[v[e]] += wr[e]
        rhs[u[e]] -= wr[e]
    rhs[root] = 0.0
    diag = np.zeros(n)
    np.add.at(diag, v, w)
    np.add.at(diag, u, w)
    diag[root] = 1.0
    free = (u != root) & (v != root)
    uu, vv, ww = u[free], v[free], w[free]

    def apply_laplacian(x):
        out = diag[:, None] * x
        np.subtract.at(out, uu, ww[:, None] * x[vv])
        np.subtract.at(out, vv, ww[:, None] * x[uu])
        return out

    return apply_laplacian, diag, rhs


def on_path(path, solver, *args, **kwargs):
    """``solver(*args, **kwargs)`` with IRLS's dense solve (``"direct"``) or
    its CG solve (``"cg"``) taken at every graph size from N = 2 on: a ratio
    of 0 fails the cost test ``(N - 1)**3 <= ratio * E`` for every N >= 2.
    A one-node graph has no edge and passes it at any finite ratio, so it
    takes the dense solve on either path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "DENSE_SOLVE_RATIO", {"direct": 1 << 62, "cg": 0}[path])
        return solver(*args, **kwargs)


def irls_on(path, g, init, **kwargs):
    """``irls_mra`` on the path ``path`` (``on_path``)."""
    return on_path(path, baselines.irls_mra, g, init, **kwargs)


def step_solver_on(path, u, v, n, root):
    """``_step_solver``'s ``solve`` on the path ``path`` (``on_path``), which
    it chooses when it is built."""
    return on_path(path, baselines._step_solver, u, v, n, root)


def assert_rel_close(actual, expected, rtol=1e-12):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


def assert_system_matches_oracle(u, v, n, root, seed=0):
    """The step solver's segment-sum system against
    ``normal_equations_oracle``: the right-hand side; the CG ``matvec``,
    which is 0 in the root's row and is applied only to vectors that are 0
    there, as the oracle's matrix on such vectors, also its whole matrix on
    them; the operator maps 0 to exactly 0, which CG's ``r = rhs`` start
    relies on; and the scattered dense matrix of the direct solve, read as
    its ``matvec`` of the identity, is the oracle's, identity row and column
    included, also when a later step rewrites its buffer with other
    weights.  The two paths share their diagonal and right-hand side bit
    for bit.  The solvers take the residual component-major, (3, E), as
    IRLS passes it; the oracle reads its (E, 3) rows.  The ends are those a
    graph stores: u < v, by (u, v)."""
    u, v = ViewGraph(n, u, v, np.tile([1.0, 0.0, 0.0, 0.0], (len(u), 1))).endpoint_arrays()
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 10.0, size=len(u))
    resid = rng.normal(size=(len(u), 3))
    cols = np.ascontiguousarray(resid.T)
    x = rng.normal(size=(n, 3))
    x[root] = 0.0
    dense_solve = step_solver_on("direct", u, v, n, root)
    _, _, rhs, apply_op = step_solver_on("cg", u, v, n, root)(w, cols)
    ref_op, _, ref_rhs = normal_equations_oracle(u, v, w, resid, n, root)
    free = np.eye(n)
    free[root, root] = 0.0  # the directions CG moves in: 0 at the root
    dense = np.stack([apply_op(np.tile(e, (3, 1)))[0] for e in free], axis=1)
    ref_dense = np.stack([ref_op(np.tile(e[:, None], (1, 3)))[:, 0] for e in np.eye(n)], axis=1)
    assert_rel_close(dense, ref_dense @ free)
    assert_rel_close(rhs.T, ref_rhs)
    assert not np.any(rhs[:, root])
    assert_rel_close(apply_op(x.T).T, ref_op(x))
    zero = apply_op(np.zeros((3, n)))
    assert zero.shape == (3, n) and not np.any(zero)
    _, _, dense_rhs, matvec = dense_solve(w, cols)
    lap = matvec(np.eye(n))
    assert_rel_close(lap, ref_dense)
    assert np.array_equal(lap, lap.T) and np.array_equal(dense_rhs, rhs)
    # both paths read one set of normal equations: the CG operator is the
    # dense matrix bit for bit, diagonal included, but for the root's row
    # (0 there, the identity's in the dense one)
    lap_free = lap.copy()
    lap_free[root] = 0.0
    assert np.array_equal(dense, lap_free)
    w_next = rng.uniform(0.1, 10.0, size=len(u))
    fresh = step_solver_on("direct", u, v, n, root)(w_next, cols)[3](np.eye(n))
    assert np.array_equal(dense_solve(w_next, cols)[3](np.eye(n)), fresh)


@st.composite
def root_only_neighbour_graphs(draw):
    """Edge lists on ``n`` nodes with a root, connected through it, in which
    a random subset of the other nodes touches only the root: their rows of
    the Laplacian reduced to the free nodes are empty, anywhere in the
    numbering, last included.  No pair repeats, as in a ``ViewGraph``."""
    n = draw(st.integers(2, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = int(rng.integers(0, n))
    others = np.delete(np.arange(n), root)
    only_root = rng.random(n - 1) < draw(st.floats(0.1, 0.9))
    inner = rng.permutation(others[~only_root])
    pairs = [(root, a) for a in others[only_root]]
    pairs += [(root if i == 0 or rng.random() < 0.2 else inner[rng.integers(0, i)], a)
              for i, a in enumerate(inner)]  # a random tree over the rest and the root
    tree = set(pairs)
    pairs += [(a, b) for i, a in enumerate(inner) for b in inner[:i]
              if rng.random() < 0.3 and (b, a) not in tree]
    u, v = np.array(pairs, dtype=np.int64)[rng.permutation(len(pairs))].T
    swap = rng.random(u.size) < 0.5  # either end may be the root
    return np.where(swap, v, u), np.where(swap, u, v), n, root


class TestReducedLaplacian:
    """The Laplacian on the graph's own node ids with the root pinned: the
    Laplacian reduced to the free nodes, with the root's row and column
    kept as the identity (dense) or as zeros (CG)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_and_ufunc_at_oracle(self, seed):
        g = make_graph(seed=seed, n=40, edge_fraction=0.2)
        assert_system_matches_oracle(*root_index(g), seed)

    def test_star_on_the_root_has_only_empty_rows(self):
        # every free node touches only the root (node 3)
        n, root = 8, 3
        assert_system_matches_oracle(np.full(n - 1, root), np.delete(np.arange(n), root), n, root)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_path_from_the_root(self, ascending):
        # root 0 - 1 - ... - n-1, or the root n-1 and the path numbered down
        n = 10
        u, v = np.arange(n - 1), np.arange(1, n)
        if not ascending:
            u, v = n - 1 - u, n - 1 - v
        assert_system_matches_oracle(u, v, n, u[0])

    @pytest.mark.parametrize("u, v", [([0], [1]), ([1], [0])])
    def test_two_nodes(self, u, v):
        # the root is the first end given, node 0 or node 1 of the one edge
        assert_system_matches_oracle(np.array(u), np.array(v), 2, u[0])

    @settings(max_examples=150, deadline=None)
    @given(root_only_neighbour_graphs(), st.integers(0, 2**32 - 1))
    def test_nodes_touching_only_the_root(self, case, seed):
        assert_system_matches_oracle(*case, seed)

    def test_cg_iteration_cap_raises(self, monkeypatch):
        g = make_graph(seed=3, n=40, edge_fraction=0.2)
        u, v, n, root = root_index(g)
        rng = np.random.default_rng(3)
        w, resid = rng.uniform(0.1, 10.0, size=len(u)), rng.normal(size=(len(u), 3))
        solve = step_solver_on("cg", u, v, n, root)
        x, iters, rhs, apply_op = solve(w, resid.T)
        assert baselines._relative_residual(rhs, apply_op(x)) <= CG_TOL and 2 <= iters < 10 * n
        assert not np.any(x[:, root])
        ref_op = normal_equations_oracle(u, v, w, resid, n, root)[0]
        dense = np.stack([ref_op(np.tile(e[:, None], (1, 3)))[:, 0] for e in np.eye(n)], axis=1)
        assert_rel_close(x.T, np.linalg.solve(dense, rhs.T), rtol=1e-9)
        # the same step with CG capped at 2 iterations, not 10 N
        cg_multi = baselines._cg_multi
        monkeypatch.setattr(baselines, "_cg_multi", lambda *args, max_iter, tol:
                            cg_multi(*args, max_iter=2, tol=tol))
        with pytest.raises(SolverError, match="did not converge"):
            solve(w, resid.T)


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


def tree_system_oracle(u, v, w, n, root):
    """Dense ``M = diag(L) - A_T`` on the ``n`` nodes, with the full Laplacian
    diagonal ``diag(L)``, ``T`` the Kruskal tree, and the identity in the row
    and column of the pinned ``root``; and ``diag(L)``."""
    diag = np.zeros(n)
    np.add.at(diag, u, w)
    np.add.at(diag, v, w)
    m = np.diag(diag)
    for e in kruskal_oracle(u, v, w, n):
        m[u[e], v[e]] -= w[e]
        m[v[e], u[e]] -= w[e]
    m[root] = m[:, root] = 0.0
    m[root, root] = 1.0
    return diag, m


@st.composite
def weighted_graphs(draw):
    """A connected graph on 1-15 nodes with a random root: a random tree
    plus random extra edges, with tied or spread weights."""
    n = draw(st.integers(1, 15))
    density = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(n)
    pairs = set()
    for i in range(1, n):
        a, b = ids[i], ids[rng.integers(0, i)]
        pairs.add((min(a, b), max(a, b)))
    pairs |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density}
    u, v = (np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)[rng.permutation(len(pairs))].T
            if pairs else (np.zeros(0, dtype=np.int64),) * 2)
    if draw(st.booleans()):
        w = rng.choice([0.5, 1.0, 2.0, 3.0], size=u.size)  # many ties
    else:
        w = np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=u.size))
    return u, v, w, n, int(rng.integers(0, n))


@st.composite
def disconnected_weighted_graphs(draw):
    """1-4 of ``weighted_graphs``' connected graphs side by side, plus 0-3
    isolated nodes, node ids and edge order shuffled: ``(u, v, w, n,
    parts)``, ``parts`` the number of connected components."""
    graphs = draw(st.lists(weighted_graphs(), min_size=1, max_size=4))
    isolated = draw(st.integers(0, 3))
    n = sum(g[3] for g in graphs) + isolated
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    offsets = np.cumsum([0] + [g[3] for g in graphs])
    u, v, w = (np.concatenate([g[k] + (offsets[i] if k < 2 else 0) for i, g in enumerate(graphs)])
               for k in range(3))
    order = rng.permutation(u.size)
    u, v = perm[u[order]], perm[v[order]]
    return np.minimum(u, v), np.maximum(u, v), w[order], n, len(graphs) + isolated


def assert_precond_matches_dense_solve(u, v, w, n, root, seed=0):
    """The apply is 0 at the root, whatever ``r`` holds there, and elsewhere
    equals ``np.linalg.solve`` on the dense ``M`` of ``r`` with its root
    entries zeroed, within 1e-12 relative while ``cond(M) <= 1e3``.  Both
    solves carry a forward error of order ``cond(M) * eps``, and weights over
    four decades on a deep tree reach ``cond(M) ~ 1e5``, so past 1e3 the
    bound grows with ``cond(M)``; the normwise backward error stays at
    rounding level throughout."""
    diag, m = tree_system_oracle(u, v, w, n, root)
    r = np.random.default_rng(seed).normal(size=(3, n))
    z = baselines._tree_preconditioner(u, v, w, diag, root)(r)
    assert z.shape == (3, n) and not np.any(z[:, root])
    r[:, root] = 0.0
    if n > 1:
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
        u, v, w, n, root = case
        tree, _ = viewgraph.spanning_forest(n, u, v, w)
        assert tree.tolist() == kruskal_oracle(u, v, w, n)
        # it spans: every node reaches the root over tree edges
        _, depth = viewgraph.bfs_levels(n, u[tree], v[tree], root)
        assert tree.size == n - 1 and np.all(depth >= 0)
        assert np.sum(w[tree]) == np.sum(w[kruskal_oracle(u, v, w, n)])

    def test_all_ones_weights_of_the_first_iteration(self):
        g = make_graph(seed=9, n=60, edge_fraction=0.2)
        u, v = g.endpoint_arrays()
        w = np.ones(u.size)
        tree, _ = viewgraph.spanning_forest(g.n_nodes, u, v, w)
        assert tree.tolist() == kruskal_oracle(u, v, w, g.n_nodes)
        assert np.sum(w[tree]) == g.n_nodes - 1
        _, depth = viewgraph.bfs_levels(g.n_nodes, u[tree], v[tree], viewgraph.select_root(g))
        assert np.all(depth >= 0)

    def test_clamped_bootstrap_tree_edges_of_the_first_l1_weights(self):
        # weights 1 / max(|r|, delta) at the bootstrap: the N - 1 tree edges
        # are exactly consistent and tie at 1 / delta among spread weights
        g = make_graph(seed=9, n=60, edge_fraction=0.2, sigma=10.0, outliers=0.1)
        root = viewgraph.select_root(g)
        rows = np.asarray(pipeline.bootstrap(g).orientations)
        u, v = g.endpoint_arrays()
        resid = log_rows(so3.qmul(so3.qconj(rows[v]), so3.qmul(g.edge_quat_array(), rows[u])))
        w = 1.0 / np.maximum(np.linalg.norm(resid, axis=1), baselines.IRLS_DELTA)
        clamped = np.flatnonzero(w == 1.0 / baselines.IRLS_DELTA)
        assert clamped.size == g.n_nodes - 1 and np.unique(w).size > g.n_nodes
        tree, _ = viewgraph.spanning_forest(g.n_nodes, u, v, w)
        assert tree.tolist() == kruskal_oracle(u, v, w, g.n_nodes) == clamped.tolist()
        _, depth = viewgraph.bfs_levels(g.n_nodes, u[tree], v[tree], root)
        assert np.all(depth >= 0)

    @settings(max_examples=150, deadline=None)
    @given(disconnected_weighted_graphs())
    def test_forest_of_disconnected_graph_matches_kruskal(self, case):
        u, v, w, n, parts = case
        tree, label = viewgraph.spanning_forest(n, u, v, w)
        assert tree.tolist() == kruskal_oracle(u, v, w, n)
        assert tree.size == n - parts == n - np.unique(label).size

    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs())
    def test_apply_matches_dense_solve(self, case):
        assert_precond_matches_dense_solve(*case)

    def test_star_on_the_ground_is_jacobi(self):
        # every free node at depth 1 below the root (node 4): no doubling
        # round, the apply is r / diag off the root
        n, root = 10, 4
        w = np.random.default_rng(1).uniform(0.1, 10.0, size=n - 1)
        others = np.delete(np.arange(n), root)
        diag, r, z = assert_precond_matches_dense_solve(others, np.full(n - 1, root), w, n, root)
        diag[root] = np.inf
        assert np.array_equal(z, r / diag)

    @pytest.mark.parametrize("ties", [False, True])
    def test_path_from_the_ground(self, ties):
        # root n-1 - 0 - 1 - ... - (n-2): depth N - 1, the deepest doubling
        n = 41
        rng = np.random.default_rng(2)
        w = np.ones(n - 1) if ties else rng.uniform(0.5, 2.0, size=n - 1)
        assert_precond_matches_dense_solve(np.arange(-1, n - 2) % n, np.arange(n - 1), w, n, n - 1)

    @pytest.mark.parametrize("n", [0, 1])  # graphs of N = 1 and N = 2 nodes
    def test_smallest_graphs(self, n):
        u, v = np.arange(n), np.full(n, n)
        assert_precond_matches_dense_solve(u, v, np.full(n, 2.5), n + 1, n)


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


def grew(exponent, phase_trace):
    """Whether an IRLS phase of weight ``exponent`` stops on its growth rule:
    an L1/2 phase (exponent 1.5) stops after a step larger than its last."""
    return exponent == 1.5 and len(phase_trace) > 1 and phase_trace[-1] > phase_trace[-2]


def irls_oracle(g, init, max_iters=(5, 20)):
    """``irls_mra`` on the loop/``ufunc.at`` normal equations, solved by
    Jacobi CG: (rows, iterations, CG iterations per inner solve)."""
    rows = viewgraph.orientation_rows(g, init)
    n = g.n_nodes
    root = viewgraph.select_root(g)
    u, v = g.endpoint_arrays()
    trace, cg_iterations = [], []
    for phase_iters, exponent in ((max_iters[0], 1.0), (max_iters[1], 1.5)):
        phase_start = len(trace)
        for _ in range(phase_iters):
            resid = log_rows(so3.qmul(so3.qconj(rows[v]), so3.qmul(g.edge_quat_array(), rows[u])))
            norms = np.linalg.norm(resid, axis=1)
            w = 1.0 / np.maximum(norms**exponent, baselines.IRLS_DELTA) if trace else np.ones_like(norms)
            op, diag, rhs = normal_equations_oracle(u, v, w, resid, n, root)
            x, its = jacobi_cg_oracle(lambda y: op(y.T).T, rhs.T, diag, 10 * n, CG_TOL)
            cg_iterations.append(its)
            step = x.T  # 0 at the root
            rows = so3.qcanon(so3.qmul(rows, so3.qexp(step)))
            trace.append(float(np.max(np.linalg.norm(step, axis=1))))
            if trace[-1] < IRLS_STEP_TOL or grew(exponent, trace[phase_start:]):
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
        res = irls_on(path, g, pipeline.bootstrap(g).orientations)
        rows, iterations, _ = irls_oracle(g, pipeline.bootstrap(g).orientations)
        assert res.iterations == iterations
        assert np.max(so3_oracle.qangle_deg(np.asarray(res.orientations), rows)) <= 1e-9

    def test_sparse_graph_needs_a_third_of_the_cg_iterations(self):
        g = make_graph(seed=13, n=120, edge_fraction=0.08, sigma=20.0, outliers=0.1)
        res = irls_on("cg", g, pipeline.bootstrap(g).orientations)
        rows, iterations, oracle_cg = irls_oracle(g, pipeline.bootstrap(g).orientations)
        assert res.iterations == iterations
        assert np.max(so3_oracle.qangle_deg(np.asarray(res.orientations), rows)) <= 1e-9
        assert 3 * sum(res.cg_iterations) <= sum(oracle_cg)


def irls_case(seed, kind=None, n=None, inner_share=None, bootstrap_init=None):
    """A connected view-graph on ``n`` nodes, ids shuffled, with 1-20 deg of
    noise per measurement and about 10 % outliers.  ``kind`` is a star on
    the root, a path, or ``"root_only"``: a hub (the root) joined to every
    node plus random edges among the share ``inner_share`` of the others, so
    that the rest touch only the root.  Bridges (the edges of those nodes,
    every edge of a star or a path) stay exactly consistent, so their
    weights clamp at ``1 / delta`` from the second step on.  The init is the
    BFS bootstrap if ``bootstrap_init``, else a perturbed ground truth.  The
    rest, and each choice left as None (kind of 3, n in 2-60, a uniform
    share, a fair coin for the init), is drawn from the numpy ``seed`` where
    it is used."""
    rng = np.random.default_rng(seed)
    kind = ("star", "path", "root_only")[rng.integers(3)] if kind is None else kind
    n = int(rng.integers(2, 61)) if n is None else n
    ids = rng.permutation(n)
    if kind == "path":
        pairs = list(zip(ids[:-1], ids[1:]))
    else:
        pairs = [(ids[0], b) for b in ids[1:]]
    if kind == "root_only":
        draws = rng.random(n - 1)
        inner_share = rng.random() if inner_share is None else inner_share
        inner = ids[1:][draws < inner_share]
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
    if bootstrap_init is None:
        bootstrap_init = rng.random() < 0.5
    if bootstrap_init:
        init = np.asarray(pipeline.bootstrap(g).orientations)
    else:
        init = so3.qcanon(so3.qmul(gt, so3.qexp(rng.normal(scale=0.2, size=(n, 3)))))
    return g, init


@st.composite
def irls_cases(draw):
    """``irls_case`` with its kind, size, inner share and init drawn by
    Hypothesis, so that it reaches n = 2 and shares 0 and 1, and shrinks."""
    kind = draw(st.sampled_from(["star", "path", "root_only"]))
    n = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    inner_share = draw(st.floats(0.0, 1.0)) if kind == "root_only" else None
    return irls_case(seed, kind, n, inner_share, draw(st.booleans()))


# The seeds of ``TestDenseSolve::test_matches_cg_path``, fixed before its first
# run: its cases move neither with the package's code nor with Hypothesis.
DENSE_SOLVE_SEEDS = range(100)


@pytest.fixture
def dense_steps(monkeypatch):
    """The dense path's steps, recorded as ``[w, resid, lap, rhs, x]``: each
    step's arguments as its solver takes them, kept when it reaches
    ``_dense_solve``."""
    steps, arguments = [], []
    step_solver, dense_solve = baselines._step_solver, baselines._dense_solve

    def recording_solver(u, v, n, root):
        solve = step_solver(u, v, n, root)

        def recording(w, resid):
            arguments[:] = [w, resid]
            return solve(w, resid)

        return recording

    def recording_solve(lap, rhs):
        x = dense_solve(lap, rhs)
        steps.append([*arguments, lap.copy(), rhs, x])
        return x

    monkeypatch.setattr(baselines, "_step_solver", recording_solver)
    monkeypatch.setattr(baselines, "_dense_solve", recording_solve)
    return steps


def assert_dense_matches_cg(seed, steps):
    """The dense and CG paths on ``irls_case(seed)``: equal iteration counts,
    each dense step's system solved by the CG path to the same step within
    1e-9 deg, the dense residual within its rounding floor, and then the
    whole runs' rows within 1e-9 deg."""
    g, init = irls_case(seed)
    steps.clear()
    direct, cg = irls_on("direct", g, init), irls_on("cg", g, init)
    assert direct.iterations == cg.iterations == len(steps), seed
    assert direct.cg_iterations == [0] * direct.iterations
    cg_solve = step_solver_on("cg", *root_index(g))
    for w, resid, lap, rhs, x in steps:
        assert np.degrees(np.max(np.abs(x - cg_solve(w, resid)[0]))) <= 1e-9, seed
    # The dense residual ends near its rounding floor eps * |L| |x_k| / |b_k|
    # per tangent component k, which passes CG_TOL where clamped weights make
    # L ill-conditioned (about 1 run in 1000 of this family, up to 1.1e-12).
    # |b_k| is floored as ``cg_residual`` floors it, for an all-zero rhs.
    _, _, lap, rhs, x = steps[-1]
    norm_b = np.maximum(np.linalg.norm(rhs, axis=1), 1e-300)
    eps = np.finfo(float).eps
    floor = eps * np.linalg.norm(lap, 2) * np.max(np.linalg.norm(x, axis=1) / norm_b)
    assert direct.cg_residual <= max(CG_TOL, floor), seed
    angles = so3_oracle.qangle_deg(np.asarray(direct.orientations), np.asarray(cg.orientations))
    assert np.max(angles) <= 1e-9, seed


def ratio_readers(paths) -> list[str]:
    """``file:function`` of every read of ``DENSE_SOLVE_RATIO``, as a name or
    an attribute, in the modules ``paths``: the innermost function around
    the read, or ``<module>``."""
    found = set()

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "id", getattr(child, "attr", None)) == "DENSE_SOLVE_RATIO":
                if isinstance(child.ctx, ast.Load):
                    found.add(f"{path.name}:{where}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if inner else where)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    return sorted(found)


class TestDenseSolve:
    def test_matches_cg_path(self, dense_steps):
        for seed in DENSE_SOLVE_SEEDS:
            assert_dense_matches_cg(seed, dense_steps)

    def test_selected_by_cost(self, monkeypatch):
        # dense exactly when (N - 1)**3 <= ratio * E; the ratio is a Fraction
        # here so that the cut is exact
        g = make_graph(seed=5, sigma=10.0, outliers=0.1)
        cut = Fraction((g.n_nodes - 1) ** 3, g.n_edges)
        monkeypatch.setattr(baselines, "DENSE_SOLVE_RATIO", cut)
        res = baselines.irls_mra(g, pipeline.bootstrap(g).orientations)
        assert res.iterations > 0 and res.cg_iterations == [0] * res.iterations
        monkeypatch.setattr(baselines, "DENSE_SOLVE_RATIO", cut - Fraction(1, g.n_edges))
        res = baselines.irls_mra(g, pipeline.bootstrap(g).orientations)
        assert res.iterations > 0 and all(k > 0 for k in res.cg_iterations)

    def test_ratio_is_read_only_in_the_step_solver(self):
        # the dense-or-CG choice is made once per solve, where its layout is built
        modules = sorted(Path(baselines.__file__).parent.glob("*.py"))
        assert ratio_readers(modules) == ["baselines.py:_step_solver"]

    def test_guard_finds_ratio_reads(self, tmp_path):
        # reads at module level, in nested functions and through the module
        # are found; assignments and the name as a string are not
        source = tmp_path / "reads.py"
        source.write_text(
            "DENSE_SOLVE_RATIO = 2.2e4\n"
            "CUT = DENSE_SOLVE_RATIO * 2\n"
            "def solver(n, e):\n"
            "    def solve():\n"
            "        return n ** 3 <= baselines.DENSE_SOLVE_RATIO * e\n"
            "    return solve\n"
            "def patch(mp):\n"
            "    mp.setattr(baselines, 'DENSE_SOLVE_RATIO', 0)\n"
            "    baselines.DENSE_SOLVE_RATIO = 1\n",
            encoding="utf-8")
        assert ratio_readers([source]) == ["reads.py:<module>", "reads.py:solve"]

    def test_singular_matrix_raises_solver_error(self):
        with pytest.raises(SolverError, match="dense solve failed"):
            baselines._dense_solve(np.zeros((3, 3)), np.ones((3, 3)))

    # N = 1 has no unknown: each phase with a budget takes one zero step, on
    # the dense path whichever path is asked for
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


def run_sum(terms):
    """A run's sum as ``np.add.reduceat`` takes it: its first term plus
    numpy's pairwise sum of the rest."""
    return np.add.reduce(terms[1:], initial=terms[0])


def irls_frozen(g, init, path, max_iters=(5, 20)):
    """``irls_mra``'s step as it stood before the fused step, on the path
    ``"direct"`` or ``"cg"``: ``so3_oracle``'s log, exp and canonicalization,
    ``np.linalg.norm``, the E gathered rows conjugated, the relative residual
    recomputed after every step, and the normal equations summed per node:
    each node's in-edges (both directions of every edge, ``+w r`` at ``v``
    and ``-w r`` at ``u``) by source, from a lexsort of (target, source),
    each run summed by ``run_sum``, and the dense matrix by one
    ``np.bincount`` over the diagonal and the off-diagonal cells.  The parts
    the fused step left alone are the package's: ``_dense_solve``,
    ``_cg_multi``, ``_tree_preconditioner`` and the CG path's ``matvec``
    from ``_step_solver``, which reads the residual component-major.  The
    system is assembled on the graph's own node ids with the root pinned: 0
    in the root's right-hand side and the identity in its row and column of
    the dense matrix.  Returns ``(rows, max_step_trace, cg_residual,
    cg_iterations)``."""
    rows = so3_oracle.qcanon(np.asarray(init, dtype=np.float64))
    u, v, n, root = root_index(g)
    dst, src = np.concatenate([v, u]), np.concatenate([u, v])
    by_target = np.lexsort((src, dst))  # by target, then by source
    inc_edge, inc_sign = by_target % u.size, np.where(by_target < u.size, 1.0, -1.0)
    runs = [np.flatnonzero(dst[by_target] == t) for t in range(n)]
    cells = np.concatenate([np.arange(n) * (n + 1), u * n + v, v * n + u])
    cg_solve = step_solver_on("cg", u, v, n, root)
    trace, cg_iterations, cg_residual = [], [], 0.0
    for phase_iters, exponent in ((max_iters[0], 1.0), (max_iters[1], 1.5)):
        phase_start = len(trace)
        for _ in range(phase_iters):
            resid = so3_oracle.qlog(so3.qmul(so3.qconj(rows[v]), so3.qmul(g.edge_quat_array(), rows[u])))
            norms = np.linalg.norm(resid, axis=1)
            w = 1.0 / np.maximum(norms**exponent, baselines.IRLS_DELTA) if trace else np.ones_like(norms)
            w_in = w[inc_edge]
            swr = ((inc_sign * w_in)[:, None] * resid[inc_edge]).T.copy()  # (3, 2E)
            diag = np.array([run_sum(w_in[run]) for run in runs])
            rhs = np.array([[run_sum(row[run]) for run in runs] for row in swr])
            rhs[:, root] = 0.0
            if path == "direct":
                lap = np.bincount(cells, np.concatenate([diag, -w, -w]), n * n).reshape(n, n)
                lap[root] = lap[:, root] = 0.0
                lap[root, root] = 1.0
                x = baselines._dense_solve(lap, rhs)
                ax, its = x @ lap, 0
            else:
                apply_op = cg_solve(w, resid.T)[3]
                precond = baselines._tree_preconditioner(u, v, w, diag, root)
                x, its = baselines._cg_multi(apply_op, rhs, precond, 10 * n, CG_TOL)
                ax = apply_op(x)
            norm_b = np.maximum(np.sqrt(np.einsum("ij,ij->i", rhs, rhs)), 1e-300)
            cg_residual = float(np.max(np.sqrt(np.sum((rhs - ax) ** 2, axis=1)) / norm_b))
            cg_iterations.append(its)
            step = x.T
            rows = so3_oracle.qcanon(so3.qmul(rows, so3_oracle.qexp(step)))
            trace.append(float(np.max(np.linalg.norm(step, axis=1))))
            if trace[-1] < IRLS_STEP_TOL or grew(exponent, trace[phase_start:]):
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
        assert_matches_frozen_step(g, pipeline.bootstrap(g).orientations, path)


def square_graph(pairs, seed):
    """A noisy view-graph on the edges ``pairs``, 10-30 deg off, and a
    perturbed ground truth as its init."""
    rng = np.random.default_rng(seed)
    u, v = np.array(pairs, dtype=np.int64).T
    n = int(v.max()) + 1
    gt = so3.sample_uniform_rows(rng, n)
    axis = rng.normal(size=(u.size, 3))
    angle = np.radians(rng.uniform(10.0, 30.0, size=u.size))
    noise = so3.qexp(axis / np.linalg.norm(axis, axis=1, keepdims=True) * angle[:, None])
    g = ViewGraph(n, u, v, so3.qcanon(so3.qmul(noise, so3.qmul(gt[v], so3.qconj(gt[u])))))
    return g, so3.qcanon(so3.qmul(gt, so3.qexp(rng.normal(scale=0.3, size=(n, 3)))))


class TestSquareLayouts:
    """With E = 3 the (E, 3) residual rows and the (3, E) component-major
    residual have one shape, and with E = 4 so do the (E, 4) and (4, E)
    quaternions: a layout slip passes every shape check, so only the bits
    show it."""

    @pytest.mark.parametrize("path", ["direct", "cg"])
    @pytest.mark.parametrize("pairs", [
        pytest.param([(0, 1), (1, 2), (0, 2)], id="triangle"),
        pytest.param([(0, 1), (1, 2), (2, 3)], id="path4"),
        pytest.param([(0, 1), (1, 2), (2, 3), (0, 3)], id="cycle4"),
        pytest.param([(0, 1), (0, 2), (1, 2), (2, 3)], id="triangle-tail"),
        pytest.param([(0, 1), (0, 2), (0, 3), (0, 4)], id="star5"),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_frozen_step(self, path, pairs, seed):
        g, init = square_graph(pairs, seed)
        assert g.n_edges in (3, 4)
        assert_matches_frozen_step(g, init, path)


class TestNoiseFreeRecovery:
    def test_cg_takes_no_iteration_from_the_ground_truth(self):
        # ground truth in the binary tetrahedral group, whose products are
        # exact: every residual, so every right-hand side, is exactly 0, and
        # CG stops before its first iteration
        group = np.concatenate([np.eye(4), -np.eye(4),
                                0.5 * np.array(list(itertools.product([-1.0, 1.0], repeat=4)))])
        for seed in range(3):
            g = make_graph(seed=seed)
            (u, v), n = g.endpoint_arrays(), g.n_nodes
            gt = group[np.random.default_rng(seed).integers(0, len(group), n)]
            g = ViewGraph(n, u, v, so3.qmul(gt[v], so3.qconj(gt[u])))
            res = irls_on("cg", g, gt)
            assert res.cg_iterations == [0, 0] and res.converged
            assert res.max_step_trace == [0.0, 0.0] and res.cg_residual == 0.0
            assert np.array_equal(np.asarray(res.orientations), so3.qcanon(gt))

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
    init = pipeline.bootstrap(g).orientations
    gauge = so3.sample_uniform_rows(np.random.default_rng(4), 1)
    moved = so3.qcanon(so3.qmul(np.asarray(init), gauge))
    a = relative_rows(g, solve(g, init).orientations)
    b = relative_rows(g, solve(g, moved).orientations)
    assert np.max(so3_oracle.qangle_deg(a, b)) < 1e-6


def angle_rad(a, b):
    """The largest angle, in radians, between matching rows of ``a`` and ``b``."""
    return float(np.radians(np.max(so3_oracle.qangle_deg(np.asarray(a), np.asarray(b)))))


def conjugated(rows, h):
    """``h * rows * h^-1``: rows seen from a camera frame turned by ``h``."""
    return so3.qcanon(so3.qmul(h, so3.qmul(rows, so3.qconj(h))))


SOLVERS = {
    "irls": lambda g, init: irls_on("direct", g, init).orientations,
    "irls-cg": lambda g, init: irls_on("cg", g, init).orientations,
    "weiszfeld": lambda g, init: baselines.weiszfeld_mra(g, init, sweeps=3).orientations,
}


class TestGauge:
    """The root is pinned, never updated, so the gauge of the init is the
    gauge of the output.  Both solvers act on the right of the rows; a right
    gauge G of the init gives the output times G.  A common change of
    camera frame H conjugates every measurement and every row, and keeps
    the root's identity: the bootstrap and both solvers then give H x H^-1."""

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_right_gauge_of_the_init_moves_the_output(self, solver, seed):
        g = make_graph(seed=40 + seed, sigma=8.0, outliers=0.1)
        init = np.asarray(pipeline.bootstrap(g).orientations)
        gauge = so3.sample_uniform_rows(np.random.default_rng(seed), 1)
        want = so3.qmul(np.asarray(SOLVERS[solver](g, init)), gauge)
        got = SOLVERS[solver](g, so3.qcanon(so3.qmul(init, gauge)))
        assert angle_rad(got, want) <= 1e-9

    @pytest.mark.parametrize("solver", ["bootstrap", *SOLVERS])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_common_frame_conjugates_the_output(self, solver, seed):
        g = make_graph(seed=50 + seed, sigma=8.0, outliers=0.1)
        h = so3.sample_uniform_rows(np.random.default_rng(seed), 1)
        turned = ViewGraph(g.n_nodes, *g.endpoint_arrays(), conjugated(g.edge_quat_array(), h))
        init = np.asarray(pipeline.bootstrap(g).orientations)
        if solver == "bootstrap":
            want, got = conjugated(init, h), pipeline.bootstrap(turned).orientations
        else:
            want = conjugated(np.asarray(SOLVERS[solver](g, init)), h)
            got = SOLVERS[solver](turned, conjugated(init, h))
        assert angle_rad(got, want) <= 1e-9


class TestIrlsReport:
    def test_cg_residual_and_iterations(self):
        g = make_graph(seed=5, sigma=10.0, outliers=0.1)
        res = irls_on("cg", g, pipeline.bootstrap(g).orientations)
        assert res.cg_residual <= CG_TOL
        assert len(res.cg_iterations) == res.iterations == len(res.max_step_trace)
        assert all(0 < k < 10 * g.n_nodes for k in res.cg_iterations)

    # the seed-2 graph needs 25 iterations to converge
    @pytest.mark.parametrize("max_iters, converged",
                             [((5, 50), True), ((1, 1), False), ((0, 0), False)])
    def test_converged_matches_step_trace(self, max_iters, converged):
        g = make_graph(seed=2, sigma=10.0, outliers=0.1)
        res = baselines.irls_mra(g, pipeline.bootstrap(g).orientations, max_iters=max_iters)
        assert res.converged == (bool(res.max_step_trace) and res.max_step_trace[-1] < IRLS_STEP_TOL)
        assert res.converged == converged

    @pytest.mark.parametrize("path", ["direct", "cg"])
    def test_l_half_phase_ends_on_its_first_growing_step(self, path):
        # the seed-6 graph's L1/2 steps grow at its second, long before
        # its budget of 50 or its tolerance
        g = make_graph(seed=6, sigma=10.0, outliers=0.1)
        res = irls_on(path, g, pipeline.bootstrap(g).orientations, max_iters=(5, 50))
        trace = res.max_step_trace
        assert res.iterations == len(trace) < 5 + 50 and not res.converged
        assert trace[-1] > trace[-2] and min(trace) >= IRLS_STEP_TOL
        assert all(b <= a for a, b in zip(trace[5:-2], trace[6:-1]))
        # the growing step is applied: the run is the one capped just after it
        capped = irls_on(path, g, pipeline.bootstrap(g).orientations,
                         max_iters=(5, res.iterations - 5))
        assert capped.max_step_trace == trace
        assert np.asarray(capped.orientations).tobytes() == np.asarray(res.orientations).tobytes()


@pytest.mark.parametrize("solver", [baselines.irls_mra, baselines.weiszfeld_mra])
def test_disconnected_graph_rejected(solver):
    q = so3_oracle.yaw_deg(10.0)
    g = edge_graph(4, [Edge(0, 1, q), Edge(2, 3, q)])
    with pytest.raises(ViewGraphError, match="connected"):
        solver(g, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))


def test_weiszfeld_objective_never_increases():
    # a mixed graph, and the benchmark's dense shape at seeds 2-4: degree
    # about 98, every medoid past the reference cap
    mixed = synthgen.SynthConfig(n_cameras=(60, 150), seed=2)
    dense = [synthgen.SynthConfig(n_cameras=(150, 150), edge_fraction=(0.66, 0.66),
                                  sigma_deg=(1.0, 15.0), outlier_fraction=(0.1, 0.1), seed=seed)
             for seed in (2, 3, 4)]
    for cfg in [mixed, *dense]:
        g = synthgen.generate_graph(cfg, np.random.default_rng(cfg.seed))
        degree = np.diff(viewgraph.in_edges(g.n_nodes, *g.endpoint_arrays())[2])
        assert cfg is mixed or degree.min() > so3.MEDOID_REFERENCES
        trace = baselines.weiszfeld_mra(g, pipeline.bootstrap(g).orientations,
                                        sweeps=5).objective_trace
        assert len(trace) == 6
        assert all(b <= a for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# Weiszfeld: the per-node sweep as the oracle of the colour schedule
# ---------------------------------------------------------------------------

def incoming_candidates(g, rows, node):
    """``q_uv * rows[u]`` over the edges at ``node`` in ``viewgraph.in_edges``
    order: by the neighbour ``u``, the edges stored into ``node`` with their
    measurements and those stored out of it with theirs inverted.  On edges
    sorted by ``(u, v)`` that is edge order."""
    u, v = g.endpoint_arrays()
    q = g.edge_quat_array()
    into, out = np.flatnonzero(v == node), np.flatnonzero(u == node)
    cands = np.concatenate([so3.qmul(q[into], rows[u[into]]),
                            so3.qmul(so3.qconj(q[out]), rows[v[out]])])
    return cands[np.argsort(np.concatenate([u[into], v[out]]))]


def neighbours(g, node):
    u, v = g.endpoint_arrays()
    return set(v[u == node].tolist()) | set(u[v == node].tolist())


def first_fit_colours(g, root):
    """Each non-root node, in ascending id order, takes the smallest colour
    none of its smaller-id non-root neighbours has; -1 at the root."""
    colour = [-1] * g.n_nodes
    for node in range(g.n_nodes):
        if node != root:
            taken = {colour[m] for m in neighbours(g, node) if m < node and m != root}
            colour[node] = min(set(range(len(taken) + 1)) - taken)
    return colour


def by_target(g):
    """The plan's by-target layout ``(src, q_in, bounds)``: node ``v``'s
    incoming sources and measurements are ``[bounds[v], bounds[v + 1])``,
    over both directions of every edge in ``viewgraph.in_edges`` order."""
    (u, v), q = g.endpoint_arrays(), g.edge_quat_array()
    order, src, bounds = viewgraph.in_edges(g.n_nodes, u, v)
    return src, np.concatenate([q, so3.qconj(q)])[order], bounds


def colours_of(g, root):
    """``_weiszfeld_colours`` read from ``g``'s by-target layout."""
    src, _, bounds = by_target(g)
    return baselines._weiszfeld_colours(src, bounds, root)


def id_level_count(g, root):
    """Levels of the ascending-id sweep: ``level(v) = 1 + max level(u)`` over
    the non-root neighbours ``u < v``, or 0 without one."""
    level = [-1] * g.n_nodes
    for node in range(g.n_nodes):
        if node != root:
            level[node] = 1 + max((level[m] for m in neighbours(g, node) if m < node and m != root),
                                  default=-1)
    return max(level) + 1


def weiszfeld_oracle(g, init, sweeps, median_iters):
    """Gauss-Seidel sweeps one node at a time, by first-fit colour and then
    by id; the rows, the objective trace and the smallest medoid margin of
    any step."""
    rows = viewgraph.orientation_rows(g, init)
    root = viewgraph.select_root(g)
    u, v = g.endpoint_arrays()
    colour = first_fit_colours(g, root)
    order = sorted((c, node) for node, c in enumerate(colour) if node != root)

    def objective():
        rel = so3.qmul(rows[v], so3.qconj(rows[u]))
        return float(np.sum(so3_oracle.qangle_deg(rel, g.edge_quat_array())))

    trace = [objective()]
    margin = math.inf
    for _ in range(sweeps):
        for _, node in order:
            rows[node], node_margin = so3_oracle.l1_median(incoming_candidates(g, rows, node),
                                                    median_iters)
            margin = min(margin, node_margin)
        trace.append(objective())
    return so3.qcanon(rows), trace, margin


@st.composite
def weiszfeld_cases(draw):
    """A random connected graph (path, star or near-complete, ids shuffled),
    measurements with 1-30 deg of noise each, a perturbed init, a budget; or
    an ``exact`` sparse graph, noise-free, perturbed at about a third of its
    nodes and at least one."""
    kind = draw(st.sampled_from(["path", "star", "near_complete", "exact"]))
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(n)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(ids[:-1], ids[1:])}
    if kind == "star":
        pairs = {(min(ids[0], b), max(ids[0], b)) for b in ids[1:]}
    elif kind == "near_complete":
        pairs |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.8}
    elif kind == "exact":
        pairs |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3}
    u, v = np.array(sorted(pairs)).T
    order = rng.permutation(u.size)  # edge order sets the candidate order
    u, v = u[order], v[order]
    gt = so3.sample_uniform_rows(rng, n)
    axis = rng.normal(size=(u.size, 3))
    angle = np.radians(rng.uniform(1.0, 30.0, size=u.size))
    noise = so3.qexp(axis / np.linalg.norm(axis, axis=1, keepdims=True) * angle[:, None])
    perturb = rng.normal(scale=0.2, size=(n, 3))
    if kind == "exact":
        # noise-free, with the init exact at about two thirds of the nodes: a
        # node whose candidates all agree stops on its first step.  One node
        # stays perturbed, so that the objective starts above 0.
        noise = np.tile([1.0, 0.0, 0.0, 0.0], (u.size, 1))
        exact = rng.random(n) < 2 / 3
        exact[rng.integers(n)] = False
        perturb[exact] = 0.0
    q = so3.qmul(noise, so3.qmul(gt[v], so3.qconj(gt[u])))
    init = so3.qmul(gt, so3.qexp(perturb))
    g = ViewGraph(n, u, v, so3.qcanon(q))
    return g, so3.qcanon(init), draw(st.integers(0, 3)), draw(st.integers(0, 10))


class TestWeiszfeldLevelSchedule:
    """The sweep's schedule: first-fit colour classes, one batch each, run
    in colour order; the per-node sweep in (colour, id) order is its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(weiszfeld_cases())
    def test_matches_per_node_sweep(self, case):
        g, init, sweeps, median_iters = case
        # hypothesis runs every example inside one call, so the constant is
        # patched per example rather than through a fixture
        with mock.patch.object(baselines, "WEISZFELD_MEDIAN_ITERS", median_iters):
            res = baselines.weiszfeld_mra(g, init, sweeps=sweeps)
        rows, trace, margin = weiszfeld_oracle(g, init, sweeps, median_iters)
        # two distinct medoids that tie within rounding: the sweep and the
        # oracle may each pick one, and the medians need not meet
        assume(margin > 1.0)
        assert np.max(np.abs(np.asarray(res.orientations) - rows)) <= ROW_TOL
        assert len(res.objective_trace) == len(trace) == sweeps + 1
        # a noise-free graph at an exact init has a trace of 0: a 1e-12 degree floor
        assert (np.max(np.abs(np.subtract(res.objective_trace, trace)))
                <= max(1e-12 * max(trace), 1e-12))

    @settings(max_examples=100, deadline=None)
    @given(weiszfeld_cases())
    def test_colours_are_first_fit_independent_sets(self, case):
        g = case[0]
        root = viewgraph.select_root(g)
        colour = colours_of(g, root)
        assert colour.tolist() == first_fit_colours(g, root)
        u, v = g.endpoint_arrays()
        inner = (u != root) & (v != root)
        assert colour[root] == -1 and np.all(np.delete(colour, root) >= 0)
        # no edge joins two nodes of one class
        assert np.all(colour[u[inner]] != colour[v[inner]])
        # each colour is the smallest the smaller-id neighbours leave free
        for node in np.delete(np.arange(g.n_nodes), root):
            taken = set(colour[u[inner & (v == node)]].tolist())
            assert colour[node] not in taken and set(range(colour[node])) <= taken
        plan = baselines._weiszfeld_plan(g, root)
        nodes = np.concatenate([p[0] for p in plan]) if plan else np.zeros(0, dtype=np.int64)
        assert np.array_equal(np.sort(nodes), np.delete(np.arange(g.n_nodes), root))
        # each batch is one colour, and the batches run in colour order
        batch_colour = [colour[members] for members, *_ in plan]
        assert all(np.all(c == c[0]) for c in batch_colour)
        assert np.all(np.diff([c[0] for c in batch_colour]) >= 0)
        # the same graph with its edges in reverse order, each given v -> u,
        # rooted at every node: still the first-fit colours
        flipped = ViewGraph(g.n_nodes, v[::-1], u[::-1], so3.qconj(g.edge_quat_array())[::-1])
        for other in range(g.n_nodes):
            assert colours_of(flipped, other).tolist() == first_fit_colours(flipped, other)

    def test_colours_cut_to_the_medoid_budget_match_sweep(self, monkeypatch):
        monkeypatch.setattr(so3, "MEDOID_CELLS", 200)
        g = make_graph(seed=8, n=30, sigma=10.0, outliers=0.1)
        root = viewgraph.select_root(g)
        plan = baselines._weiszfeld_plan(g, root)
        assert len(plan) > colours_of(g, root).max() + 1
        assert all(len(nodes) == 1 or valid.size * valid.shape[1] <= 200
                   for nodes, _, _, valid in plan)
        rng = np.random.default_rng(8)
        init = so3.qcanon(so3.qmul(g.gt_array(), so3.qexp(rng.normal(scale=0.2, size=(30, 3)))))
        res = baselines.weiszfeld_mra(g, init, sweeps=2)
        rows, trace, _ = weiszfeld_oracle(g, init, 2, baselines.WEISZFELD_MEDIAN_ITERS)
        assert np.max(np.abs(np.asarray(res.orientations) - rows)) <= 1e-10
        assert np.max(np.abs(np.subtract(res.objective_trace, trace))) <= 1e-12 * max(trace)

    def test_sets_past_the_reference_cap_match_sweep(self):
        # degree about 80: every median starts at its sample's medoid
        g = make_graph(seed=5, n=90, edge_fraction=0.9, sigma=10.0, outliers=0.1)
        degree = np.diff(viewgraph.in_edges(g.n_nodes, *g.endpoint_arrays())[2])
        assert degree.min() > so3.MEDOID_REFERENCES
        rng = np.random.default_rng(5)
        init = so3.qcanon(so3.qmul(g.gt_array(), so3.qexp(rng.normal(scale=0.2, size=(90, 3)))))
        res = baselines.weiszfeld_mra(g, init, sweeps=2)
        rows, trace, margin = weiszfeld_oracle(g, init, 2, baselines.WEISZFELD_MEDIAN_ITERS)
        assert margin > 1.0
        assert np.max(np.abs(np.asarray(res.orientations) - rows)) <= ROW_TOL
        assert np.max(np.abs(np.subtract(res.objective_trace, trace))) <= 1e-12 * max(trace)

    def test_colour_counts_of_path_and_star(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (7, 1))
        path = ViewGraph(8, np.arange(7), np.arange(1, 8), q)
        assert np.array_equal(colours_of(path, 0), [-1, 0, 1, 0, 1, 0, 1, 0])
        # two batches, where the ascending-id order takes N - 1 = 7 levels
        assert len(baselines._weiszfeld_plan(path, 0)) == 2
        star = ViewGraph(8, np.full(7, 3), np.delete(np.arange(8), 3), q)
        assert viewgraph.select_root(star) == 3
        assert np.array_equal(colours_of(star, 3), [0, 0, 0, -1, 0, 0, 0, 0])

    def test_degree_two_medoid_is_the_first_candidate(self, monkeypatch):
        # a triangle rooted at 0: node 1 sees edge (0, 1) before edge (1, 2)
        monkeypatch.setattr(baselines, "WEISZFELD_MEDIAN_ITERS", 0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = so3.sample_uniform_rows(rng, 3)
            q = so3.sample_uniform_rows(rng, 3)
            g = ViewGraph(3, np.array([0, 1, 0]), np.array([1, 2, 2]), q)
            out = baselines.weiszfeld_mra(g, rows, sweeps=1).orientations
            first = so3.qmul(q[0], viewgraph.orientation_rows(g, rows)[0])
            assert so3_oracle.qangle_deg(np.asarray(out)[1], first) < 1e-9


class TestWeiszfeldMedians:
    """Weiszfeld's node update, ``so3.l1_medians`` on padded batches, against
    the scalar one-set median ``so3_oracle.l1_median``."""

    @pytest.mark.parametrize("degrees", [[1], [1, 1, 1], [2], [2, 1, 2], [3, 7, 1, 5], [8, 8],
                                         [9, 4, 6, 2, 9]])
    @pytest.mark.parametrize("iters", [0, 1, 10])
    def test_matches_one_node_median(self, degrees, iters):
        rng = np.random.default_rng(len(degrees) * 10 + iters)
        cands, valid = so3_oracle.padded_candidates(rng, degrees, [0.0] * len(degrees))
        out = so3.l1_medians(cands, valid, iters)
        for i, k in enumerate(degrees):
            assert np.max(np.abs(out[i] - so3_oracle.l1_median(cands[i, :k], iters)[0])) <= ROW_TOL

    @pytest.mark.parametrize("degrees", [[65, 129], [66, 100, 150], [200, 200]])
    @pytest.mark.parametrize("iters", [0, 1, 10])
    def test_matches_one_node_median_past_the_reference_cap(self, degrees, iters):
        # more than MEDOID_REFERENCES candidates: the medoid is the one of
        # the set's first 32, scored among themselves.  The candidates past
        # the 32nd are turned 1 rad away, so where they outnumber the first
        # 32 the full score would start the median in their cluster instead.
        rng = np.random.default_rng(sum(degrees) + iters)
        cands, valid = so3_oracle.padded_candidates(rng, degrees, [0.0] * len(degrees))
        turn = so3.qexp(np.array([[1.0, 0.0, 0.0]]))
        late = np.arange(cands.shape[1]) >= so3.MEDOID_REFERENCES
        cands[:, late] = so3.qcanon(so3.qmul(turn, cands[:, late]))
        cands = np.where(valid[:, :, None], cands, cands[:, :1])  # padding: the first again
        out = so3.l1_medians(cands, valid, iters)
        for i, k in enumerate(degrees):
            want, margin = so3_oracle.l1_median(cands[i, :k], iters)
            assert margin > 1.0
            assert np.max(np.abs(out[i] - want)) <= ROW_TOL

    @pytest.mark.parametrize("degrees", [[4, 6, 3], [1, 5], [2, 4]])
    def test_a_node_that_stops_stays_while_the_others_move(self, degrees):
        # node 0's candidates are one rotation: its first step is exactly 0,
        # and its row stays bit for bit.  Every other node moves, unless its
        # medoid is already its L1 median: then the oracle's first step is 0.
        movers = 0
        for seed in range(8):
            cands, valid = so3_oracle.padded_candidates(np.random.default_rng(seed), degrees,
                                                        [0.0] * len(degrees))
            cands[0] = cands[0, 0]
            medoids = so3.l1_medians(cands, valid, 0)
            out = so3.l1_medians(cands, valid, 10)
            assert np.array_equal(out[0], cands[0, 0])
            for i, k in enumerate(degrees[1:], start=1):
                if not np.array_equal(so3_oracle.l1_median(cands[i, :k], 1)[0], medoids[i]):
                    assert np.max(np.abs(out[i] - medoids[i])) > 1e-9
                    movers += 1
            for i, k in enumerate(degrees):
                assert np.max(np.abs(out[i] - so3_oracle.l1_median(cands[i, :k], 10)[0])) <= ROW_TOL
        assert movers >= 4


@st.composite
def median_batches(draw):
    """A padded batch of 1-4 candidate sets of 1-14 rotations, each scattered
    0.01-1.2 rad about its own centre, with up to a third of them uniform
    outliers and, in some sets, repeats of its first candidate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degrees = draw(st.lists(st.integers(1, 14), min_size=1, max_size=4))
    repeats = [draw(st.sampled_from([0.0, 0.3])) for _ in degrees]
    return so3_oracle.padded_candidates(rng, degrees, repeats)


def half_angle_sums(cands, valid, medians):
    """Each node's summed half-angles from its valid candidates to its median."""
    half = 0.5 * np.radians(so3_oracle.qangle_deg(cands, medians[:, None]))
    return np.sum(np.where(valid, half, 0.0), axis=1)


class TestVardiZhangStep:
    """The median step off a candidate: coincident candidates leave the
    tangent mean and the others' step shrinks by ``max(0, 1 - eta / r)``."""

    def test_three_candidates_step_off_their_medoid(self):
        # three rotations about 20 deg apart, symmetric about their centre:
        # a step from the medoid that counted it at the floor weight would
        # move it by about 2e-6 rad; the Vardi-Zhang step moves it 0.13 rad
        axes = np.array([[np.cos(a), np.sin(a), 0.0] for a in 2 * np.pi * np.arange(3) / 3])
        center = so3.sample_uniform_rows(np.random.default_rng(3), 1)
        cands = so3.qcanon(so3.qmul(so3.qexp(np.radians(20.0) / np.sqrt(3.0) * axes), center))
        pairwise = so3_oracle.qangle_deg(cands, cands[[1, 2, 0]])
        assert np.all(np.abs(pairwise - 20.0) < 0.1)
        valid = np.ones((1, 3), dtype=bool)
        medoid = so3.l1_medians(cands[None], valid, 0)[0]
        first = so3.l1_medians(cands[None], valid, 1)[0]
        assert np.radians(so3_oracle.qangle_deg(medoid, first)) > 1e-3
        assert np.max(np.abs(first - so3_oracle.l1_median(cands, 1)[0])) <= ROW_TOL

    @settings(max_examples=150, deadline=None)
    @given(median_batches())
    def test_summed_half_angles_never_increase(self, batch):
        cands, valid = batch
        sums = [half_angle_sums(cands, valid, so3.l1_medians(cands, valid, k))
                for k in range(7)]
        for before, after in zip(sums, sums[1:]):
            # rounding of the sums themselves, 1e-13 of the first
            assert np.all(after <= before + 1e-13 * sums[0])

    @pytest.mark.parametrize("case", ["two", "one_rotation"])
    def test_optimal_medoid_stays_bit_for_bit(self, case):
        # two candidates: every point between them is a median, and the first
        # one, the medoid, has r = eta = 1.  One rotation three times: every
        # candidate coincides, the weight sum is 0 and the step exactly 0.
        rng = np.random.default_rng(5)
        cands = so3.qcanon(so3.qmul(so3.qexp(rng.normal(scale=0.5, size=(2, 3))),
                                    so3.sample_uniform_rows(rng, 1)))
        if case == "one_rotation":
            cands = np.repeat(cands[:1], 3, axis=0)
        valid = np.ones((1, len(cands)), dtype=bool)
        with np.errstate(divide="raise", invalid="raise"):
            out = so3.l1_medians(cands[None], valid, baselines.WEISZFELD_MEDIAN_ITERS)
        assert np.all(np.isfinite(out)) and np.array_equal(out[0], cands[0])


class TestWeiszfeldPlan:
    @pytest.mark.parametrize("cells", [so3.MEDOID_CELLS, 200])
    @pytest.mark.parametrize("sweeps", [0, 1, 3])
    def test_sweep_calls_qmul_only_for_the_objective(self, monkeypatch, cells, sweeps):
        # candidates come from the plan's matrices, whatever the batch count;
        # the product body counts ``qmul`` and the objective's ``discrepancy``
        monkeypatch.setattr(so3, "MEDOID_CELLS", cells)
        g = make_graph(seed=8, n=30, sigma=10.0, outliers=0.1)
        assert len(baselines._weiszfeld_plan(g, viewgraph.select_root(g))) > 1
        init = pipeline.bootstrap(g).orientations
        with mock.patch.object(so3, "qmul_parts", wraps=so3.qmul_parts) as qmul:
            baselines._consistency_objective(g, np.asarray(init))
            per_objective = qmul.call_count
            qmul.reset_mock()
            baselines.weiszfeld_mra(g, init, sweeps=sweeps)
        assert per_objective > 0 and qmul.call_count == (sweeps + 1) * per_objective

    @settings(max_examples=50, deadline=None)
    @given(weiszfeld_cases())
    def test_candidate_matrices_match_qmul(self, case):
        g, init, _, _ = case
        rows = viewgraph.orientation_rows(g, init)
        for nodes, src, q_in, valid in baselines._weiszfeld_plan(g, viewgraph.select_root(g)):
            cands = baselines._candidates(q_in, rows[src])
            for i, node in enumerate(nodes):
                want = incoming_candidates(g, rows, node)
                assert np.max(np.abs(cands[i, valid[i]] - want)) <= 1e-15
                assert np.all(cands[i, ~valid[i]] == cands[i, 0])

    @settings(max_examples=50, deadline=None)
    @given(weiszfeld_cases())
    def test_gathers_match_fancy_indexing(self, case):
        # the plan gathers with ``take``; fancy indexing gives the same bits
        g = case[0]
        src, q_in, bounds = by_target(g)
        for nodes, b_src, b_q, valid in baselines._weiszfeld_plan(g, viewgraph.select_root(g)):
            idx = bounds[nodes, None] + np.where(valid, np.arange(valid.shape[1]), 0)
            for got, want in ((b_src, src[idx]), (b_q, q_in[idx])):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_batches_are_the_colours_and_a_third_of_the_id_levels(self):
        # a graph of the benchmark's sparse shape: N = 250 and 10 % of pairs
        g = make_graph(seed=3, n=250, edge_fraction=0.1, sigma=10.0, outliers=0.1)
        root = viewgraph.select_root(g)
        colours = max(first_fit_colours(g, root)) + 1
        assert len(baselines._weiszfeld_plan(g, root)) == colours
        assert 3 * colours <= id_level_count(g, root)


@pytest.mark.parametrize(
    "solve, name",
    [
        (lambda g, init: baselines.weiszfeld_mra(g, init, sweeps=-1), "sweeps"),
        (lambda g, init: baselines.irls_mra(g, init, max_iters=(-1, 0)), "max_iters"),
        (lambda g, init: baselines.irls_mra(g, init, max_iters=(0, -1)), "max_iters"),
        pytest.param(lambda g, init: baselines.weiszfeld_mra(g, init, sweeps=2.5), "sweeps",
                     id="sweeps-non-integer"),
        pytest.param(lambda g, init: baselines.irls_mra(g, init, max_iters=(5,)), "max_iters",
                     id="max_iters-one-phase"),
        pytest.param(lambda g, init: baselines.irls_mra(g, init, max_iters=(5, 20, 7)), "max_iters",
                     id="max_iters-three-phases"),
        pytest.param(lambda g, init: baselines.irls_mra(g, init, max_iters=(2.5, 1)), "max_iters",
                     id="max_iters-non-integer"),
        # a bool would otherwise count as the integer 1
        pytest.param(lambda g, init: baselines.weiszfeld_mra(g, init, sweeps=True), "sweeps",
                     id="sweeps-bool"),
        pytest.param(lambda g, init: baselines.irls_mra(g, init, max_iters=(5, True)), "max_iters",
                     id="max_iters-bool"),
    ],
)
def test_negative_budget_rejected(solve, name):
    g = make_graph(seed=0, n=10)
    with pytest.raises(ValueError, match=name):
        solve(g, pipeline.bootstrap(g).orientations)
