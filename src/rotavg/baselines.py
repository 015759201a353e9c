"""Classical robust rotation-averaging solvers: the graph schedules of two
baselines operating on the same view-graph inputs as the networks.

* ``weiszfeld_mra`` -- Gauss-Seidel sweeps where each camera is replaced by
  the L1 median (``so3.l1_medians``) of the candidates proposed by its
  neighbors.  A sweep runs colour by colour: a first-fit colouring in id
  order splits the nodes into classes of mutually non-adjacent nodes, and
  each class takes one batched median, exactly the sequential sweep in
  (colour, id) order.  The plan keeps each batch's incoming measurements,
  so a batch's candidates are one row gather, one matmul to
  left-multiplication matrices and one stacked product.
* ``irls_mra`` -- iteratively reweighted least squares in the rotation
  tangent space, an L1 phase followed by an L1/2 phase, each inner step one
  solve of the weighted graph Laplacian with the root's row pinned.  One
  step solver (``_step_solver``) lays the normal equations out once per
  solve on ``viewgraph.in_edges``, sums them per node over its in-edges and
  takes the path chosen once per solve: one dense LAPACK solve while
  ``(N - 1)**3 <= DENSE_SOLVE_RATIO * E``, above it CG preconditioned by a
  maximum-weight spanning tree (``viewgraph.spanning_forest`` of each
  iteration's weights).

Every per-node sum runs over ``in_edges``' (target, source) order, and every
sum over edges, as Weiszfeld's objective, over the graph's (u, v) order.

Both pin the gauge at the root camera, which they never update, take (N, 4)
initial rows and return a read-only ``so3.Orientations`` view of rows (its
items are left only for the benchmark adapter).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from . import so3, viewgraph
from .viewgraph import ViewGraph, ViewGraphError

WEISZFELD_MEDIAN_ITERS = 4  # Vardi-Zhang steps of each median, after its medoid
IRLS_DELTA = 1e-5        # residual floor in the IRLS weights
IRLS_STEP_TOL = 1e-3     # radians; stop when the largest update is below
CG_TOL = 1e-12           # relative residual target of the inner CG solve
# IRLS takes a dense solve when (N - 1)**3 <= DENSE_SOLVE_RATIO * E: the LU's
# cubic cost against CG's per-edge work over its iterations, cut between the
# measured sides (dense faster at ratio 2.0e4, CG at 2.4e4; see ``irls_mra``).
DENSE_SOLVE_RATIO = 2.2e4


class SolverError(RuntimeError):
    """Numerical failure inside a solver (CG non-convergence etc.)."""


# ---------------------------------------------------------------------------
# Weiszfeld
# ---------------------------------------------------------------------------

# ``(q @ _LEFT).reshape(4, 4)`` is the L with ``L @ r = q * r`` (``so3.qmul`` of the basis rows)
_LEFT = so3.qmul(np.eye(4)[:, None], np.eye(4)).transpose(0, 2, 1).reshape(4, 16)


@dataclass
class WeiszfeldResult:
    orientations: so3.Orientations
    objective_trace: list[float] = field(default_factory=list)


def _consistency_objective(g: ViewGraph, rows: np.ndarray) -> float:
    """The summed angle, in degrees, of the edge residuals of ``rows``."""
    return float(np.sum(so3.angle_deg(viewgraph.discrepancy(g, rows))))


def _weiszfeld_colours(src: np.ndarray, bounds: np.ndarray, root: int) -> np.ndarray:
    """First-fit colour of every node, -1 at the root, from the plan's
    by-target layout: node ``v``'s neighbours are ``src[bounds[v]:bounds[v + 1]]``.

    In ascending id order, each non-root node takes the smallest colour
    missing from the set of its neighbours' colours, of which only its
    smaller-id non-root ones are not yet -1: one pass over Python lists.
    """
    near, bounds = src.tolist(), bounds.tolist()
    colour = [-1] * (len(bounds) - 1)
    for node in range(len(colour)):
        if node != root:
            taken = {colour[m] for m in near[bounds[node]:bounds[node + 1]]}
            first = 0
            while first in taken:
                first += 1
            colour[node] = first
    return np.array(colour, dtype=np.int64)


def _weiszfeld_plan(g: ViewGraph, root: int) -> list[tuple[np.ndarray, ...]]:
    """Batches of the colour schedule, in colour order: ``(nodes, src, q_in,
    valid)``, the nodes of one colour and their incoming candidates padded
    to the batch's maximum degree.

    Candidate ``j`` of node ``v`` is ``q_in[v, j] * rows[src[v, j]]``, over
    both directions of every edge in ``viewgraph.in_edges`` order, by source
    (``q_in`` the measurement or its conjugate); ``q_in`` is (n, D, 4) and
    ``_candidates`` turns it into left-multiplication matrices when the
    sweep reads the batch.  ``so3.padded_runs`` cuts each colour's nodes, by
    ascending degree, into batches padded by repeats of the first candidate,
    masked by ``valid``.
    """
    (u, v), q = g.endpoint_arrays(), g.edge_quat_array()
    by_target, src, bounds = viewgraph.in_edges(g.n_nodes, u, v)
    q_in = np.concatenate([q, so3.qconj(q)]).take(by_target, axis=0)
    degree = np.diff(bounds)
    colour = _weiszfeld_colours(src, bounds, root)
    order = np.argsort(colour * g.n_nodes + degree, kind="stable")  # by colour, then by degree < N
    cuts = np.searchsorted(colour[order], np.arange(colour.max() + 2))
    plan = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        nodes = order[lo:hi]
        for run, idx, valid in so3.padded_runs(bounds[nodes], degree[nodes]):
            plan.append((nodes[run], src.take(idx), q_in.take(idx, axis=0), valid))
    return plan


def _candidates(q_in: np.ndarray, src_rows: np.ndarray) -> np.ndarray:
    """``q_in * src_rows`` over (n, D, 4) rows: one matmul gives the
    left-multiplication matrix of each ``q_in`` row, one stacked product
    applies it."""
    left = (q_in @ _LEFT).reshape(*q_in.shape, 4)
    return np.einsum("ndij,ndj->ndi", left, src_rows)


def _budget(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is a
    non-negative integer."""
    try:
        k = viewgraph.as_index(value)
    except TypeError:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}") from None
    if k < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return k


def weiszfeld_mra(
    g: ViewGraph,
    init: ArrayLike,
    sweeps: int = 50,
) -> WeiszfeldResult:
    """L1 averaging sweeps; one sweep updates every non-root node once, in
    place (Gauss-Seidel), in multicolour order: by first-fit colour, then by
    id (``_weiszfeld_colours``).

    A colour class is an independent set, so updating a whole class at
    once reads exactly the rows the sequential sweep in (colour, id) order
    reads: the rows of lower colours from this sweep, of higher colours
    from the last.  Each class takes one batched median (more only past
    ``so3.padded_runs``' budget).  The node order is that of a multicolour
    SOR sweep; the averaging step itself is ``so3.l1_medians`` of each
    node's candidates: its medoid, then ``WEISZFELD_MEDIAN_ITERS`` Weiszfeld
    steps in the Vardi-Zhang form, which leave the medoid at full length.
    The medoid is the one of each node's first ``so3.MEDOID_REFERENCES``
    candidates, scored among themselves.
    """
    sweeps = _budget("sweeps", sweeps)
    if not viewgraph.is_connected(g):
        raise ViewGraphError("solver requires a connected graph")
    rows = viewgraph.orientation_rows(g, init)
    plan = _weiszfeld_plan(g, viewgraph.select_root(g))
    trace = [_consistency_objective(g, rows)]
    for _ in range(sweeps):
        for nodes, src, q_in, valid in plan:
            cands = _candidates(q_in, rows.take(src, axis=0))
            rows[nodes] = so3.l1_medians(cands, valid, WEISZFELD_MEDIAN_ITERS)
        trace.append(_consistency_objective(g, rows))
    return WeiszfeldResult(orientations=so3.Orientations(so3.qcanon(rows)), objective_trace=trace)


# ---------------------------------------------------------------------------
# IRLS
# ---------------------------------------------------------------------------

@dataclass
class IrlsResult:
    orientations: so3.Orientations
    iterations: int
    max_step_trace: list[float] = field(default_factory=list)
    # max over the three tangent components of |b - L x| / |b| of the last
    # step, computed once after the loop: no bound, since rounding can leave
    # it above CG_TOL on either path (CG stops on its recurrence residual)
    cg_residual: float = 0.0
    converged: bool = False  # the last step was below IRLS_STEP_TOL: no cap or growth stop
    # one per inner solve: CG iterations, 0 for a dense solve or a zero right-hand side
    cg_iterations: list[int] = field(default_factory=list)


def _tree_preconditioner(u: np.ndarray, v: np.ndarray, w: np.ndarray, diag: np.ndarray, root: int):
    """``precond(r)``: the exact inverse of ``M = diag(diag) - A_T`` on (3, n)
    arrays, where ``T`` is the maximum-weight spanning tree of the edges
    ``(u, v)`` with weights ``w``, grounded at ``root``: its pivot is
    infinite, so ``precond`` is 0 in the root's row, whatever ``r`` holds.

    Eliminated children before parents, ``M = (I - N) P (I - N)^T`` with no
    fill.  The pivots come bottom-up by depth, ``p_c = diag_c - sum_k
    w_kc^2 / p_k`` over the children ``k`` of ``c``; ``N`` maps each child
    ``c`` to its parent with multiplier ``w_c / p_c``, where ``w_c`` weighs
    the edge up (children of the root have no entry).  Every ``p_c`` is at
    least ``w_c``, so no multiplier exceeds 1.  An apply is
    ``(I - N^T)^-1 P^-1 (I - N)^-1 r``; each inverse is the product of
    ``I + N^(2^k)`` over jump tables built by pointer doubling: ceil(log2
    depth) ``bincount``s, as many gathers and no loop over tree levels.
    """
    n = diag.size
    tree = viewgraph.spanning_forest(n, u, v, w)[0]
    tu, tv = u[tree], v[tree]
    parent, depth = viewgraph.bfs_levels(n, tu, tv, root)
    parent[root] = root  # a sink for the jump tables below
    w_up = np.zeros(n)
    w_up[np.where(depth[tu] > depth[tv], tu, tv)] = w[tree]

    pivot = diag.copy()
    pivot[root] = np.inf
    by_depth = np.argsort(depth, kind="stable")
    starts = np.searchsorted(depth[by_depth], np.arange(depth.max(initial=0) + 2))
    for d in range(depth.max(initial=0), 1, -1):
        nodes = by_depth[starts[d]:starts[d + 1]]
        np.subtract.at(pivot, parent[nodes], w_up[nodes] ** 2 / pivot[nodes])

    # N^(2^k) maps node c to its ancestor 2^k levels up; the root is a sink.
    # The tables index flat (3 * n) arrays: row k of a (3, n) array is the
    # index range [k * n, (k + 1) * n) of its flat view.
    anc = parent
    mult = np.where(depth > 1, w_up / pivot, 0.0)
    rows = np.arange(3)[:, None] * n
    jumps = []
    reach = 1
    while reach < depth.max(initial=0):
        src = np.flatnonzero(depth > reach)  # nodes with an ancestor ``reach`` up
        jumps.append(((rows + src).ravel(), (rows + anc[src]).ravel(), np.tile(mult[src], 3)))
        mult = mult * mult[anc]
        anc = anc[anc]
        reach *= 2
    pivot = np.tile(pivot, 3)

    def precond(r: np.ndarray) -> np.ndarray:
        y = r.ravel()
        for src, dst, m in jumps:  # (I - N)^-1
            y = y + np.bincount(dst, y.take(src) * m, 3 * n)
        y = y / pivot
        for src, dst, m in jumps:  # (I - N^T)^-1
            y[src] += y.take(dst) * m
        return y.reshape(3, n)

    return precond


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (k, n) arrays."""
    return np.einsum("ij,ij->i", a, b)


def _relative_residual(rhs: np.ndarray, ax: np.ndarray) -> float:
    """``max_k |b_k - A x_k| / |b_k|`` over the rows of ``rhs`` and ``ax = A x``."""
    norm_b = np.maximum(np.sqrt(_rowdot(rhs, rhs)), 1e-300)
    return float(np.max(np.sqrt(np.sum((rhs - ax) ** 2, axis=1)) / norm_b))


def _cg_multi(apply_op, rhs, precond, max_iter: int, tol: float) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradient for an SPD operator, one right-hand
    side per row of ``rhs``; ``precond`` applies the inverse of an SPD
    approximation.  Stops when every recurrence residual (``r -= alpha *
    A p``, not recomputed) has ``|r| / |b| <= tol``; returns the solution
    and the iteration count.  The true residual drifts from the recurrence
    one by rounding and can end above ``tol`` (up to 1.1e-12 has been seen
    at ``CG_TOL``)."""
    x = np.zeros_like(rhs)
    r = rhs.copy()  # the residual of x = 0
    p = precond(r)
    rz = _rowdot(r, p)
    norm_b = np.maximum(np.sqrt(_rowdot(rhs, rhs)), 1e-300)
    for it in range(max_iter):
        if np.all(np.sqrt(_rowdot(r, r)) / norm_b <= tol):
            break
        ap = apply_op(p)
        denom = _rowdot(p, ap)
        alpha = np.where(denom > 0.0, rz / np.maximum(denom, 1e-300), 0.0)[:, None]
        x += alpha * p
        r -= alpha * ap
        z = precond(r)
        rz_new = _rowdot(r, z)
        p = z + (rz_new / np.maximum(rz, 1e-300))[:, None] * p
        rz = rz_new
    else:
        raise SolverError(f"conjugate gradient did not converge within {max_iter} iterations")
    return x, it


def _dense_solve(lap: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``lap x_k = rhs_k`` for each row of ``rhs`` with one LAPACK call.
    It relies on ``lap`` being symmetric: LAPACK is given ``lap.T``, the same
    matrix in Fortran order, so numpy copies it in without a transpose."""
    try:
        return np.linalg.solve(lap.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense solve failed: {exc}") from exc


def _step_solver(u: np.ndarray, v: np.ndarray, n: int, root: int):
    """``solve(w, resid) -> (x, cg_iterations, rhs, matvec)``: one IRLS step
    with edge weights ``w`` and the (3, E) component-major residual, on the
    layout of ``viewgraph.in_edges`` worked out once per solve.  ``matvec``
    applies the step's matrix to (3, n) arrays until the next ``solve``.

    A step gathers ``w`` and the residual to the 2E directed edges, the
    residual negated on the reversed half (edge ``u -> v`` adds ``w r`` at
    ``v`` and takes it from ``u``), and sums both over each node's run of
    in-edges, one ``np.add.reduceat`` each, in source order over a graph's
    (u, v)-sorted edges: ``diag`` and ``rhs``, 0 at the ``root``.  Only N = 1
    has an empty run, and no edge: both are 0.  The path is chosen here,
    once, by ``irls_mra``'s cost test ``(n - 1)**3 <= DENSE_SOLVE_RATIO * E``:

    * dense: one (n, n) buffer that every step rewrites, ``diag`` on its
      diagonal and each directed edge's weight, negated, in its cell
      ``target * n + source``, then the identity in the root's row and
      column (no two directed edges share a cell, since a ``ViewGraph`` has
      no repeated edge); ``_dense_solve`` takes it, 0 CG iterations, and
      ``matvec`` is ``y @ lap``.
    * CG: ``matvec`` gathers ``x`` at the in-edges' sources, scales by the
      step's directed weights and sums each node's run with one
      ``np.add.reduceat``; ``_cg_multi`` solves with it, preconditioned by
      ``_tree_preconditioner`` of ``w`` over the edges in stored (u, v)
      order.  ``rhs``, ``matvec`` and the preconditioner are 0 in the root's
      row, so CG's iterates stay 0 there and its column is never read.
    """
    order, cols, bounds = viewgraph.in_edges(n, u, v)
    edge = order % u.size  # empty, with no modulo, when E = 0
    sign = np.where(order < u.size, 1.0, -1.0)
    starts = bounds[:-1]
    direct = (n - 1) ** 3 <= DENSE_SOLVE_RATIO * u.size
    if direct:
        cells = np.repeat(np.arange(n) * n, np.diff(bounds)) + cols
        lap = np.zeros((n, n))  # np.linalg.solve copies it, so each step may rewrite it
        flat = lap.reshape(-1)

    def solve(w: np.ndarray, resid: np.ndarray):
        w_dir = w.take(edge)
        if w_dir.size:
            terms = resid.take(edge, axis=1)
            terms *= w_dir * sign
            rhs = np.add.reduceat(terms, starts, axis=1)
            rhs[:, root] = 0.0
            diag = np.add.reduceat(w_dir, starts)
        else:
            diag, rhs = np.zeros(n), np.zeros((3, n))
        if direct:
            flat[cells] = -w_dir
            flat[::n + 1] = diag
            lap[root] = lap[:, root] = 0.0
            lap[root, root] = 1.0
            return _dense_solve(lap, rhs), 0, rhs, lambda y: y @ lap

        def matvec(x: np.ndarray) -> np.ndarray:
            entries = x.take(cols, axis=1)
            entries *= w_dir
            ax = diag * x - np.add.reduceat(entries, starts, axis=1)
            ax[:, root] = 0.0
            return ax

        precond = _tree_preconditioner(u, v, w, diag, root)
        x, iterations = _cg_multi(matvec, rhs, precond, max_iter=10 * n, tol=CG_TOL)
        return x, iterations, rhs, matvec

    return solve


def irls_mra(
    g: ViewGraph,
    init: ArrayLike,
    max_iters: tuple[int, int] = (5, 20),
) -> IrlsResult:
    """Two-phase IRLS: L1 reweighting, then the more robust L1/2 weights.

    Each iteration computes per-edge discrepancies in the body frame,
    ``log(q_v^-1 * measurement * q_u)``, linearizes them as differences of
    per-node tangent updates (``step_v - step_u ~ r_uv``, exact to first
    order for right-multiplicative updates ``q_v <- q_v * exp(step_v)``),
    and solves the weighted normal equations, with the root held fixed: a
    graph Laplacian with 3-dof blocks, each ``w * I3``, so the three tangent
    components share one N x N matrix, whose root row and column are pinned
    and whose root step is 0.  ``_step_solver`` forms them as segment sums
    over the directed edges of ``viewgraph.in_edges`` and chooses, once per
    call, the solve that costs less:

    * ``(N - 1)**3 <= DENSE_SOLVE_RATIO * E``: the directed edges' weights
      are scattered dense and each step is one ``np.linalg.solve`` with
      three right-hand sides, and no spanning tree is built.  Its O(N^3) LU
      costs less than CG's
      O(E) work per iteration over its iterations while that ratio stays
      below about 2.2e4.  CPU s of an IRLS (5, 20) solve from the BFS
      bootstrap, dense against CG, one BLAS thread, with the ratio:

      =====================  =======  ============
      graph                  ratio    dense / CG
      =====================  =======  ============
      degree 25, N = 400     1.3e4    0.14 / 0.22
      degree 25, N = 500     2.0e4    0.18 / 0.21
      degree 25, N = 550     2.4e4    0.25 / 0.22
      degree 25, N = 600     2.9e4    0.34 / 0.31
      degree 25, N = 1000    8.0e4    0.91 / 0.54
      cam1000 (degree 250)   8.0e3    0.91 / 1.34
      noise10o5              8.0e3    0.70 / 1.10
      nonplanar              8.0e3    1.03 / 1.45
      =====================  =======  ============

      The benchmark's graphs (ratios about 450 and 5,000) are dense;
      ``cam5000`` (4.0e5) takes CG.
    * Above it: conjugate gradient with the Laplacian applied as segment
      sums over the same directed edges and weights.  The preconditioner
      is a support graph rebuilt every iteration: the full diagonal plus
      the off-diagonals of a maximum-weight spanning tree of the current
      weights, over the edges in (u, v) order, grounded at the root, which
      factors exactly with no fill.

    An iteration reads the residual component-major: the log body takes
    ``viewgraph.discrepancy_parts`` of the (4, E) edge quaternions,
    transposed once per solve, into one (3, E) array.
    Both paths report the relative residual of the last step in
    ``cg_residual``, computed once after the loop from that step's
    ``matvec``; a dense step, and a CG step whose right-hand side is already
    0, records 0 in ``cg_iterations``.  With N = 1
    there is no unknown and no edge, so the cost test ``0 <= 0`` picks the
    dense path: each phase with a non-zero budget takes one zero dense
    step, which counts as converged.  ``max_iters`` is two non-negative
    integers (the L1 and L1/2 budgets).  Residuals are floored at
    ``IRLS_DELTA`` in the weights, and a phase stops once its largest update
    is below ``IRLS_STEP_TOL``.  The L1/2 phase also stops after its first
    step larger than the one before, which is kept: IRLS's cost falls at
    every step (majorize-minimize), so a growing step marks a stall.
    """
    budgets = tuple(max_iters) if np.iterable(max_iters) else ()
    if len(budgets) != 2:
        raise ValueError(f"max_iters must be two budgets (L1, L1/2), got {max_iters!r}")
    budgets = tuple(_budget("max_iters", k) for k in budgets)
    if not viewgraph.is_connected(g):
        raise ViewGraphError("solver requires a connected graph")
    rows = viewgraph.orientation_rows(g, init)
    solve = _step_solver(*g.endpoint_arrays(), g.n_nodes, viewgraph.select_root(g))
    quats = np.ascontiguousarray(g.edge_quat_array().T)  # (4, E)

    trace: list[float] = []
    cg_iterations: list[int] = []
    for phase_iters, exponent in zip(budgets, (1.0, 1.5)):
        previous = np.inf  # the phase's last largest step
        for _ in range(phase_iters):
            # body-frame residual, (3, E); its norm is the edge's geodesic error
            resid = np.stack(so3.qlog_parts(viewgraph.discrepancy_parts(g, rows, quats)))
            norms = so3.rownorm(resid.T)
            # plain least squares before any reweighting, as in standard
            # IRLS; otherwise exactly-consistent tree edges pin the init
            w = 1.0 / np.maximum(norms**exponent, IRLS_DELTA) if trace else np.ones_like(norms)
            x, cg_its, rhs, matvec = solve(w, resid)
            cg_iterations.append(cg_its)
            step = x.T  # 0 at the root
            rows = so3.qcanon(so3.qmul(rows, so3.qexp(step)))
            max_step = float(np.max(so3.rownorm(step)))
            trace.append(max_step)
            if max_step < IRLS_STEP_TOL or (exponent > 1.0 and max_step > previous):
                break
            previous = max_step
    # the last step's matrix is still bound: ``solve`` rewrites it only at a next step
    cg_residual = _relative_residual(rhs, matvec(x)) if trace else 0.0
    return IrlsResult(
        orientations=so3.Orientations(rows),
        iterations=len(trace),
        max_step_trace=trace,
        cg_residual=cg_residual,
        converged=bool(trace) and trace[-1] < IRLS_STEP_TOL,
        cg_iterations=cg_iterations,
    )
