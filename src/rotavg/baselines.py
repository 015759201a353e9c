"""Classical robust rotation-averaging solvers.

Two baselines operating on the same view-graph inputs as the networks:

* ``weiszfeld_mra`` -- Gauss-Seidel sweeps where each camera is replaced by
  the tangent-space L1 median of the candidates proposed by its neighbors.
  A sweep runs colour by colour: a first-fit colouring in id order splits
  the nodes into classes of mutually non-adjacent nodes, and each class
  takes one batched median, exactly the sequential sweep in (colour, id)
  order.  The plan keeps each batch's incoming measurements, so a batch's
  candidates are one row gather, one matmul to left-multiplication matrices
  and one stacked product, and each median step works in half-angles with
  one matmul per quaternion product and per sum.
* ``irls_mra`` -- iteratively reweighted least squares in the rotation
  tangent space, an L1 phase followed by an L1/2 phase, each inner step one
  solve of the weighted graph Laplacian with the root grounded.  Up to
  ``DENSE_SOLVE_MAX_N`` unknowns the step is one dense LAPACK solve of the
  whole matrix; above it, a CG solve with the off-diagonal entries sorted by
  row once per solve so that an apply is one gather and one
  ``np.add.reduceat``, preconditioned by the exact inverse of its diagonal
  plus a maximum-weight spanning tree.

Both keep the root camera exactly fixed to pin the gauge, take (N, 4)
initial rows and return a read-only ``so3.Orientations`` view of rows (its
items are left only for the benchmark adapter).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from . import so3, viewgraph
from .viewgraph import ViewGraph, ViewGraphError

WEISZFELD_FLOOR = 1e-6   # radians; caps the 1/distance weights
WEISZFELD_MEDIAN_ITERS = 10  # Weiszfeld steps of each median, after its medoid
IRLS_DELTA = 1e-5        # residual floor in the IRLS weights
IRLS_STEP_TOL = 1e-3     # radians; stop when the largest update is below
CG_TOL = 1e-12           # relative residual target of the inner CG solve
MEDOID_CELLS = 1 << 21   # padded distances of one batched Weiszfeld medoid (16 MB)
# Largest N - 1 whose IRLS steps take a dense solve instead of CG, below the
# measured crossover (N = 450-500 on degree-25 view-graphs; see ``irls_mra``).
DENSE_SOLVE_MAX_N = 400


class SolverError(RuntimeError):
    """Numerical failure inside a solver (CG non-convergence etc.)."""


# ---------------------------------------------------------------------------
# Weiszfeld
# ---------------------------------------------------------------------------

# Quaternion products as matrices, from ``so3.qmul`` of the basis rows:
# ``(q @ _LEFT).reshape(4, 4)`` is the L with ``L @ r = q * r``, and
# ``(m @ _RIGHT_T).reshape(4, 4)`` is R^T for the R with ``R @ e = e * m``;
# R^T is also the matrix of right multiplication by conj(m).
_LEFT = so3.qmul(np.eye(4)[:, None], np.eye(4)).transpose(0, 2, 1).reshape(4, 16)
_RIGHT_T = so3.qmul(np.eye(4), np.eye(4)[:, None]).reshape(4, 16)
_VEC = np.array([0.0, 1.0, 1.0, 1.0])  # ``x @ _VEC`` sums the vector part


def _weiszfeld_medians(cands: np.ndarray, valid: np.ndarray, iters: int) -> np.ndarray:
    """Tangent-space L1 medians of padded candidate sets, one per node.

    ``cands`` is (n, D, 4) unit rows and ``valid`` (n, D) marks the real
    ones.  Each median starts at its medoid and takes ``iters`` Weiszfeld
    steps; a node whose step falls below 1e-12 stays where it is.  The
    medoid minimises the summed distance to and from the other candidates,
    ``sum_j d_ij + d_ji`` with ``d_ii = 0``: a symmetric score, so rounding in
    ``d`` cannot break a tie, and an exact tie goes to the first candidate.

    A colour class holds about 4 nodes of about 100 candidates on the
    benchmark's dense graphs and about 20 of about 25 on its sparse ones,
    where a numpy call costs more than its arithmetic, so a step is written
    in few whole-batch calls.  One matmul against
    ``_RIGHT_T`` gives the matrix of ``m`` that takes each candidate column
    to ``candidate * conj(m)`` and the row ``e`` to ``e * m``; the squared
    vector norms and the weighted tangent sum are one matmul each.  The
    step works in half-angles, the angles of the quaternions themselves: the
    log map's factor 2 cancels in the normalised weights, so ``s`` is half
    the tangent step and ``exp`` reads ``cos |s|`` and ``sin |s|`` directly.
    The freeze rule's masks are paid for only once some node has stopped.
    """
    n, d = valid.shape
    cols = cands.transpose(0, 2, 1).copy()  # (n, 4, D)
    dist = cands @ cols
    np.abs(dist, out=dist)
    np.minimum(dist, 1.0, out=dist)
    dist[:, np.arange(d), np.arange(d)] = 1.0
    np.arccos(dist, out=dist)
    w = valid.astype(np.float64)
    sums = (dist @ w[:, :, None])[:, :, 0] + (w[:, None, :] @ dist)[:, 0]
    m = cands[np.arange(n), np.argmin(np.where(valid, sums, np.inf), axis=1)]
    frozen = np.zeros(n, dtype=bool)
    stopped = False  # whether ``frozen`` has a node yet
    for _ in range(iters):
        mat = (m @ _RIGHT_T).reshape(n, 4, 4)
        rel = mat @ cols  # candidates * conj(m), as (n, 4, D) columns
        cw = rel[:, 0]
        nv = np.sqrt(_VEC @ (rel * rel))
        half = np.arctan2(nv, np.abs(cw))
        # log-map direction, sign-corrected so the angle stays in [0, pi]
        coef = np.zeros((n, d))
        np.divide(np.copysign(half, cw), nv, out=coef, where=nv > 1e-12)
        weights = w / np.maximum(half, 0.5 * WEISZFELD_FLOOR)
        coef *= weights
        s = (rel @ coef[:, :, None])[:, :, 0]  # s[:, 1:] is half the step
        s /= np.add.reduce(weights, 1)[:, None]
        step = np.sqrt((s * s) @ _VEC)
        if stopped or np.minimum.reduce(step) < 0.5e-12:  # a full step below 1e-12
            frozen |= step < 0.5e-12
            stopped = True
            step[frozen] = 1.0  # any non-zero: their old rows are put back
        e = s * (np.sin(step) / step)[:, None]  # exp of the full step
        e[:, 0] = np.cos(step)
        new = (e[:, None, :] @ mat)[:, 0]  # exp(s) * m
        new /= np.sqrt(np.einsum("ni,ni->n", new, new))[:, None]
        if stopped:
            new[frozen] = m[frozen]
        m = new
    return m


@dataclass
class WeiszfeldResult:
    orientations: so3.Orientations
    objective_trace: list[float] = field(default_factory=list)


def _consistency_objective(g: ViewGraph, rows: np.ndarray) -> float:
    u, v = g.endpoint_arrays()
    rel = so3.qmul(rows.take(v, axis=0), so3.qconj(rows.take(u, axis=0)))
    return float(np.sum(so3.qangle_deg(rel, g.edge_quat_array())))


def _weiszfeld_colours(g: ViewGraph, root: int) -> np.ndarray:
    """First-fit colour of every node, -1 at the root.

    In ascending id order, each non-root node takes the smallest colour
    that none of its smaller-id non-root neighbours has: one pass, O(E) in
    all.  No edge joins two nodes of one colour.
    """
    n = g.n_nodes
    u, v = g.endpoint_arrays()  # u < v
    inner = (u != root) & (v != root)
    upper, lower = v[inner], u[inner]
    by_upper = np.argsort(upper, kind="stable")
    lower = lower[by_upper]
    starts = np.searchsorted(upper[by_upper], np.arange(n + 1))
    colour = np.full(n, -1, dtype=np.int64)
    for node in range(n):
        if node != root:
            below = colour[lower[starts[node]:starts[node + 1]]]
            # the first colour count of 0; a node with k such neighbours takes one <= k
            colour[node] = np.argmin(np.bincount(below, minlength=below.size + 1))
    return colour


def _weiszfeld_plan(g: ViewGraph, root: int) -> list[tuple[np.ndarray, ...]]:
    """Batches of the colour schedule, in colour order: ``(nodes, src, q_in,
    valid)``, the nodes of one colour and their incoming candidates padded
    to the batch's maximum degree.

    Candidate ``j`` of node ``v`` is ``q_in[v, j] * rows[src[v, j]]``, in edge
    order, over both directions of every edge (``q_in`` the measurement or
    its conjugate); ``q_in`` is (n, D, 4) and ``_candidates`` turns it into
    left-multiplication matrices when the sweep reads the batch.  Padding
    repeats the first candidate and is masked by ``valid``.  A colour is one
    batch unless its padded (n, D, D) medoid distances would pass
    ``MEDOID_CELLS``; then its nodes, by ascending degree, are cut into runs
    that fit, or single nodes.
    """
    n = g.n_nodes
    (u, v), q = g.endpoint_arrays(), g.edge_quat_array()
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    by_target = np.lexsort((np.tile(np.arange(u.size), 2), dst))
    src = src.take(by_target)
    q_in = np.concatenate([q, so3.qconj(q)]).take(by_target, axis=0)
    bounds = np.searchsorted(dst.take(by_target), np.arange(n + 1))
    degree = np.diff(bounds)
    colour = _weiszfeld_colours(g, root)
    order = np.lexsort((degree, colour))  # by colour, then by degree
    cuts = np.searchsorted(colour[order], np.arange(colour.max() + 2))
    plan = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        while lo < hi:
            end = lo + 1
            while end < hi and (end + 1 - lo) * degree[order[end]] ** 2 <= MEDOID_CELLS:
                end += 1
            nodes = order[lo:end]
            col = np.arange(degree[nodes[-1]])
            valid = col < degree[nodes, None]
            idx = bounds[nodes, None] + np.where(valid, col, 0)
            plan.append((nodes, src.take(idx), q_in.take(idx, axis=0), valid))
            lo = end
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
    id.

    Each non-root node, in ascending id order, takes the smallest colour
    none of its smaller-id non-root neighbours has.  A colour class is an
    independent set, so updating a whole class at once reads exactly the
    rows the sequential sweep in (colour, id) order reads: the rows of
    lower colours from this sweep, of higher colours from the last.  Each
    class takes one batched median (more only past ``MEDOID_CELLS``).  The
    node order is that of a multicolour SOR sweep; the averaging step
    itself is the L1 Weiszfeld median of each node's candidates.
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
            rows[nodes] = _weiszfeld_medians(cands, valid, WEISZFELD_MEDIAN_ITERS)
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
    # step, recomputed after the solve: no bound, since rounding can leave it
    # above CG_TOL on either path (CG stops on its recurrence residual)
    cg_residual: float = 0.0
    converged: bool = False  # the last step was below IRLS_STEP_TOL, not cut by max_iters
    # one per inner solve: CG iterations, 0 for a dense solve
    cg_iterations: list[int] = field(default_factory=list)


def _max_spanning_tree(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Edge ids, ascending, of the maximum-weight spanning tree of a connected
    graph on ``n`` nodes (a spanning forest if it is not connected).

    Edges are ranked by descending weight with ties to the lower edge id;
    under that strict order the tree is unique, the one Kruskal's algorithm
    picks.  The ranking is the default (unstable) argsort of ``-w`` with
    only the runs of tied weights re-sorted by edge id, cheaper than a
    stable sort of every weight; ties are common (every weight is 1 in the
    first IRLS iteration, and residuals clamped at ``IRLS_DELTA`` share the
    weight ``1 / IRLS_DELTA``).  Boruvka rounds: each component takes its
    best-ranked outgoing edge (a segment minimum of the ranks) and hooks
    onto the component across it; of two components that picked the same
    edge the smaller label stays a root, and pointer jumping relabels every
    merged component by its root.  Edges inside a component leave the search.
    """
    by_rank = np.argsort(-w)
    ranked = w[by_rank]
    same = ranked[1:] == ranked[:-1]
    tied = np.zeros(w.size, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    at = np.flatnonzero(tied)
    run = np.cumsum(np.append(0, ~same))[at]
    # keys run * E + id sort each run within its own positions, by edge id
    by_rank[at] = np.sort(run * w.size + by_rank[at]) % w.size
    ru, rv = u[by_rank], v[by_rank]
    live = np.arange(w.size)  # ranks of the edges between components
    label = np.arange(n)
    ids = np.arange(n)
    picked = np.zeros(w.size, dtype=bool)
    while True:
        lu, lv = label[ru[live]], label[rv[live]]
        cross = lu != lv
        if not cross.any():
            return np.flatnonzero(picked)
        live, lu, lv = live[cross], lu[cross], lv[cross]
        best = np.full(n, w.size)
        np.minimum.at(best, lu, live)
        np.minimum.at(best, lv, live)
        comp = np.flatnonzero(best < w.size)
        pick = best[comp]
        picked[by_rank[pick]] = True
        hook = ids.copy()
        hook[comp] = label[ru[pick]] + label[rv[pick]] - comp  # the component across
        hook = np.where((hook[hook] == ids) & (ids < hook), ids, hook)
        while not np.array_equal(hook[hook], hook):
            hook = hook[hook]
        label = hook[label]


def _tree_preconditioner(u: np.ndarray, v: np.ndarray, w: np.ndarray, diag: np.ndarray):
    """``precond(r)``: the exact inverse of ``M = diag(diag) - A_T`` on (3, n)
    arrays, where ``T`` is the maximum-weight spanning tree of the edges
    ``(u, v)`` with weights ``w`` on nodes ``0..n``.  Node ``n`` is the
    ground: the root camera, whose row and column ``M`` leaves out.

    Eliminated children before parents, ``M = (I - N) P (I - N)^T`` with no
    fill.  The pivots come bottom-up by depth, ``p_c = diag_c - sum_k
    w_kc^2 / p_k`` over the children ``k`` of ``c``; ``N`` maps each child
    ``c`` to its parent with multiplier ``w_c / p_c``, where ``w_c`` weighs
    the edge up (children of the ground have no entry).  Every ``p_c`` is at
    least ``w_c``, so no multiplier exceeds 1.  An apply is
    ``(I - N^T)^-1 P^-1 (I - N)^-1 r``; each inverse is the product of
    ``I + N^(2^k)`` over jump tables built by pointer doubling: ceil(log2
    depth) ``bincount``s, as many gathers and no loop over tree levels.
    """
    n = diag.size
    tree = _max_spanning_tree(u, v, w, n + 1)
    tu, tv = u[tree], v[tree]
    parent, depth = viewgraph.bfs_levels(n + 1, tu, tv, n)
    w_up = np.empty(n + 1)
    w_up[np.where(depth[tu] > depth[tv], tu, tv)] = w[tree]
    parent, depth, w_up = parent[:n], depth[:n], w_up[:n]

    pivot = diag.copy()
    by_depth = np.argsort(depth, kind="stable")
    starts = np.searchsorted(depth[by_depth], np.arange(depth.max(initial=0) + 2))
    for d in range(depth.max(initial=0), 1, -1):
        nodes = by_depth[starts[d]:starts[d + 1]]
        np.subtract.at(pivot, parent[nodes], w_up[nodes] ** 2 / pivot[nodes])

    # N^(2^k) maps node c to its ancestor 2^k levels up; the ground n is a
    # sink.  The tables index flat (3 * n) arrays: row k of a (3, n) array
    # is the index range [k * n, (k + 1) * n), as in ``_reduced_laplacian``.
    anc = np.append(parent, n)
    mult = np.append(np.where(depth > 1, w_up / pivot, 0.0), 0.0)
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


def _reduced_laplacian(u_red: np.ndarray, v_red: np.ndarray, n: int):
    """Index the root-reduced graph Laplacian once per solve (root ends are -1).

    Returns ``(system, dense_system)``.  ``system(w, resid) -> (apply_op,
    precond, rhs)`` gives the normal equations of one IRLS step with edge
    weights ``w`` on (3, n) arrays and their maximum-spanning-tree
    preconditioner; ``dense_system(w, resid) -> (lap, rhs)`` gives the same
    equations with the matrix as one (n, n) buffer that every step of a
    solve rewrites: ``diag`` on its diagonal and each row-sorted off-diagonal
    weight below (without the padding entry), negated, in its cell, which
    no other edge shares, since a ``ViewGraph`` has no repeated edge.
    The off-diagonal entries, kept in both directions, are sorted by row
    with a stable sort, so each row is one contiguous run in edge order;
    ``apply_op`` gathers ``x`` at their columns, scales by the row-sorted
    weights and sums each row with one ``np.add.reduceat`` along the
    contiguous axis.  Some rows have no
    entry (nodes whose only neighbour is the root; every row when N = 2),
    and ``reduceat`` returns the element at an empty segment's start, so
    those rows are masked to 0.  When the last row is empty, one padding
    entry at the end keeps the starts of the trailing empty rows in range
    without cutting short the last non-empty row.
    """
    ends = np.concatenate([v_red, u_red])
    inc = ends >= 0  # incidence entries: +1 at each edge's v end, -1 at its u end
    inc_node, inc_edge = ends[inc], np.tile(np.arange(v_red.size), 2)[inc]
    inc_sign = np.repeat([1.0, -1.0], v_red.size)[inc]
    # one bincount serves all three tangent components: row k of a (3, n)
    # array is the flat index range [k * n, (k + 1) * n)
    inc_bins = (np.arange(3)[:, None] * n + inc_node).ravel()

    both = np.flatnonzero((u_red >= 0) & (v_red >= 0))
    rows = np.concatenate([u_red[both], v_red[both]])
    by_row = np.argsort(rows, kind="stable")
    cols = np.concatenate([v_red[both], u_red[both]])[by_row]
    off_edge = np.tile(both, 2)[by_row]
    count = np.bincount(rows, minlength=n)
    starts = np.cumsum(count) - count
    empty = np.flatnonzero(count == 0)
    # flat cells of the (n, n) matrix holding the entries by row
    dense_cells = np.repeat(np.arange(n) * n, count) + cols
    dense_edge = off_edge
    if n and count[-1] == 0:  # padding read only by the (masked) trailing empty rows
        cols, off_edge = np.append(cols, 0), np.append(off_edge, 0)
    ground_u, ground_v = np.where(u_red < 0, n, u_red), np.where(v_red < 0, n, v_red)

    def normal_equations(w: np.ndarray, resid: np.ndarray):
        w_inc = w[inc_edge]
        diag = np.bincount(inc_node, w_inc, n)
        swr = resid.T.take(inc_edge, axis=1)  # (3, m), component-major like ``inc_bins``
        swr *= inc_sign * w_inc
        # float64 even when empty (N = 1), where bincount returns int64
        rhs = np.bincount(inc_bins, swr.ravel(), 3 * n).reshape(3, n).astype(np.float64, copy=False)
        return diag, rhs

    lap = np.zeros((n, n))  # np.linalg.solve copies it, so each step may rewrite it
    cells = lap.reshape(-1)

    def dense_system(w: np.ndarray, resid: np.ndarray):
        diag, rhs = normal_equations(w, resid)
        cells[dense_cells] = -w[dense_edge]
        cells[::n + 1] = diag
        return lap, rhs

    def system(w: np.ndarray, resid: np.ndarray):
        diag, rhs = normal_equations(w, resid)
        w_off = w[off_edge]

        def apply_op(x: np.ndarray) -> np.ndarray:
            entries = x.take(cols, axis=1)
            entries *= w_off
            off = np.add.reduceat(entries, starts, axis=1)
            off[:, empty] = 0.0
            return diag * x - off

        return apply_op, _tree_preconditioner(ground_u, ground_v, w, diag), rhs

    return system, dense_system


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (k, n) arrays."""
    return np.einsum("ij,ij->i", a, b)


def _cg_multi(apply_op, rhs, precond, max_iter: int, tol: float) -> tuple[np.ndarray, float, int]:
    """Preconditioned conjugate gradient for an SPD operator, one right-hand
    side per row of ``rhs``; ``precond`` applies the inverse of an SPD
    approximation.  Stops when every recurrence residual (``r -= alpha *
    A p``, not recomputed) has ``|r| / |b| <= tol``; returns the solution,
    the recomputed relative residual ``max_k |b_k - A x_k| / |b_k|`` and the
    iteration count.  The recomputed residual drifts from the recurrence one
    by rounding and can end above ``tol`` (up to 1.1e-12 has been seen at
    ``CG_TOL``)."""
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
    rel_res = float(np.max(np.sqrt(np.sum((rhs - apply_op(x)) ** 2, axis=1)) / norm_b))
    return x, rel_res, it


def _dense_solve(lap: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``lap x_k = rhs_k`` for each row of ``rhs`` with one LAPACK call;
    returns the solution and the recomputed relative residual ``max_k |rhs_k
    - lap x_k| / |rhs_k|``, as ``_cg_multi`` does."""
    try:
        x = np.linalg.solve(lap, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense solve failed: {exc}") from exc
    norm_b = np.maximum(np.sqrt(_rowdot(rhs, rhs)), 1e-300)
    return x, float(np.max(np.sqrt(np.sum((rhs - x @ lap) ** 2, axis=1)) / norm_b))


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
    components share one (N-1) x (N-1) matrix.  Which solve runs is chosen
    once per call from N:

    * ``N - 1 <= DENSE_SOLVE_MAX_N``: the matrix is scattered dense and each
      step is one ``np.linalg.solve`` with three right-hand sides, and no
      spanning tree is built.  Its O(N^3) LU costs less than CG's O(E) work
      per iteration times ~20 iterations up to N = 450 on degree-25 graphs
      (CPU s of an IRLS (5, 20) solve, dense against CG: 0.09 / 0.18 at
      N = 250, 0.16 / 0.20 at N = 400, 0.24 / 0.21 at N = 500, 1.05 / 0.37
      at N = 1000).  Denser graphs favour it further (2.2 / 2.9 at N = 1000
      and degree 250), but the cut is on N alone.
    * Above it: conjugate gradient with the Laplacian applied as row-sorted
      ``np.add.reduceat`` segment sums.  The preconditioner is a support
      graph rebuilt every iteration: the full diagonal plus the
      off-diagonals of a maximum-weight spanning tree of the current
      weights, grounded at the root, which factors exactly with no fill.

    Both report the recomputed relative residual of the last step in
    ``cg_residual``; a dense step records 0 in ``cg_iterations``.  With N = 1
    there is no unknown: each phase with a non-zero budget takes one zero
    step, which counts as converged.  ``max_iters`` is two non-negative
    integers (the L1 and L1/2 budgets).  Residuals are floored at
    ``IRLS_DELTA`` in the weights, and a phase stops once its largest update
    is below ``IRLS_STEP_TOL``.
    """
    budgets = tuple(max_iters) if np.iterable(max_iters) else ()
    if len(budgets) != 2:
        raise ValueError(f"max_iters must be two budgets (L1, L1/2), got {max_iters!r}")
    budgets = tuple(_budget("max_iters", k) for k in budgets)
    if not viewgraph.is_connected(g):
        raise ViewGraphError("solver requires a connected graph")
    rows = viewgraph.orientation_rows(g, init)
    n = g.n_nodes
    root = viewgraph.select_root(g)
    u_idx, v_idx = g.endpoint_arrays()

    # reduced index map without the anchored root
    red = np.insert(np.arange(n - 1), root, -1)
    system, dense_system = _reduced_laplacian(red[u_idx], red[v_idx], n - 1)
    direct = n - 1 <= DENSE_SOLVE_MAX_N

    trace: list[float] = []
    cg_iterations: list[int] = []
    cg_residual = 0.0
    for phase_iters, exponent in zip(budgets, (1.0, 1.5)):
        for _ in range(phase_iters):
            # body-frame residual; its norm is the edge's geodesic error
            resid = so3.qlog(viewgraph.discrepancy(g, rows))  # (E, 3)
            norms = so3.rownorm(resid)
            # plain least squares before any reweighting, as in standard
            # IRLS; otherwise exactly-consistent tree edges pin the init
            w = 1.0 / np.maximum(norms**exponent, IRLS_DELTA) if trace else np.ones_like(norms)

            if direct:
                x, cg_residual = _dense_solve(*dense_system(w, resid))
                cg_its = 0
            else:
                apply_op, precond, rhs = system(w, resid)
                x, cg_residual, cg_its = _cg_multi(apply_op, rhs, precond, max_iter=10 * n, tol=CG_TOL)
            cg_iterations.append(cg_its)
            step = np.insert(x.T, root, 0.0, axis=0)
            rows = so3.qcanon(so3.qmul(rows, so3.qexp(step)))
            max_step = float(np.max(so3.rownorm(step)))
            trace.append(max_step)
            if max_step < IRLS_STEP_TOL:
                break
    return IrlsResult(
        orientations=so3.Orientations(rows),
        iterations=len(trace),
        max_step_trace=trace,
        cg_residual=cg_residual,
        converged=bool(trace) and trace[-1] < IRLS_STEP_TOL,
        cg_iterations=cg_iterations,
    )
