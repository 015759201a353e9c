"""Classical robust rotation-averaging solvers.

Two baselines operating on the same view-graph inputs as the networks:

* ``weiszfeld_mra`` -- Gauss-Seidel sweeps where each camera is replaced by
  the tangent-space L1 median of the candidates proposed by its neighbors.
* ``irls_mra`` -- iteratively reweighted least squares in the rotation
  tangent space, an L1 phase followed by an L1/2 phase, each inner step a
  Jacobi-preconditioned CG solve on the segment-sum weighted graph Laplacian.

Both keep the root camera exactly fixed to pin the gauge, take (N, 4)
initial rows and return a read-only ``so3.Orientations`` view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from . import so3, viewgraph
from .viewgraph import ViewGraph, ViewGraphError

WEISZFELD_FLOOR = 1e-6   # radians; caps the 1/distance weights
IRLS_DELTA = 1e-5        # residual floor in the IRLS weights
IRLS_STEP_TOL = 1e-3     # radians; stop when the largest update is below
CG_TOL = 1e-12           # relative residual target of the inner CG solve


class SolverError(RuntimeError):
    """Numerical failure inside a solver (CG non-convergence etc.)."""


# ---------------------------------------------------------------------------
# Weiszfeld
# ---------------------------------------------------------------------------

def _weiszfeld_median_rows(cands: np.ndarray, iters: int) -> np.ndarray:
    """Tangent-space Weiszfeld iteration over unit quaternion rows.

    Inlined quaternion math: this sits in the innermost loop of the solver
    sweeps, where the generic kernels' canonicalization overhead dominates.
    """
    aw, ax, ay, az = cands[:, 0], cands[:, 1], cands[:, 2], cands[:, 3]
    # start at the candidate with the smallest summed geodesic distance
    dots = np.abs(cands @ cands.T)
    np.clip(dots, -1.0, 1.0, out=dots)
    m = cands[int(np.argmin(np.arccos(dots).sum(axis=1)))].copy()
    for _ in range(iters):
        w, x, y, z = m
        # rel = cands * conj(m)
        cw = aw * w + ax * x + ay * y + az * z
        cx = -aw * x + ax * w - ay * z + az * y
        cy = -aw * y + ax * z + ay * w - az * x
        cz = -aw * z - ax * y + ay * x + az * w
        nv = np.sqrt(cx * cx + cy * cy + cz * cz)
        ang = 2.0 * np.arctan2(nv, np.abs(cw))
        # log-map direction, sign-corrected so the angle stays in [0, pi]
        scale = np.where(nv > 1e-12, np.copysign(ang, cw) / np.maximum(nv, 1e-300), 0.0)
        weights = 1.0 / np.maximum(ang, WEISZFELD_FLOOR)
        coef = weights * scale / weights.sum()
        sx = float(coef @ cx)
        sy = float(coef @ cy)
        sz = float(coef @ cz)
        step = math.sqrt(sx * sx + sy * sy + sz * sz)
        if step < 1e-12:
            break
        half = 0.5 * step
        s = math.sin(half) / step
        ew, ex, ey, ez = math.cos(half), sx * s, sy * s, sz * s
        # m = exp(step) * m
        m = np.array(
            [
                ew * w - ex * x - ey * y - ez * z,
                ew * x + ex * w + ey * z - ez * y,
                ew * y - ex * z + ey * w + ez * x,
                ew * z + ex * y - ey * x + ez * w,
            ]
        )
        m /= math.sqrt(float(m @ m))
    return m


@dataclass
class WeiszfeldResult:
    orientations: so3.Orientations
    objective_trace: list[float] = field(default_factory=list)


def _consistency_objective(g: ViewGraph, rows: np.ndarray) -> float:
    u, v = g.endpoint_arrays()
    rel = so3.qmul(rows[v], so3.qconj(rows[u]))
    return float(np.sum(so3.qangle_deg(rel, g.edge_quat_array())))


def weiszfeld_mra(
    g: ViewGraph,
    init: ArrayLike,
    sweeps: int = 50,
    median_iters: int = 10,
) -> WeiszfeldResult:
    """L1 averaging sweeps; one sweep updates every non-root node once, in
    ascending id order, in place (Gauss-Seidel)."""
    if not viewgraph.is_connected(g):
        raise ViewGraphError("solver requires a connected graph")
    rows = viewgraph.orientation_rows(g, init)
    root = viewgraph.select_root(g)
    # directed edges grouped by target, in edge order within each target
    uv, quats = viewgraph.directed_arrays(g)
    by_target = np.lexsort((np.tile(np.arange(len(uv) // 2), 2), uv[:, 1]))
    src, q_in = uv[by_target, 0], quats[by_target]
    bounds = np.searchsorted(uv[by_target, 1], np.arange(g.n_nodes + 1))
    trace = [_consistency_objective(g, rows)]
    for _ in range(sweeps):
        for v in range(g.n_nodes):
            if v == root:
                continue
            lo, hi = bounds[v], bounds[v + 1]
            cands = so3.qmul(q_in[lo:hi], rows[src[lo:hi]])
            rows[v] = _weiszfeld_median_rows(cands, median_iters)
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
    cg_residual: float = 0.0
    converged: bool = False  # the last step was below step_tol, not cut by max_iters
    cg_iterations: list[int] = field(default_factory=list)  # one per inner solve


def _reduced_laplacian(u_red: np.ndarray, v_red: np.ndarray, n: int):
    """Index the root-reduced graph Laplacian once per solve (root ends are -1).

    Returns ``system(w, resid) -> (apply_op, diag, rhs)``, the normal equations
    of one IRLS step with edge weights ``w`` on (3, n) arrays; ``apply_op`` sums
    over the off-diagonal entries, kept in both directions and sorted by row.
    """
    ends = np.concatenate([v_red, u_red])
    inc = ends >= 0  # incidence entries: +1 at each edge's v end, -1 at its u end
    inc_node, inc_edge = ends[inc], np.tile(np.arange(v_red.size), 2)[inc]
    inc_sign = np.repeat([1.0, -1.0], v_red.size)[inc]
    both = np.flatnonzero((u_red >= 0) & (v_red >= 0))
    rows = np.concatenate([u_red[both], v_red[both]])
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], np.concatenate([v_red[both], u_red[both]])[order]
    off_edge = np.tile(both, 2)[order]

    # one bincount serves all three tangent components: row k of a (3, n)
    # array is the flat index range [k * n, (k + 1) * n)
    inc_bins, off_bins, off_cols = ((np.arange(3)[:, None] * n + i).ravel()
                                    for i in (inc_node, rows, cols))

    def system(w: np.ndarray, resid: np.ndarray):
        diag = np.bincount(inc_node, w[inc_edge], n)
        swr = (inc_sign * w[inc_edge])[:, None] * resid[inc_edge]
        rhs = np.bincount(inc_bins, swr.T.ravel(), 3 * n).reshape(3, n)
        w_off = np.tile(w[off_edge], 3)

        def apply_op(x: np.ndarray) -> np.ndarray:
            return diag * x - np.bincount(off_bins, w_off * x.take(off_cols), 3 * n).reshape(3, n)

        return apply_op, diag, rhs

    return system


def _cg_multi(apply_op, rhs, diag, max_iter: int, tol: float) -> tuple[np.ndarray, float, int]:
    """Jacobi-preconditioned conjugate gradient for an SPD operator with
    diagonal ``diag``, one right-hand side per row of ``rhs``.  Stops on the
    true residuals, ``|r| / |b| <= tol``; returns the solution, the recomputed
    relative residual and the iteration count."""
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
    rel_res = float(np.max(np.sqrt(np.sum((rhs - apply_op(x)) ** 2, axis=1)) / norm_b))
    return x, rel_res, it


def irls_mra(
    g: ViewGraph,
    init: ArrayLike,
    max_iters: tuple[int, int] = (5, 20),
    delta: float = IRLS_DELTA,
    step_tol: float = IRLS_STEP_TOL,
) -> IrlsResult:
    """Two-phase IRLS: L1 reweighting, then the more robust L1/2 weights.

    Each iteration computes per-edge discrepancies in the body frame,
    ``log(q_v^-1 * measurement * q_u)``, linearizes them as differences of
    per-node tangent updates (``step_v - step_u ~ r_uv``, exact to first
    order for right-multiplicative updates ``q_v <- q_v * exp(step_v)``),
    and solves the weighted normal equations (a graph Laplacian with 3-dof
    blocks, applied as ``np.bincount`` segment sums) by Jacobi-preconditioned
    conjugate gradient, with the root held fixed.  Every block is ``w * I3``,
    so Jacobi equals 3x3 block-Jacobi.
    """
    if not viewgraph.is_connected(g):
        raise ViewGraphError("solver requires a connected graph")
    rows = viewgraph.orientation_rows(g, init)
    n = g.n_nodes
    root = viewgraph.select_root(g)
    u_idx, v_idx = g.endpoint_arrays()
    meas = g.edge_quat_array()

    # reduced index map without the anchored root
    red = np.insert(np.arange(n - 1), root, -1)
    system = _reduced_laplacian(red[u_idx], red[v_idx], n - 1)

    trace: list[float] = []
    cg_iterations: list[int] = []
    cg_residual = 0.0
    for phase_iters, exponent in ((max_iters[0], 1.0), (max_iters[1], 1.5)):
        for _ in range(phase_iters):
            # body-frame residual; its norm is the edge's geodesic error
            resid = so3.qlog(
                so3.qmul(so3.qconj(rows[v_idx]), so3.qmul(meas, rows[u_idx]))
            )  # (E, 3)
            norms = np.linalg.norm(resid, axis=1)
            # plain least squares before any reweighting, as in standard
            # IRLS; otherwise exactly-consistent tree edges pin the init
            w = 1.0 / np.maximum(norms**exponent, delta) if trace else np.ones_like(norms)

            apply_op, diag, rhs = system(w, resid)
            x, cg_residual, cg_its = _cg_multi(apply_op, rhs, diag, max_iter=10 * n, tol=CG_TOL)
            cg_iterations.append(cg_its)
            step = np.insert(x.T, root, 0.0, axis=0)
            rows = so3.qcanon(so3.qmul(rows, so3.qexp(step)))
            max_step = float(np.max(np.linalg.norm(step, axis=1)))
            trace.append(max_step)
            if max_step < step_tol:
                break
    return IrlsResult(
        orientations=so3.Orientations(rows),
        iterations=len(trace),
        max_step_trace=trace,
        cg_residual=cg_residual,
        converged=bool(trace) and trace[-1] < step_tol,
        cg_iterations=cg_iterations,
    )
