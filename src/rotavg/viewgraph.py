"""View-graph data model, text interchange format, and tree bootstrapping.

A :class:`ViewGraph` stores its E measured edges as arrays: int64 endpoints
``u < v``, an (E, 4) array of canonical orientation rows ``q`` (``u -> v``)
and an int8 ground-truth label (-1 unknown, 0 inlier, 1 outlier); ground
truth is (N, 4) canonical rows, NaN where unknown.  Every solver and network
reads these arrays; :class:`Edge` is the per-edge record of the boundary and
the tests.  Solver orientations are (N, 4) rows too: :func:`orientation_rows`
checks them on input, and :class:`~rotavg.so3.Orientations` hands them out.

Text format (UTF-8, ``#`` starts a comment, whitespace separated)::

    VIEWGRAPH v1
    NODE <id> [qw qx qy qz]          # optional ground-truth orientation
    EDGE <u> <v> <qw> <qx> <qy> <qz> [<gt_outlier:0|1>]

Node ids must be dense in ``[0, N)``.  Edges are stored once per unordered
pair in the canonical ``u < v`` direction; an edge given in the opposite
direction is flipped (its orientation inverted) on construction.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from . import so3
from .so3 import UnitQuaternion

FORMAT_HEADER = "VIEWGRAPH v1"
RENORM_TOL = 1e-6  # parser auto-renormalizes below this, errors above


class ViewGraphError(ValueError):
    """Invalid view-graph structure or contents."""


class ParseError(ViewGraphError):
    """Malformed view-graph text; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


@dataclass(frozen=True)
class Edge:
    """Undirected measurement stored in the canonical u < v direction."""

    u: int
    v: int
    q: UnitQuaternion  # orientation of u -> v
    gt_outlier: bool | None = None


class _EdgeRecords(Sequence):
    """Read-only sequence of :class:`Edge` records, each built on access."""

    def __init__(self, g: "ViewGraph"):
        self._g = g

    def __len__(self) -> int:
        return self._g._u.size

    def __getitem__(self, i: int) -> Edge:
        i = operator.index(i)
        g = self._g
        label = int(g._label[i])
        return Edge(int(g._u[i]), int(g._v[i]), UnitQuaternion.from_array(g._q[i]),
                    None if label < 0 else bool(label))


class ViewGraph:
    """Immutable view-graph: nodes with optional ground truth, measured edges.

    Built from ``Edge`` records and ``UnitQuaternion | None`` ground truth
    here, or from arrays with :meth:`from_arrays`.
    """

    def __init__(
        self,
        n_nodes: int,
        edges: list[Edge],
        gt: list[UnitQuaternion | None] | None = None,
    ):
        edges = list(edges)
        gt_rows = None if gt is None else np.reshape(
            [(math.nan,) * 4 if q is None else (q.w, q.x, q.y, q.z) for q in gt], (-1, 4))
        self._store(n_nodes, [e.u for e in edges], [e.v for e in edges],
                    [(e.q.w, e.q.x, e.q.y, e.q.z) for e in edges],
                    [-1 if e.gt_outlier is None else int(e.gt_outlier) for e in edges], gt_rows)

    @classmethod
    def from_arrays(cls, n_nodes: int, u, v, q, label=None, gt=None) -> "ViewGraph":
        """Graph over edges ``(u[i], v[i])`` with orientation rows ``q[i]`` and
        labels ``label[i]`` (default -1), validated and flipped to ``u < v``
        like the ``Edge``-list constructor; ``gt`` is (N, 4) rows, each all
        NaN (unknown) or finite and nonzero.  Stores read-only copies."""
        g = cls.__new__(cls)
        g._store(n_nodes, u, v, q, label, gt)
        return g

    def _store(self, n, u, v, q, label, gt) -> None:
        if n < 0:
            raise ViewGraphError("n_nodes must be non-negative")
        gt = np.full((n, 4), np.nan) if gt is None else np.array(gt, dtype=np.float64)
        if gt.shape != (n, 4):
            raise ViewGraphError("ground truth must have one (w, x, y, z) row per node")
        known = ~np.all(np.isnan(gt), axis=1)
        if not np.all(np.isfinite(gt[known])) or np.any(np.linalg.norm(gt[known], axis=1) < 1e-12):
            raise ViewGraphError("ground-truth rows must be all NaN or finite nonzero")
        gt[known] = so3.qcanon(gt[known])
        u = np.array(u, dtype=np.int64).reshape(-1)
        v = np.array(v, dtype=np.int64).reshape(-1)
        m = u.size
        q = np.array(q, dtype=np.float64) if m else np.zeros((0, 4))
        label = np.full(m, -1, dtype=np.int8) if label is None else np.array(label, dtype=np.int8)
        if v.shape != (m,) or label.shape != (m,) or q.shape != (m, 4):
            raise ViewGraphError("edge arrays must have one entry per edge")
        if not np.all(np.isin(label, (-1, 0, 1))):
            raise ViewGraphError("edge labels must be -1 (unknown), 0 or 1")
        if not np.all(np.isfinite(q)) or np.any(np.linalg.norm(q, axis=1) < 1e-12):
            raise ViewGraphError("edge orientations must be finite nonzero rows")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        out_of_range = (lo < 0) | (hi >= n)
        loop = u == v
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        repeat = np.zeros(m, dtype=bool)
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        bad = out_of_range | loop | repeat
        if np.any(bad):
            i = int(np.argmax(bad))  # the first offending edge, in input order
            if out_of_range[i]:
                raise ViewGraphError(f"edge ({u[i]}, {v[i]}) references an unknown node")
            if loop[i]:
                raise ViewGraphError(f"self-loop at node {u[i]}")
            raise ViewGraphError(f"duplicate edge ({lo[i]}, {hi[i]})")
        q = so3.qcanon(q)
        flip = u > v
        q[flip] = so3.qcanon(so3.qconj(q[flip]))
        for arr in (lo, hi, q, label, gt):
            arr.flags.writeable = False
        self._n = n
        self._u, self._v, self._q, self._label = lo, hi, q, label
        self._gt = gt
        self._degrees: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def edges(self) -> Sequence[Edge]:
        """Per-edge records for tests and boundary code; solvers use the arrays."""
        return _EdgeRecords(self)

    @property
    def gt(self) -> np.ndarray:
        """(N, 4) read-only ground-truth rows; NaN rows where it is unknown."""
        return self._gt

    @property
    def has_full_gt(self) -> bool:
        return self._n > 0 and not np.any(np.isnan(self._gt))

    def edge_quat_array(self) -> np.ndarray:
        """(E, 4) read-only stored edge orientations (canonical direction)."""
        return self._q

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(u_idx, v_idx) read-only int64 arrays over the stored edges, u < v."""
        return self._u, self._v

    def edge_labels(self) -> np.ndarray:
        """(E,) read-only int8 ground-truth labels: -1 unknown, 0 inlier, 1 outlier."""
        return self._label

    def gt_array(self) -> np.ndarray:
        """(N, 4) ground-truth orientations; errors if any are missing."""
        if not self.has_full_gt:
            raise ViewGraphError("graph has no complete ground-truth orientations")
        return self._gt

    def degree_array(self) -> np.ndarray:
        """Undirected node degrees as a float array."""
        if self._degrees is None:
            counts = np.bincount(self._u, minlength=self._n) + np.bincount(self._v, minlength=self._n)
            self._degrees = counts.astype(np.float64)
        return self._degrees

    def relative_gt_array(self) -> np.ndarray:
        """(E, 4) ground-truth relative orientations in edge order."""
        gt = self.gt_array()
        return so3.qcanon(so3.qmul(gt[self._v], so3.qconj(gt[self._u])))


# ---------------------------------------------------------------------------
# Text interchange
# ---------------------------------------------------------------------------

def _format_quat(components) -> str:
    return " ".join(format(c, ".17g") for c in components)


def _parse_quat(parts: list[str], line_no: int) -> list[float]:
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(line_no, f"bad quaternion component: {exc}") from None
    norm = math.hypot(*vals)
    if not abs(norm - 1.0) <= RENORM_TOL:  # written so that a NaN norm fails too
        raise ParseError(line_no, f"quaternion norm {norm:.9g} deviates from 1 beyond {RENORM_TOL}")
    return vals


def parse(text: str) -> ViewGraph:
    """Parse the text format; raises :class:`ParseError` with line numbers."""
    node_gt: dict[int, list[float]] = {}
    ends: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    quats: list[list[float]] = []
    labels: list[int] = []
    pairs: set[tuple[int, int]] = set()
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != FORMAT_HEADER:
                raise ParseError(line_no, f"expected header '{FORMAT_HEADER}'")
            header_seen = True
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "NODE":
            if len(parts) not in (2, 6):
                raise ParseError(line_no, "NODE takes an id and optionally 4 quaternion components")
            try:
                nid = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad node id {parts[1]!r}") from None
            if nid < 0:
                raise ParseError(line_no, "node ids must be non-negative")
            if nid in node_gt:
                raise ParseError(line_no, f"duplicate node {nid}")
            node_gt[nid] = _parse_quat(parts[2:], line_no) if len(parts) == 6 else [math.nan] * 4
        elif kind == "EDGE":
            if len(parts) not in (7, 8):
                raise ParseError(line_no, "EDGE takes u v qw qx qy qz [gt_outlier]")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(line_no, "bad edge endpoints") from None
            if u == v:
                raise ParseError(line_no, f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in pairs:
                raise ParseError(line_no, f"duplicate edge ({u}, {v})")
            pairs.add(key)
            quats.append(_parse_quat(parts[3:7], line_no))
            if len(parts) == 8 and parts[7] not in ("0", "1"):
                raise ParseError(line_no, "gt_outlier must be 0 or 1")
            ends.append((u, v))
            edge_lines.append(line_no)
            labels.append(int(parts[7]) if len(parts) == 8 else -1)
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if not header_seen:
        raise ParseError(1, f"missing header '{FORMAT_HEADER}'")
    n = len(node_gt)
    if sorted(node_gt) != list(range(n)):
        raise ViewGraphError("node ids must be dense in [0, N)")
    uv = np.array(ends, dtype=np.int64).reshape(-1, 2)
    undeclared = np.any((uv < 0) | (uv >= n), axis=1)
    if np.any(undeclared):  # nodes may follow edges, so this waits for the last line
        i = int(np.argmax(undeclared))
        raise ParseError(edge_lines[i], f"edge {ends[i]} references an undeclared node")
    gt = np.reshape([node_gt[i] for i in range(n)], (n, 4))
    return ViewGraph.from_arrays(n, uv[:, 0], uv[:, 1], quats, labels, gt)


def serialize(g: ViewGraph, comment: str | None = None) -> str:
    """Render the text format; ``comment`` becomes leading ``#`` lines."""
    lines = [FORMAT_HEADER]
    if comment:
        lines = [f"# {c}" for c in comment.splitlines()] + lines
    for i, q in enumerate(g.gt.tolist()):
        lines.append(f"NODE {i}" if math.isnan(q[0]) else f"NODE {i} {_format_quat(q)}")
    u, v = g.endpoint_arrays()
    for a, b, q, label in zip(u.tolist(), v.tolist(), g.edge_quat_array().tolist(),
                              g.edge_labels().tolist()):
        suffix = "" if label < 0 else f" {label}"
        lines.append(f"EDGE {a} {b} {_format_quat(q)}{suffix}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Directed augmentation
# ---------------------------------------------------------------------------

def directed_arrays(g: ViewGraph) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges: all stored directions first, then their reverses.

    Returns ``(uv, quats)`` with ``uv`` of shape (2E, 2) int64 and ``quats``
    of shape (2E, 4); rows ``[0, E)`` are the stored directions and row
    ``E + i`` is the reverse of row ``i``, carrying the inverse orientation.
    """
    u, v = g.endpoint_arrays()
    m = u.size
    uv = np.empty((2 * m, 2), dtype=np.int64)
    uv[:m, 0] = u
    uv[:m, 1] = v
    uv[m:, 0] = v
    uv[m:, 1] = u
    q = g.edge_quat_array()
    quats = np.concatenate([q, so3.qconj(q)], axis=0) if m else np.zeros((0, 4))
    return uv, quats


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def _component_labels(g: ViewGraph) -> np.ndarray:
    """Per node, the smallest node id of its connected component.

    Each pass lowers both ends of every edge to their smaller label and then
    follows labels one hop (pointer jumping) until nothing changes.
    """
    u, v = g.endpoint_arrays()
    label = np.arange(g.n_nodes)
    while True:
        low = np.minimum(label[u], label[v])
        new = label.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def is_connected(g: ViewGraph) -> bool:
    return not np.any(_component_labels(g))


def induced_subgraph(g: ViewGraph, nodes: list[int]) -> tuple[ViewGraph, dict[int, int]]:
    """Node-induced subgraph with dense renumbering; returns old->new map."""
    nodes = sorted(nodes)
    new_id = np.full(g.n_nodes, -1, dtype=np.int64)
    new_id[nodes] = np.arange(len(nodes))
    u, v = g.endpoint_arrays()
    nu, nv = new_id[u], new_id[v]
    keep = (nu >= 0) & (nv >= 0)
    sub = ViewGraph.from_arrays(len(nodes), nu[keep], nv[keep], g.edge_quat_array()[keep],
                                g.edge_labels()[keep], g.gt[nodes])
    return sub, {old: new for new, old in enumerate(nodes)}


def largest_component(g: ViewGraph) -> tuple[ViewGraph, dict[int, int]]:
    """Subgraph on the largest component (ties: smallest contained id)."""
    if g.n_nodes == 0:
        return g, {}
    label = _component_labels(g)
    sizes = np.bincount(label, minlength=g.n_nodes)  # nonzero only at each component's smallest id
    return induced_subgraph(g, np.flatnonzero(label == np.argmax(sizes)).tolist())


# ---------------------------------------------------------------------------
# Spanning-tree bootstrap
# ---------------------------------------------------------------------------

@dataclass
class SpanningTreeInit:
    """Breadth-first spanning tree plus propagated orientations."""

    root: int
    parent: np.ndarray  # int64, -1 for the root
    depth: np.ndarray   # int64
    orientations: so3.Orientations | None = None


def select_root(g: ViewGraph) -> int:
    """Node of maximum degree; ties broken by smallest id."""
    if g.n_nodes == 0:
        raise ViewGraphError("cannot select a root in an empty graph")
    return int(np.argmax(g.degree_array()))  # argmax returns the first (smallest id)


def shortest_path_tree(g: ViewGraph, root: int) -> SpanningTreeInit:
    """Breadth-first spanning tree from ``root``.

    Depths equal unweighted shortest-path distances; each node's parent is
    its smallest-id neighbor one level up, so the tree is deterministic.
    """
    if not 0 <= root < g.n_nodes:
        raise ViewGraphError(f"root {root} out of range")
    n = g.n_nodes
    u, v = g.endpoint_arrays()
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, n, dtype=np.int64)
    depth[root] = 0
    for d in range(n):  # one pass over the edges per depth level
        du, dv = depth[u], depth[v]
        down_v = (du == d) & (dv < 0)  # u on level d reaches unvisited v
        down_u = (dv == d) & (du < 0)
        child = np.concatenate([v[down_v], u[down_u]])
        if child.size == 0:
            break
        depth[child] = d + 1
        np.minimum.at(parent, child, np.concatenate([u[down_v], v[down_u]]))
    if np.any(depth < 0):
        raise ViewGraphError("graph is disconnected; bootstrap requires connectivity")
    parent[root] = -1
    return SpanningTreeInit(root=root, parent=parent, depth=depth)


def bootstrap_orientations(g: ViewGraph, tree: SpanningTreeInit) -> SpanningTreeInit:
    """Chain edge orientations outward from the root along the tree.

    The root gets the identity; a child ``v`` of ``u`` gets ``q_uv * q_u``
    with ``q_uv`` the measurement oriented from parent to child.  Each depth
    level is one array step.
    """
    n = g.n_nodes
    u, v = g.endpoint_arrays()
    keys = u * n + v
    order = np.argsort(keys)
    sorted_keys = np.append(keys[order], -1)  # padding, so a search past the end reads a value
    depth, parent = np.asarray(tree.depth), np.asarray(tree.parent)
    rows = np.full((n, 4), np.nan)
    rows[tree.root] = (1.0, 0.0, 0.0, 0.0)
    for d in range(1, int(depth.max(initial=0)) + 1):
        child = np.flatnonzero(depth == d)
        par = parent[child]
        want = np.minimum(par, child) * n + np.maximum(par, child)
        pos = np.searchsorted(sorted_keys[:-1], want)
        missing = (pos == keys.size) | (sorted_keys[pos] != want)
        if np.any(missing):
            i = int(np.argmax(missing))
            raise ViewGraphError(f"no stored measurement between {par[i]} and {child[i]}")
        q_pc = g.edge_quat_array()[order[pos]]
        q_pc = np.where((par > child)[:, None], so3.qconj(q_pc), q_pc)
        rows[child] = so3.qcanon(so3.qmul(q_pc, rows[par]))
    if np.any(np.isnan(rows)):
        raise ViewGraphError("tree does not cover every node")
    return SpanningTreeInit(root=tree.root, parent=parent, depth=depth,
                            orientations=so3.Orientations(rows))


def orientation_rows(g: ViewGraph, orientations: ArrayLike) -> np.ndarray:
    """Canonical (N, 4) rows of per-node orientations given to a solver (an
    ``Orientations`` view or any array-like); each row must be finite, nonzero."""
    try:
        rows = np.asarray(orientations, dtype=np.float64)
    except (TypeError, ValueError):  # ragged or non-numeric input
        rows = None
    if rows is None or rows.shape != (g.n_nodes, 4):
        raise ViewGraphError(f"orientations must be ({g.n_nodes}, 4) rows covering every node")
    if not np.all(np.isfinite(rows)) or np.any(np.linalg.norm(rows, axis=1) < 1e-12):
        raise ViewGraphError("orientations must be finite nonzero rows")
    return so3.qcanon(rows)


def rereference(rows: np.ndarray, c: int) -> np.ndarray:
    """Right-multiply (N, 4) orientation rows by ``q_c^-1`` so node ``c`` is
    the identity.  A pure gauge action: every pairwise relative orientation
    is unchanged."""
    if not 0 <= c < len(rows):
        raise ViewGraphError(f"reference node {c} out of range")
    return so3.qcanon(so3.qmul(rows, so3.qcanon(so3.qconj(rows[c]))))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

ANGLE_BINS = 36  # 5-degree bins over [0, 180]


@dataclass
class GraphStats:
    """Angle histograms and rotation axes of measurements (and noise)."""

    bin_edges_deg: np.ndarray           # (ANGLE_BINS + 1,)
    rel_angles_deg: np.ndarray          # (E,)
    rel_hist: np.ndarray                # (ANGLE_BINS,) counts
    rel_axes: np.ndarray                # (E, 3) unit rows
    noise_angles_deg: np.ndarray | None = None
    noise_hist: np.ndarray | None = None
    noise_axes: np.ndarray | None = None


def _angles_axes(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation angles (degrees) and unit axes of canonical rows; a row whose
    vector part has norm below 1e-12 maps to angle 0 about +x."""
    nv = np.linalg.norm(q[:, 1:], axis=1)
    small = nv < 1e-12
    angles = np.where(small, 0.0, np.degrees(np.minimum(2.0 * np.arctan2(nv, q[:, 0]), np.pi)))
    axes = np.where(small[:, None], (1.0, 0.0, 0.0), q[:, 1:] / np.where(small, 1.0, nv)[:, None])
    return angles, axes


def graph_stats(g: ViewGraph, include_noise: bool | None = None) -> GraphStats:
    """Histogram bundle of measurement angles/axes and, with ground truth,
    of the per-edge discrepancy rotations ``(q_v q_u^-1)^-1 * measured``.
    """
    if include_noise is None:
        include_noise = g.has_full_gt
    if include_noise and not g.has_full_gt:
        raise ViewGraphError("noise statistics require full ground truth")
    edges = np.linspace(0.0, 180.0, ANGLE_BINS + 1)
    rel_angles, rel_axes = _angles_axes(g.edge_quat_array())
    rel_hist, _ = np.histogram(rel_angles, bins=edges)
    stats = GraphStats(
        bin_edges_deg=edges,
        rel_angles_deg=rel_angles,
        rel_hist=rel_hist,
        rel_axes=rel_axes,
    )
    if include_noise:
        noise = so3.qcanon(so3.qmul(so3.qconj(g.relative_gt_array()), g.edge_quat_array()))
        n_angles, n_axes = _angles_axes(noise)
        n_hist, _ = np.histogram(n_angles, bins=edges)
        stats.noise_angles_deg = n_angles
        stats.noise_hist = n_hist
        stats.noise_axes = n_axes
    return stats
