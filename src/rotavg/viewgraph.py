"""View-graph data model, text interchange format, and tree bootstrapping.

Text format (UTF-8, ``#`` starts a comment, whitespace separated)::

    VIEWGRAPH v1
    NODE <id> [qw qx qy qz]          # optional ground-truth orientation
    EDGE <u> <v> <qw> <qx> <qy> <qz> [<gt_outlier:0|1>]

Node ids must be dense in ``[0, N)``.  Edges are stored once per unordered
pair in the canonical ``u < v`` direction; an edge given in the opposite
direction is flipped (its orientation inverted) on construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

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


class ViewGraph:
    """Immutable view-graph: nodes with optional ground truth, measured edges."""

    def __init__(
        self,
        n_nodes: int,
        edges: list[Edge],
        gt: list[UnitQuaternion | None] | None = None,
    ):
        if n_nodes < 0:
            raise ViewGraphError("n_nodes must be non-negative")
        if gt is None:
            gt = [None] * n_nodes
        if len(gt) != n_nodes:
            raise ViewGraphError("ground-truth list length must equal n_nodes")
        canonical: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if not (0 <= e.u < n_nodes and 0 <= e.v < n_nodes):
                raise ViewGraphError(f"edge ({e.u}, {e.v}) references an unknown node")
            if e.u == e.v:
                raise ViewGraphError(f"self-loop at node {e.u}")
            if e.u > e.v:
                e = Edge(e.v, e.u, so3.inverse(e.q), e.gt_outlier)
            key = (e.u, e.v)
            if key in seen:
                raise ViewGraphError(f"duplicate edge ({e.u}, {e.v})")
            seen.add(key)
            canonical.append(e)
        self._n = n_nodes
        self._edges = tuple(canonical)
        self._gt = tuple(gt)
        self._adj: list[list[tuple[int, int]]] | None = None
        self._edge_array: np.ndarray | None = None
        self._endpoint_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._gt_rows: np.ndarray | None = None
        self._degrees: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def gt(self) -> tuple[UnitQuaternion | None, ...]:
        return self._gt

    @property
    def has_full_gt(self) -> bool:
        return self._n > 0 and all(q is not None for q in self._gt)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per node: list of ``(neighbor, edge_index)``, built once."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self._n)]
            for i, e in enumerate(self._edges):
                adj[e.u].append((e.v, i))
                adj[e.v].append((e.u, i))
            self._adj = adj
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def oriented(self, edge_index: int, u: int, v: int) -> UnitQuaternion:
        """Orientation of ``u -> v`` along the stored edge ``edge_index``."""
        e = self._edges[edge_index]
        if (e.u, e.v) == (u, v):
            return e.q
        if (e.u, e.v) == (v, u):
            return so3.inverse(e.q)
        raise ViewGraphError(f"edge {edge_index} does not join ({u}, {v})")

    def edge_quat_array(self) -> np.ndarray:
        """(E, 4) array of stored edge orientations (canonical direction)."""
        if self._edge_array is None:
            if self._edges:
                self._edge_array = np.stack([e.q.as_array() for e in self._edges])
            else:
                self._edge_array = np.zeros((0, 4))
        return self._edge_array

    def gt_array(self) -> np.ndarray:
        """(N, 4) ground-truth orientations; errors if any are missing."""
        if self._gt_rows is None:
            if not self.has_full_gt:
                raise ViewGraphError("graph has no complete ground-truth orientations")
            self._gt_rows = np.stack([q.as_array() for q in self._gt])  # type: ignore[union-attr]
        return self._gt_rows

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(u_idx, v_idx) int64 arrays over the stored edges."""
        if self._endpoint_arrays is None:
            u = np.fromiter((e.u for e in self._edges), dtype=np.int64, count=len(self._edges))
            v = np.fromiter((e.v for e in self._edges), dtype=np.int64, count=len(self._edges))
            self._endpoint_arrays = (u, v)
        return self._endpoint_arrays

    def degree_array(self) -> np.ndarray:
        """Undirected node degrees as a float array."""
        if self._degrees is None:
            u, v = self.endpoint_arrays()
            counts = np.bincount(u, minlength=self._n) + np.bincount(v, minlength=self._n)
            self._degrees = counts.astype(np.float64)
        return self._degrees

    def relative_gt(self, u: int, v: int) -> UnitQuaternion:
        qu, qv = self._gt[u], self._gt[v]
        if qu is None or qv is None:
            raise ViewGraphError(f"missing ground truth on nodes {u} or {v}")
        return so3.relative(qu, qv)

    def relative_gt_array(self) -> np.ndarray:
        """(E, 4) ground-truth relative orientations in edge order."""
        gt = self.gt_array()
        u, v = self.endpoint_arrays()
        return so3.qcanon(so3.qmul(gt[v], so3.qconj(gt[u])))


# ---------------------------------------------------------------------------
# Text interchange
# ---------------------------------------------------------------------------

def _format_quat(q: UnitQuaternion) -> str:
    return " ".join(format(c, ".17g") for c in (q.w, q.x, q.y, q.z))


def _parse_quat(parts: list[str], line_no: int) -> UnitQuaternion:
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(line_no, f"bad quaternion component: {exc}") from None
    norm = float(np.linalg.norm(vals))
    if not abs(norm - 1.0) <= RENORM_TOL:  # written so that a NaN norm fails too
        raise ParseError(line_no, f"quaternion norm {norm:.9g} deviates from 1 beyond {RENORM_TOL}")
    return UnitQuaternion(*vals)


def parse(text: str) -> ViewGraph:
    """Parse the text format; raises :class:`ParseError` with line numbers."""
    node_gt: dict[int, UnitQuaternion | None] = {}
    edges: list[Edge] = []
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
            node_gt[nid] = _parse_quat(parts[2:], line_no) if len(parts) == 6 else None
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
            q = _parse_quat(parts[3:7], line_no)
            label: bool | None = None
            if len(parts) == 8:
                if parts[7] not in ("0", "1"):
                    raise ParseError(line_no, "gt_outlier must be 0 or 1")
                label = parts[7] == "1"
            edges.append(Edge(u, v, q, label))
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if not header_seen:
        raise ParseError(1, f"missing header '{FORMAT_HEADER}'")
    n = len(node_gt)
    if sorted(node_gt) != list(range(n)):
        raise ViewGraphError("node ids must be dense in [0, N)")
    for e in edges:
        if e.u >= n or e.v >= n:
            raise ViewGraphError(f"edge ({e.u}, {e.v}) references an undeclared node")
    gt = [node_gt[i] for i in range(n)]
    return ViewGraph(n, edges, gt)


def serialize(g: ViewGraph, comment: str | None = None) -> str:
    """Render the text format; ``comment`` becomes leading ``#`` lines."""
    lines = [FORMAT_HEADER]
    if comment:
        lines = [f"# {c}" for c in comment.splitlines()] + lines
    for i in range(g.n_nodes):
        q = g.gt[i]
        lines.append(f"NODE {i}" if q is None else f"NODE {i} {_format_quat(q)}")
    for e in g.edges:
        suffix = "" if e.gt_outlier is None else f" {int(e.gt_outlier)}"
        lines.append(f"EDGE {e.u} {e.v} {_format_quat(e.q)}{suffix}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Directed augmentation
# ---------------------------------------------------------------------------

def augment_bidirectional(g: ViewGraph) -> list[tuple[int, int, UnitQuaternion]]:
    """Directed edge list: all stored directions first, then their reverses.

    Exactly ``2 * |E|`` entries; entry ``E + i`` is the reverse of entry ``i``
    and carries the inverse orientation.
    """
    fwd = [(e.u, e.v, e.q) for e in g.edges]
    rev = [(e.v, e.u, so3.inverse(e.q)) for e in g.edges]
    return fwd + rev


def directed_arrays(g: ViewGraph) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`augment_bidirectional`.

    Returns ``(uv, quats)`` with ``uv`` of shape (2E, 2) int64 and ``quats``
    of shape (2E, 4); rows ``[0, E)`` are the stored directions.
    """
    m = len(g.edges)
    u, v = g.endpoint_arrays()
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

def connected_components(g: ViewGraph) -> list[list[int]]:
    """Components as sorted node lists, ordered by (-size, smallest id)."""
    seen = [False] * g.n_nodes
    comps: list[list[int]] = []
    adj = g.adjacency()
    for start in range(g.n_nodes):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u, _ in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def is_connected(g: ViewGraph) -> bool:
    if g.n_nodes == 0:
        return True
    return len(connected_components(g)[0]) == g.n_nodes


def induced_subgraph(g: ViewGraph, nodes: list[int]) -> tuple[ViewGraph, dict[int, int]]:
    """Node-induced subgraph with dense renumbering; returns old->new map."""
    nodes = sorted(nodes)
    remap = {old: new for new, old in enumerate(nodes)}
    keep = set(nodes)
    edges = [
        Edge(remap[e.u], remap[e.v], e.q, e.gt_outlier)
        for e in g.edges
        if e.u in keep and e.v in keep
    ]
    gt = [g.gt[old] for old in nodes]
    return ViewGraph(len(nodes), edges, gt), remap


def largest_component(g: ViewGraph) -> tuple[ViewGraph, dict[int, int]]:
    """Subgraph on the largest component (ties: smallest contained id)."""
    if g.n_nodes == 0:
        return g, {}
    return induced_subgraph(g, connected_components(g)[0])


# ---------------------------------------------------------------------------
# Spanning-tree bootstrap
# ---------------------------------------------------------------------------

@dataclass
class SpanningTreeInit:
    """Breadth-first spanning tree plus propagated orientations."""

    root: int
    parent: list[int]  # -1 for the root
    depth: list[int]
    orientations: list[UnitQuaternion] | None = field(default=None)


def select_root(g: ViewGraph) -> int:
    """Node of maximum degree; ties broken by smallest id."""
    if g.n_nodes == 0:
        raise ViewGraphError("cannot select a root in an empty graph")
    degrees = [g.degree(v) for v in range(g.n_nodes)]
    return int(np.argmax(degrees))  # argmax returns the first (smallest id)


def shortest_path_tree(g: ViewGraph, root: int) -> SpanningTreeInit:
    """Breadth-first spanning tree from ``root``.

    Depths equal unweighted shortest-path distances; each node's parent is
    its smallest-id neighbor one level up, so the tree is deterministic.
    """
    if not 0 <= root < g.n_nodes:
        raise ViewGraphError(f"root {root} out of range")
    adj = g.adjacency()
    depth = [-1] * g.n_nodes
    depth[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u, _ in adj[v]:
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                queue.append(u)
    if any(d < 0 for d in depth):
        raise ViewGraphError("graph is disconnected; bootstrap requires connectivity")
    parent = [-1] * g.n_nodes
    for v in range(g.n_nodes):
        if v == root:
            continue
        ups = [u for u, _ in adj[v] if depth[u] == depth[v] - 1]
        parent[v] = min(ups)
    return SpanningTreeInit(root=root, parent=parent, depth=depth)


def bootstrap_orientations(g: ViewGraph, tree: SpanningTreeInit) -> SpanningTreeInit:
    """Chain edge orientations outward from the root along the tree.

    The root gets the identity; a child ``v`` of ``u`` gets
    ``compose(q_uv, orientations[u])`` with ``q_uv`` the measurement oriented
    from parent to child.
    """
    edge_of: dict[tuple[int, int], int] = {}
    for i, e in enumerate(g.edges):
        edge_of[(e.u, e.v)] = i
        edge_of[(e.v, e.u)] = i
    orientations: list[UnitQuaternion | None] = [None] * g.n_nodes
    orientations[tree.root] = UnitQuaternion.identity()
    order = sorted(range(g.n_nodes), key=lambda v: tree.depth[v])
    for v in order:
        if v == tree.root:
            continue
        u = tree.parent[v]
        idx = edge_of.get((u, v))
        if idx is None:
            raise ViewGraphError(f"no stored measurement between {u} and {v}")
        base = orientations[u]
        assert base is not None  # parents precede children in depth order
        orientations[v] = so3.compose(g.oriented(idx, u, v), base)
    if any(q is None for q in orientations):
        raise ViewGraphError("tree does not cover every node")
    return SpanningTreeInit(
        root=tree.root,
        parent=list(tree.parent),
        depth=list(tree.depth),
        orientations=orientations,  # type: ignore[arg-type]
    )


def rereference(
    orientations: list[UnitQuaternion], c: int
) -> list[UnitQuaternion]:
    """Right-multiply all orientations by ``q_c^-1`` so node ``c`` is identity.

    A pure gauge action: every pairwise relative orientation is unchanged.
    """
    if not 0 <= c < len(orientations):
        raise ViewGraphError(f"reference node {c} out of range")
    inv_c = so3.inverse(orientations[c])
    return [so3.compose(q, inv_c) for q in orientations]


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


def _angles_axes(quats: list[UnitQuaternion]) -> tuple[np.ndarray, np.ndarray]:
    angles = np.zeros(len(quats))
    axes = np.zeros((len(quats), 3))
    for i, q in enumerate(quats):
        aa = so3.axis_angle(q)
        angles[i] = np.degrees(aa.angle)
        axes[i] = aa.axis
    return angles, axes


def graph_stats(g: ViewGraph, include_noise: bool | None = None) -> GraphStats:
    """Histogram bundle of measurement angles/axes and, with ground truth,
    of the per-edge discrepancy rotations ``relative_gt(u,v)^-1 * measured``.
    """
    if include_noise is None:
        include_noise = g.has_full_gt
    if include_noise and not g.has_full_gt:
        raise ViewGraphError("noise statistics require full ground truth")
    edges = np.linspace(0.0, 180.0, ANGLE_BINS + 1)
    rel_angles, rel_axes = _angles_axes([e.q for e in g.edges])
    rel_hist, _ = np.histogram(rel_angles, bins=edges)
    stats = GraphStats(
        bin_edges_deg=edges,
        rel_angles_deg=rel_angles,
        rel_hist=rel_hist,
        rel_axes=rel_axes,
    )
    if include_noise:
        noise = [
            so3.compose(so3.inverse(g.relative_gt(e.u, e.v)), e.q) for e in g.edges
        ]
        n_angles, n_axes = _angles_axes(noise)
        n_hist, _ = np.histogram(n_angles, bins=edges)
        stats.noise_angles_deg = n_angles
        stats.noise_hist = n_hist
        stats.noise_axes = n_axes
    return stats
