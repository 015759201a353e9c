"""View-graph data model, text interchange format, and tree bootstrapping.

A :class:`ViewGraph` stores its E measured edges as arrays: int64 endpoints
``u < v``, an (E, 4) array of canonical orientation rows ``q`` (``u -> v``)
and an int8 ground-truth label (-1 unknown, 0 inlier, 1 outlier); ground
truth is (N, 4) canonical rows, NaN where unknown.  Every solver and network
reads these arrays; :func:`discrepancy` is their one per-edge residual.
Solver orientations are (N, 4) rows too: :func:`orientation_rows` checks
them on input, and :class:`~rotavg.so3.Orientations` hands them out.
``ViewGraph.edges`` and the ``Orientations`` items are left of the object
boundary only for the benchmark adapter's two reads.

Text format (UTF-8, ``#`` starts a comment, whitespace separated)::

    VIEWGRAPH v1
    NODE <id> [qw qx qy qz]          # optional ground-truth orientation
    EDGE <u> <v> <qw> <qx> <qy> <qz> [<gt_outlier:0|1>]

Node ids must be dense in ``[0, N)``.  Edges are stored once per unordered
pair in the canonical ``u < v`` direction; an edge given in the opposite
direction is flipped (its orientation inverted) on construction.

:func:`parse` reads the text in blocks of whole lines (``PARSE_BLOCK_CHARS``),
cut at any line end, and converts each block's NODE and EDGE records to
arrays before it reads the next, so the tokens of one block, not of the
whole file, are alive at once: its ``tracemalloc`` peak is 1.2 times the
12 MB cam1000 text and 1.9 times a 0.7 MB one, where whole-text token
lists took nine times.  The whole-file checks then run once as masks over
the concatenated arrays, through the same edge-structure rule (range,
self-loop, repeat) as the constructor, and the checked arrays become the
graph without a second check or copy; a :class:`ParseError` names the
first offending line.  :func:`serialize` formats ``SERIALIZE_ROWS`` rows
per ``%`` call, so its peak is about the output and its row slices.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from . import so3

FORMAT_HEADER = "VIEWGRAPH v1"
RENORM_TOL = 1e-6  # parser auto-renormalizes below this, errors above
PARSE_BLOCK_CHARS = 1 << 16  # parse cuts a block after the first line end past this many characters
SERIALIZE_ROWS = 4096  # serialize formats this many NODE or EDGE rows per "%" call


class ViewGraphError(ValueError):
    """Invalid view-graph structure or contents."""


class ParseError(ViewGraphError):
    """Malformed view-graph text; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


def _edge_faults(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge-structure rule, as masks over edges ``(u[i], v[i])``: an end
    outside ``[0, n)``, a self-loop, and a repeat of an earlier in-range pair
    (either direction).  Out-of-range pairs get distinct negative keys, so
    ``lo * n + hi`` cannot alias one with a valid pair."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    out_of_range = (lo < 0) | (hi >= n)
    keys = np.where(out_of_range, -1 - np.arange(u.size), lo * n + hi)
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(u.size, dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out_of_range, u == v, repeat


class ViewGraph:
    """Immutable view-graph: nodes with optional ground truth, measured edges."""

    def __init__(self, n_nodes: int, u: ArrayLike, v: ArrayLike, q: ArrayLike,
                 label: ArrayLike | None = None, gt: ArrayLike | None = None):
        """Graph over integer edges ``(u[i], v[i])`` with numeric orientation
        rows ``q[i]`` and bool or integer labels ``label[i]`` (default -1),
        validated and flipped to ``u < v``; ``gt`` is (N, 4) numeric rows, each
        all NaN (unknown) or finite and nonzero.  Stores read-only copies."""
        try:
            n = as_index(n_nodes)
        except TypeError:
            raise ViewGraphError(f"n_nodes must be an integer, got {n_nodes!r}") from None
        if n < 0:
            raise ViewGraphError("n_nodes must be non-negative")
        gt = np.full((n, 4), np.nan) if gt is None else _array(gt, "iuf", "ground truth", float)
        if gt.shape != (n, 4):
            raise ViewGraphError("ground truth must have one (w, x, y, z) row per node")
        known = ~np.all(np.isnan(gt), axis=1)
        if not np.all(np.isfinite(gt[known])) or np.any(so3.rownorm(gt[known]) < 1e-12):
            raise ViewGraphError("ground-truth rows must be all NaN or finite nonzero")
        gt[known] = so3.qcanon(gt[known])
        u, v = (_array(x, "iu", "edge endpoints", np.int64).reshape(-1) for x in (u, v))
        m = u.size
        q = _array(q, "iuf", "edge orientations", np.float64) if m else np.zeros((0, 4))
        label = np.full(m, -1) if label is None else _array(label, "biu", "edge labels", None)
        if v.shape != (m,) or label.shape != (m,) or q.shape != (m, 4):
            raise ViewGraphError("edge arrays must have one entry per edge")
        if not np.all(np.isin(label, (-1, 0, 1))):
            raise ViewGraphError("edge labels must be -1 (unknown), 0 or 1")
        if not np.all(np.isfinite(q)) or np.any(so3.rownorm(q) < 1e-12):
            raise ViewGraphError("edge orientations must be finite nonzero rows")
        out_of_range, loop, repeat = _edge_faults(n, u, v)
        bad = out_of_range | loop | repeat
        if np.any(bad):
            i = int(np.argmax(bad))  # the first offending edge, in input order
            if out_of_range[i]:
                raise ViewGraphError(f"edge ({u[i]}, {v[i]}) references an unknown node")
            if loop[i]:
                raise ViewGraphError(f"self-loop at node {u[i]}")
            raise ViewGraphError(f"duplicate edge ({min(u[i], v[i])}, {max(u[i], v[i])})")
        self._keep(n, *_canonical_edges(u, v, q), label.astype(np.int8), gt)

    @classmethod
    def _from_valid(cls, n_nodes: int, u, v, q, label, gt) -> "ViewGraph":
        """Graph over arrays that already hold every invariant the constructor
        establishes (rows taken from a valid graph), stored read-only as
        given, without checks or copies."""
        g = cls.__new__(cls)
        g._keep(n_nodes, u, v, q, label, gt)
        return g

    def _keep(self, n, u, v, q, label, gt) -> None:
        for arr in (u, v, q, label, gt):
            arr.flags.writeable = False
        self._n = n
        self._u, self._v, self._q, self._label = u, v, q, label
        self._gt = gt
        self._degrees: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of stored (undirected) edges."""
        return self._u.size

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) read-only int64 endpoint pairs, built on access, for the
        benchmark adapter's ``len(g.edges)``; the package reads the arrays."""
        pairs = np.column_stack([self._u, self._v])
        pairs.flags.writeable = False
        return pairs

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


def _canonical_edges(u: np.ndarray, v: np.ndarray, q: np.ndarray):
    """Valid edges flipped to ``u < v``: ``(lo, hi, canonical rows)``, the row
    of a flipped edge the canonical conjugate of its own."""
    q = so3.qcanon(q)
    flip = u > v
    q[flip] = so3.qcanon(so3.qconj(q[flip]))
    return np.minimum(u, v), np.maximum(u, v), q


def _array(values: ArrayLike, kinds: str, what: str, dtype) -> np.ndarray:
    """A ``dtype`` copy (own dtype if None) of ``values``; a :class:`ViewGraphError`
    unless they are a rectangular array of a dtype kind in ``kinds``, so that
    no number is truncated or parsed from text on the way."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged
        arr = None
    if arr is None or (arr.size and arr.dtype.kind not in kinds):
        raise ViewGraphError(f"{what} must be {'numbers' if 'f' in kinds else 'integers'}")
    return np.array(arr, dtype=dtype)


def as_index(value) -> int:
    """``operator.index(value)``, and a ``TypeError`` for a bool, which is no count or id."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


def node_id(i: int, n: int, name: str) -> int:
    """``i`` as a node id of an ``n``-node graph; a :class:`ViewGraphError`
    naming the argument ``name`` unless it is an integer in ``[0, n)``."""
    try:
        k = as_index(i)
    except TypeError:
        raise ViewGraphError(f"{name} must be an integer node id, got {i!r}") from None
    if not 0 <= k < n:
        raise ViewGraphError(f"{name} {k} out of range [0, {n})")
    return k


def _degree_weights(g: ViewGraph) -> np.ndarray:
    """Per-edge ``1 / (deg(u) * deg(v))``: the weight of an edge's orientation
    error in the cleaning and refinement losses."""
    degrees = g.degree_array()
    u, v = g.endpoint_arrays()
    return 1.0 / (degrees[u] * degrees[v])


# ---------------------------------------------------------------------------
# Text interchange
# ---------------------------------------------------------------------------

def _conversion_error(tokens, dtype) -> Exception | None:
    """What converting ``tokens`` to ``dtype`` raises, or None."""
    try:
        np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        return exc
    return None


def _convert(recs: list[list[str]], lo: int, hi: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Tokens ``lo:hi`` of each record as a (len(recs), hi - lo) array, and a
    mask of the records whose tokens do not convert.

    The block converts in one ``np.array`` call over its flattened tokens;
    only when that fails is each record tried alone, to mark the bad ones,
    which then read as zeros.
    """
    try:
        flat = np.array([tok for rec in recs for tok in rec[lo:hi]], dtype=dtype)
        return flat.reshape(len(recs), hi - lo), np.zeros(len(recs), dtype=bool)
    except (ValueError, OverflowError):
        bad = np.array([_conversion_error(rec[lo:hi], dtype) is not None for rec in recs])
        return np.array([["0"] * (hi - lo) if b else rec[lo:hi] for rec, b in zip(recs, bad)],
                        dtype=dtype), bad


def _line_blocks(text: str):
    r"""The lines of ``text`` in blocks: (number of the block's first line, its
    lines with comments cut).  A block is cut after the first line end (any
    of ``str.splitlines``) once ``PARSE_BLOCK_CHARS`` characters are taken,
    and a ``"\r\n"`` is never split, so the lines and their numbers are those
    of ``text.splitlines()`` whichever line ends the text uses."""
    # every line end of ``str.splitlines``, a "\r\n" as one
    line_end = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
    start, line_no = 0, 1
    while start < len(text):
        cut = line_end.search(text, start + PARSE_BLOCK_CHARS - 1)
        end = cut.end() if cut else len(text)
        block = text[start:end]
        lines = block.splitlines()
        if "#" in block:
            lines = [raw.split("#", 1)[0] for raw in lines]
        yield line_no, lines
        line_no += len(lines)
        start = end


def _note_first(faults: list, mask: np.ndarray, line_no: np.ndarray, rank: int, reason) -> None:
    """Note ``(line, rank, reason(i))`` for the first record ``i`` at which
    ``mask`` holds; ``line_no`` numbers the masked records."""
    if mask.any():  # the method: ``np.any``'s dispatch costs more than a small block's check
        i = int(np.argmax(mask))
        faults.append((int(line_no[i]), rank, reason(i)))


_LABELS = {"0": 0, "1": 1}  # any other gt_outlier token reads as 2, a fault


def _read_records(recs: list[list[str]], line_no: np.ndarray, faults: list) -> tuple[tuple, tuple]:
    """The NODE and EDGE records among the token lists ``recs`` (on lines
    ``line_no``) as arrays: ``(lines, ids, has_gt, gt rows)`` and ``(lines,
    uv, q, label)``.  Notes the faults that need the tokens: an unknown
    record, a token count, a token that does not convert.  A bad token reads
    as zeros and a bad label as 2, for :func:`parse` to check at the end."""
    width = np.array([len(t) for t in recs], dtype=np.int64)
    kind = np.array([t[0] for t in recs], dtype=object)
    is_node, is_edge = kind == "NODE", kind == "EDGE"
    node_ok = is_node & ((width == 2) | (width == 6))
    edge_ok = is_edge & ((width == 7) | (width == 8))
    _note_first(faults, ~is_node & ~is_edge, line_no, 0, lambda i: f"unknown record {kind[i]!r}")
    _note_first(faults, is_node & ~node_ok, line_no, 1,
                lambda i: "NODE takes an id and optionally 4 quaternion components")
    _note_first(faults, is_edge & ~edge_ok, line_no, 1,
                lambda i: "EDGE takes u v qw qx qy qz [gt_outlier]")

    def quaternions(block: list[list[str]], lines: np.ndarray, lo: int) -> np.ndarray:
        q, bad = _convert(block, lo, lo + 4, np.float64)
        _note_first(faults, bad, lines, 5, lambda i: "bad quaternion component: "
                    f"{_conversion_error(block[i][lo:lo + 4], np.float64)}")
        return q

    node = np.flatnonzero(node_ok)
    node_recs = [recs[r] for r in node.tolist()]
    ids, bad = _convert(node_recs, 1, 2, np.int64)
    _note_first(faults, bad, line_no[node], 2, lambda i: f"bad node id {node_recs[i][1]!r}")
    has_gt = width[node] == 6
    gq = quaternions([r for r, h in zip(node_recs, has_gt.tolist()) if h], line_no[node[has_gt]], 2)

    edge = np.flatnonzero(edge_ok)
    edge_recs = [recs[r] for r in edge.tolist()]
    uv, bad = _convert(edge_recs, 1, 3, np.int64)
    _note_first(faults, bad, line_no[edge], 2, lambda i: "bad edge endpoints")
    q = quaternions(edge_recs, line_no[edge], 3)
    label = np.full(edge.size, -1, dtype=np.int8)
    labelled = np.flatnonzero(width[edge] == 8)
    label[labelled] = [_LABELS.get(edge_recs[i][7], 2) for i in labelled.tolist()]
    return (line_no[node], ids[:, 0], has_gt, gq), (line_no[edge], uv, q, label)


def parse(text: str) -> ViewGraph:
    """Parse the text format; raises :class:`ParseError` with line numbers.

    The text is read in blocks of whole lines of about ``PARSE_BLOCK_CHARS``
    characters.  Each block's tokens are converted to arrays with one
    ``np.array`` call per column group and then dropped, so the tokens of
    one block, not of the whole file, bound the peak memory beyond the
    arrays.  The whole-file checks then run once, as masks over the
    concatenated arrays.  The error names the first offending line; within
    a line the checks rank as the record reads (token count, ids,
    self-loop, duplicate, quaternion components, norm, label).  An edge
    whose end is not a declared node is reported at its line, but only
    after the last line, since nodes may follow edges; non-dense node ids
    raise :class:`ViewGraphError`.  The checked arrays are flipped to
    ``u < v`` and canonicalised as the constructor does, and stored as they
    are.
    """
    faults: list[tuple[int, int, str]] = []  # (line, rank within the line, reason)
    parts = []
    header = False
    for first, lines in _line_blocks(text):
        tokens = [line.split() for line in lines]
        filled = [i for i, t in enumerate(tokens) if t]
        if not header and filled:
            if lines[filled[0]].strip() != FORMAT_HEADER:
                raise ParseError(first + filled[0], f"expected header '{FORMAT_HEADER}'")
            header, filled = True, filled[1:]
        if header and filled:
            parts.append(_read_records([tokens[i] for i in filled],
                                       np.array(filled, dtype=np.int64) + first, faults))
    if not header:
        raise ParseError(1, f"missing header '{FORMAT_HEADER}'")
    parts = parts or [_read_records([], np.zeros(0, dtype=np.int64), faults)]  # no records
    node_line, ids, has_gt, gq = (np.concatenate(c) for c in zip(*(p[0] for p in parts)))
    edge_line, uv, q, label = (np.concatenate(c) for c in zip(*(p[1] for p in parts)))
    del parts

    def note(mask: np.ndarray, line_no: np.ndarray, rank: int, reason) -> None:
        _note_first(faults, mask, line_no, rank, reason)

    def check_norm(rows: np.ndarray, line_no: np.ndarray) -> None:
        norm = so3.rownorm(rows)
        note(~(np.abs(norm - 1.0) <= RENORM_TOL), line_no, 6,  # so that a NaN norm fails too
             lambda i: f"quaternion norm {norm[i]:.9g} deviates from 1 beyond {RENORM_TOL}")

    note(ids < 0, node_line, 3, lambda i: "node ids must be non-negative")
    dup = np.ones(ids.size, dtype=bool)
    dup[np.unique(ids, return_index=True)[1]] = False  # all but each id's first line
    note(dup, node_line, 4, lambda i: f"duplicate node {ids[i]}")
    check_norm(gq, node_line[has_gt])

    n = ids.size
    u, v = uv[:, 0], uv[:, 1]
    undeclared, loop, repeat = _edge_faults(n, u, v)
    note(loop, edge_line, 3, lambda i: f"self-loop at node {u[i]}")
    note(repeat, edge_line, 4, lambda i: f"duplicate edge ({u[i]}, {v[i]})")
    check_norm(q, edge_line)
    note(label > 1, edge_line, 7, lambda i: "gt_outlier must be 0 or 1")

    if faults:
        line, _, reason = min(faults)
        raise ParseError(line, reason)
    if n and ids.max() >= n:  # ids are distinct and non-negative here
        raise ViewGraphError("node ids must be dense in [0, N)")
    if np.any(undeclared):
        i = int(np.argmax(undeclared))
        raise ParseError(int(edge_line[i]), f"edge ({u[i]}, {v[i]}) references an undeclared node")
    gt = np.full((n, 4), np.nan)
    gt[ids[has_gt]] = so3.qcanon(gq)
    # the checks above cover the constructor's, so its copies and checks are skipped
    return ViewGraph._from_valid(n, *_canonical_edges(u, v, q), label, gt)


def serialize(g: ViewGraph) -> str:
    """Render the text format, ``SERIALIZE_ROWS`` rows per ``%`` call."""
    quat = " %.17g %.17g %.17g %.17g"
    gt, q, label = g.gt, g.edge_quat_array(), g.edge_labels()
    u, v = g.endpoint_arrays()
    parts = [FORMAT_HEADER]
    for s in _row_slices(g.n_nodes):
        parts.append(_format_rows(np.column_stack([np.arange(s.start, s.stop), gt[s]]),
                                  "NODE %d" + quat, "NODE %d", ~np.isnan(gt[s, 0])))
    for s in _row_slices(g.n_edges):
        parts.append(_format_rows(np.column_stack([u[s], v[s], q[s], label[s]]),
                                  "EDGE %d %d" + quat + " %d", "EDGE %d %d" + quat, label[s] >= 0))
    parts.append("")  # the final line's "\n"
    return "\n".join(parts)


def _row_slices(n: int):
    return (slice(i, min(i + SERIALIZE_ROWS, n)) for i in range(0, n, SERIALIZE_ROWS))


def _format_rows(cells: np.ndarray, full: str, short: str, is_full: np.ndarray) -> str:
    """The float64 rows of ``cells`` as text lines, in one ``%`` call: row
    ``i`` fills ``full`` with all its cells where ``is_full[i]``, else
    ``short`` with its leading ones.  Ids and labels pass through float64,
    exact below 2**53, and print by ``%d``."""
    keep = is_full[:, None] | (np.arange(cells.shape[1]) < short.count("%"))
    return "\n".join(np.where(is_full, full, short).tolist()) % tuple(cells[keep].tolist())


# ---------------------------------------------------------------------------
# Edge residuals
# ---------------------------------------------------------------------------

def discrepancy(g: ViewGraph, rows: np.ndarray) -> np.ndarray:
    """(E, 4) residuals ``rows_v^-1 * q_uv * rows_u`` of (N, 4) orientation rows,
    the identity where they explain an edge; a conjugate is the reverse one's.
    FineNet's edge feature, and the IRLS residual after the log map."""
    if rows.shape != (g.n_nodes, 4):  # one comparison: IRLS calls this every iteration
        raise ViewGraphError(f"orientation rows must be ({g.n_nodes}, 4), got {rows.shape}")
    u, v = g.endpoint_arrays()
    # conjugate the N rows before the gather, not E; ``take`` beats indexing here
    return so3.qmul(so3.qconj(rows).take(v, axis=0),
                    so3.qmul(g.edge_quat_array(), rows.take(u, axis=0)))


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


def induced_subgraph(g: ViewGraph, nodes: ArrayLike) -> ViewGraph:
    """Node-induced subgraph on distinct node ids ``nodes`` in ``[0, N)``:
    new id ``i`` is the ``i``-th smallest of them."""
    try:
        ids = _array(nodes, "iu", "node ids", np.int64)
    except ViewGraphError:  # ragged, floats or text
        ids = None
    if ids is None or ids.ndim != 1:
        raise ViewGraphError("node ids must be a 1-D integer array")
    ids.sort()
    if ids.size and (ids[0] < 0 or ids[-1] >= g.n_nodes):
        raise ViewGraphError(f"node ids must lie in [0, {g.n_nodes})")
    if np.any(ids[1:] == ids[:-1]):
        raise ViewGraphError("repeated node id")
    new_id = np.full(g.n_nodes, -1, dtype=np.int64)
    new_id[ids] = np.arange(ids.size)
    u, v = g.endpoint_arrays()
    nu, nv = new_id[u], new_id[v]
    keep = (nu >= 0) & (nv >= 0)
    return ViewGraph._from_valid(ids.size, nu[keep], nv[keep], g.edge_quat_array()[keep],
                                 g.edge_labels()[keep], g.gt[ids])


def largest_component(g: ViewGraph) -> tuple[ViewGraph, np.ndarray]:
    """Subgraph on the largest component (ties: smallest contained id) and
    its int64 node ids: new id ``i`` is old id ``node_ids[i]``, ascending."""
    if g.n_nodes == 0:
        return g, np.zeros(0, dtype=np.int64)
    label = _component_labels(g)
    sizes = np.bincount(label, minlength=g.n_nodes)  # nonzero only at each component's smallest id
    node_ids = np.flatnonzero(label == np.argmax(sizes))
    return induced_subgraph(g, node_ids), node_ids


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
    root = node_id(root, g.n_nodes, "root")
    parent, depth = bfs_levels(g.n_nodes, *g.endpoint_arrays(), root)
    if np.any(depth < 0):
        raise ViewGraphError("graph is disconnected; bootstrap requires connectivity")
    return SpanningTreeInit(root=root, parent=parent, depth=depth)


def bfs_levels(n: int, u: np.ndarray, v: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-by-level breadth-first search over the edges ``(u, v)`` of an
    ``n``-node graph: int64 ``(parent, depth)``.  Each node's parent is its
    smallest-id neighbour one level up, -1 at the root; unreached nodes have
    depth -1 (and parent ``n``).  One pass over the edges per level."""
    head, tail = np.concatenate([u, v]), np.concatenate([v, u])  # both directions
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, n, dtype=np.int64)
    depth[root] = 0
    for d in range(n):
        down = (depth[head] == d) & (depth[tail] < 0)  # level d reaches an unvisited node
        child = tail[down]
        if child.size == 0:
            break
        depth[child] = d + 1
        np.minimum.at(parent, child, head[down])
    parent[root] = -1
    return parent, depth


def bootstrap_orientations(g: ViewGraph, tree: SpanningTreeInit) -> SpanningTreeInit:
    """Chain edge orientations outward from the root along the tree.

    The root gets the identity; a child ``v`` of ``u`` gets ``q_uv * q_u``
    with ``q_uv`` the measurement oriented from parent to child.  Each depth
    level is one array step.
    """
    n = g.n_nodes
    root = node_id(tree.root, n, "tree root")
    parent, depth = (_array(x, "iu", f"tree {name}", np.int64)
                     for x, name in ((tree.parent, "parent"), (tree.depth, "depth")))
    if parent.shape != (n,) or depth.shape != (n,):
        raise ViewGraphError(f"tree parent and depth must have one entry per node ({n})")
    u, v = g.endpoint_arrays()
    keys = u * n + v
    order = np.argsort(keys)
    sorted_keys = np.append(keys[order], -1)  # padding, so a search past the end reads a value
    rows = np.full((n, 4), np.nan)
    rows[root] = (1.0, 0.0, 0.0, 0.0)
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
    return SpanningTreeInit(root=root, parent=parent, depth=depth,
                            orientations=so3.Orientations(rows))


def orientation_rows(g: ViewGraph, orientations: ArrayLike) -> np.ndarray:
    """Canonical (N, 4) rows of per-node orientations given to a solver (an
    ``Orientations`` view or any array-like); each row must be finite, nonzero."""
    try:
        rows = _array(orientations, "iuf", "orientations", np.float64)
    except ViewGraphError:  # ragged, text or objects
        rows = None
    if rows is None or rows.shape != (g.n_nodes, 4):
        raise ViewGraphError(f"orientations must be ({g.n_nodes}, 4) rows covering every node")
    if not np.all(np.isfinite(rows)) or np.any(so3.rownorm(rows) < 1e-12):
        raise ViewGraphError("orientations must be finite nonzero rows")
    return so3.qcanon(rows)


def rereference(rows: np.ndarray, c: int) -> np.ndarray:
    """Right-multiply (N, 4) orientation rows by ``q_c^-1`` so node ``c`` is
    the identity.  A pure gauge action: every pairwise relative orientation
    is unchanged."""
    c = node_id(c, len(rows), "reference node")
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
    nv = so3.rownorm(q[:, 1:])
    small = nv < 1e-12
    angles = np.where(small, 0.0, np.degrees(np.minimum(2.0 * np.arctan2(nv, q[:, 0]), np.pi)))
    axes = np.where(small[:, None], (1.0, 0.0, 0.0), q[:, 1:] / np.where(small, 1.0, nv)[:, None])
    return angles, axes


def graph_stats(g: ViewGraph) -> GraphStats:
    """Histogram bundle of measurement angles/axes and, when the graph has
    full ground truth, of the per-edge discrepancy rotations
    ``(q_v q_u^-1)^-1 * measured``.
    """
    edges = np.linspace(0.0, 180.0, ANGLE_BINS + 1)
    rel_angles, rel_axes = _angles_axes(g.edge_quat_array())
    rel_hist, _ = np.histogram(rel_angles, bins=edges)
    stats = GraphStats(
        bin_edges_deg=edges,
        rel_angles_deg=rel_angles,
        rel_hist=rel_hist,
        rel_axes=rel_axes,
    )
    if g.has_full_gt:
        noise = so3.qcanon(so3.qmul(so3.qconj(g.relative_gt_array()), g.edge_quat_array()))
        n_angles, n_axes = _angles_axes(noise)
        n_hist, _ = np.histogram(n_angles, bins=edges)
        stats.noise_angles_deg = n_angles
        stats.noise_hist = n_hist
        stats.noise_axes = n_axes
    return stats
