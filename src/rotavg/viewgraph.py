"""View-graph data model, text interchange format, connectivity and tree
bootstrapping.

A :class:`ViewGraph` stores its E measured edges as arrays sorted by
``(u, v)``, the order of every sum over edges: int64 endpoints ``u < v``, an
(E, 4) array of canonical orientation rows ``q`` (``u -> v``) and an int8
ground-truth label (-1 unknown, 0 inlier, 1 outlier); ground truth is (N, 4)
canonical rows, NaN where unknown.  Every solver and network reads these
arrays; :func:`discrepancy` is their one per-edge residual, and
:func:`discrepancy_parts` its four component arrays, the form IRLS reads.
Solver orientations are (N, 4) rows too: :func:`orientation_rows` checks
them on input, and :class:`~rotavg.so3.Orientations` hands them out.
``ViewGraph.edges``, the ``Orientations`` items and :class:`GraphStats` are
left of the object boundary only for the benchmark adapter's reads.
:func:`spanning_forest` is the package's one connectivity kernel: its
labels give the components, its size connectivity, and with edge weights
it is IRLS's maximum spanning tree.  :func:`in_edges` is the package's one
directed-edge layout, the 2E directed edges in one stable sort by target,
then source: ``mpnn``'s message runs, the Weiszfeld plan and IRLS's normal
equations, on its dense and its CG path, read it.

Text format (UTF-8, ``#`` starts a comment, whitespace separated)::

    VIEWGRAPH v1
    NODE <id> [qw qx qy qz]          # optional ground-truth orientation
    EDGE <u> <v> <qw> <qx> <qy> <qz> [<gt_outlier:0|1>]

Node ids must be dense in ``[0, N)``.  Edges are stored once per unordered
pair in the canonical ``u < v`` direction; an edge given in the opposite
direction is flipped (its orientation inverted) on construction.

:func:`parse` reads the text in blocks of whole lines
(``PARSE_BLOCK_CHARS``), cut at any line end, and converts each block's NODE
and EDGE records to arrays before it reads the next, so only one block's
lines and tokens are alive at once: the ``tracemalloc`` peak is 1.2 times
the text, at 12 MB (cam1000) as at 0.7 MB.  A block's NODE lines and its
EDGE lines are each tried once by numpy's C line reader, and a group it
refuses goes whole to a Python reader; its docstring says which line takes
which path.  The whole-file checks then run once as masks over the
concatenated arrays, through the same edge-structure rule (range,
self-loop, repeat) as the constructor, and the checked arrays become the
graph without a second check or copy; a :class:`ParseError` names the first
offending line, and what it says does not depend on the reader that took
the line.
:func:`serialize` formats ``SERIALIZE_ROWS`` rows per ``%`` call, so its
peak is about the output and its row slices.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from . import so3

FORMAT_HEADER = "VIEWGRAPH v1"  # parse reads it as tokens, as every record: any whitespace between
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


def _edge_faults(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The edge-structure rule, as masks over edges ``(u[i], v[i])``: an end
    outside ``[0, n)``, a self-loop, and a repeat of an earlier in-range pair
    (either direction); and the stable sort of the keys ``lo * n + hi``, over
    valid edges their ids by ``(lo, hi)``.  Out-of-range pairs get distinct
    negative keys, so that none aliases a valid pair."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    out_of_range = (lo < 0) | (hi >= n)
    keys = np.where(out_of_range, -1 - np.arange(u.size), lo * n + hi)
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(u.size, dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out_of_range, u == v, repeat, order


class ViewGraph:
    """Immutable view-graph: nodes with optional ground truth, measured edges
    stored by ``(u, v)``.  For an unsorted input, edge ``i`` of the graph is not
    edge ``i`` of the input: edge-ordered outputs (``CleanPrediction``, removal
    masks, :meth:`relative_gt_array`) follow the graph's order."""

    def __init__(self, n_nodes: int, u: ArrayLike, v: ArrayLike, q: ArrayLike,
                 label: ArrayLike | None = None, gt: ArrayLike | None = None):
        """Graph over integer edges ``(u[i], v[i])`` with numeric orientation
        rows ``q[i]`` and bool or integer labels ``label[i]`` (default -1),
        validated, flipped to ``u < v`` and sorted; ``gt`` is (N, 4) numeric
        rows, each all NaN or finite nonzero.  Stores read-only copies."""
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
        gt[known] = so3.qcanon(_finite_nonzero(
            gt[known], "ground-truth rows must be all NaN or finite nonzero"))
        u, v = (_array(x, "iu", "edge endpoints", np.int64).reshape(-1) for x in (u, v))
        m = u.size
        q = _array(q, "iuf", "edge orientations", np.float64) if m else np.zeros((0, 4))
        label = np.full(m, -1) if label is None else _array(label, "biu", "edge labels", None)
        if v.shape != (m,) or label.shape != (m,) or q.shape != (m, 4):
            raise ViewGraphError("edge arrays must have one entry per edge")
        if not np.all(np.isin(label, (-1, 0, 1))):
            raise ViewGraphError("edge labels must be -1 (unknown), 0 or 1")
        q = _finite_nonzero(q, "edge orientations must be finite nonzero rows")
        out_of_range, loop, repeat, order = _edge_faults(n, u, v)
        bad = out_of_range | loop | repeat
        if np.any(bad):
            i = int(np.argmax(bad))  # the first offending edge, in input order
            if out_of_range[i]:
                raise ViewGraphError(f"edge ({u[i]}, {v[i]}) references an unknown node")
            if loop[i]:
                raise ViewGraphError(f"self-loop at node {u[i]}")
            raise ViewGraphError(f"duplicate edge ({min(u[i], v[i])}, {max(u[i], v[i])})")
        self._keep(n, *_canonical_edges(u, v, q, label.astype(np.int8), order), gt)

    @classmethod
    def _from_valid(cls, n_nodes: int, u, v, q, label, gt) -> "ViewGraph":
        """Graph over arrays that already hold every invariant the constructor
        establishes (sorted by ``(u, v)`` too: built so, or taken from a valid
        graph by a mask and an order-keeping relabelling), stored read-only
        as given, without checks or copies."""
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
        """(N,) read-only undirected node degrees as a float array."""
        if self._degrees is None:
            counts = np.bincount(self._u, minlength=self._n) + np.bincount(self._v, minlength=self._n)
            self._degrees = counts.astype(np.float64)
            self._degrees.flags.writeable = False
        return self._degrees

    def relative_gt_array(self) -> np.ndarray:
        """(E, 4) ground-truth relative orientations in edge order."""
        return relative(self, self.gt_array())


def _canonical_edges(u: np.ndarray, v: np.ndarray, q: np.ndarray, label: np.ndarray, order):
    """Valid edges in :func:`_edge_faults`' ``order``, flipped to ``u < v``:
    ``(lo, hi, canonical rows, label)``, a flipped edge's row the canonical
    conjugate of its own.  Edges given sorted are not copied."""
    if np.any(order[1:] < order[:-1]):  # not the identity
        u, v, q, label = (x.take(order, axis=0) for x in (u, v, q, label))
    q = so3.qcanon(q)
    flip = u > v
    q[flip] = so3.qcanon(so3.qconj(q[flip]))
    return np.minimum(u, v), np.maximum(u, v), q, label


def _finite_nonzero(rows: np.ndarray, message: str) -> np.ndarray:
    """``rows`` for ``so3.qcanon``, a row whose norm overflows divided in place by
    its largest |component|; a :class:`ViewGraphError` with ``message`` unless
    every row is finite and of norm at least ``so3.ZERO_NORM_TOL``."""
    with np.errstate(over="ignore"):
        norms = so3.rownorm(rows)
    if not np.all(np.isfinite(rows)) or np.any(norms < so3.ZERO_NORM_TOL):
        raise ViewGraphError(message)
    big = np.isinf(norms)
    rows[big] /= np.abs(rows[big]).max(axis=1, keepdims=True)
    return rows


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


_LABELS = {"0": 0, "1": 1}  # any other gt_outlier token reads as 2, a fault


def _converted(tokens: list[str], dtype) -> tuple[np.ndarray, str | None]:
    """``tokens`` as a ``dtype`` array and None, or zeros and the message of
    what converting them raised (not the error: its traceback would hold
    the reader's frame, and with it the block's records, in a cycle)."""
    try:
        return np.array(tokens, dtype=dtype), None
    except (ValueError, OverflowError) as exc:
        return np.zeros(len(tokens), dtype=dtype), str(exc)


def _read_records(recs: list[list[str]], line_no: list[int], faults: list) -> tuple[tuple, tuple]:
    """The NODE and EDGE records among the token lists ``recs`` (on lines
    ``line_no``) as arrays, read one record at a time: ``(lines, ids,
    has_gt, gt rows)``, a row NaN where its line gives none, and ``(lines,
    uv, q, label)``.  Notes the faults that need the tokens (an unknown
    record, a token count, a token that does not convert) of the first line
    that has any, as no later line's can come first.  A bad token reads as
    zeros and a bad label as 2, for :func:`parse` to check at the end."""
    node: list[tuple] = []
    edge: list[tuple] = []
    noted = False
    for line, tokens in zip(line_no, recs):
        kind, width = tokens[0], len(tokens)
        found, bad_q = [], None  # this line's (rank, reason); its components' error message
        if kind == "NODE" and width in (2, 6):
            ids, bad = _converted(tokens[1:2], np.int64)
            q = np.full(4, np.nan)
            if width == 6:
                q, bad_q = _converted(tokens[2:6], np.float64)
            node.append((line, ids[0], width == 6, q))
            if bad is not None:
                found.append((2, f"bad node id {tokens[1]!r}"))
        elif kind == "EDGE" and width in (7, 8):
            uv, bad = _converted(tokens[1:3], np.int64)
            q, bad_q = _converted(tokens[3:7], np.float64)
            edge.append((line, uv, q, _LABELS.get(tokens[7], 2) if width == 8 else -1))
            if bad is not None:
                found.append((2, "bad edge endpoints"))
        elif kind == "NODE":
            found.append((1, "NODE takes an id and optionally 4 quaternion components"))
        elif kind == "EDGE":
            found.append((1, "EDGE takes u v qw qx qy qz [gt_outlier]"))
        else:
            found.append((0, f"unknown record {kind!r}"))
        if bad_q is not None:
            found.append((5, f"bad quaternion component: {bad_q}"))
        if found and not noted:
            faults += [(line, rank, reason) for rank, reason in found]
            noted = True
    (n_line, ids, has_gt, gq), (e_line, uv, q, label) = (tuple(zip(*rows)) or ((),) * 4
                                                         for rows in (node, edge))
    return ((np.array(n_line, dtype=np.int64), np.array(ids, dtype=np.int64),
             np.array(has_gt, dtype=bool), np.array(gq, dtype=np.float64).reshape(-1, 4)),
            (np.array(e_line, dtype=np.int64), np.array(uv, dtype=np.int64).reshape(-1, 2),
             np.array(q, dtype=np.float64).reshape(-1, 4), np.array(label, dtype=np.int8)))


# The C line reader's record layout for each line prefix and token count.
# The record name is read as one character; a label as two, so that no
# token but "0" and "1" reads as either (a longer one is cut to two).
_C_READER_DTYPES = {
    ("NODE ", 2): np.dtype([("name", "U1"), ("id", np.int64)]),
    ("NODE ", 6): np.dtype([("name", "U1"), ("id", np.int64), ("q", np.float64, (4,))]),
    ("EDGE ", 7): np.dtype([("name", "U1"), ("uv", np.int64, (2,)), ("q", np.float64, (4,))]),
    ("EDGE ", 8): np.dtype([("name", "U1"), ("uv", np.int64, (2,)), ("q", np.float64, (4,)),
                            ("label", "U2")]),
}


def _c_records(lines: list[str], prefix: str, line_no: np.ndarray) -> tuple | None:
    """``lines`` (on lines ``line_no``), which all start with ``prefix``, as
    the NODE or EDGE arrays of :func:`_read_records`, read by ``np.loadtxt``
    in the layout of the first line's token count; None where it might read
    them otherwise than :func:`_read_records`.

    The C reader refuses a line of another token count and every token that
    Python's converters refuse, and some that they read (``1_0``); the
    floats it reads are Python's, bit for bit.  It is given only ASCII text
    without NUL: its integer reader takes some non-ASCII characters for
    digits, and its strings drop a trailing NUL."""
    dtype = _C_READER_DTYPES.get((prefix, len(lines[0].split())))
    joined = "".join(lines)
    if dtype is None or not joined.isascii() or "\x00" in joined:
        return None
    try:
        rec = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    fields = rec.dtype.names
    if "id" in fields:
        has_gt = "q" in fields
        gq = rec["q"].copy() if has_gt else np.full((rec.size, 4), np.nan)
        return line_no, rec["id"].copy(), np.full(rec.size, has_gt), gq
    label = np.full(rec.size, -1, dtype=np.int8)
    if "label" in fields:
        token = rec["label"]
        label[:] = np.where(token == "0", 0, np.where(token == "1", 1, 2))
    return line_no, rec["uv"].copy(), rec["q"].copy(), label


def _read_block(lines: list[str], first: int, nodes: list, edges: list, faults: list) -> None:
    """Append the NODE and EDGE record arrays of ``lines`` (numbered from
    ``first``) to ``nodes`` and ``edges``, in any order: the lines of each
    prefix in one :func:`_c_records` call, and the lines of a group it
    refuses with every other line in one :func:`_read_records` call."""
    taken: dict[str, list[int]] = {"NODE ": [], "EDGE ": []}
    rest: list[int] = []
    for i, line in enumerate(lines):
        taken.get(line[:5], rest).append(i)
    for prefix, rows in taken.items():
        part = _c_records([lines[i] for i in rows], prefix,
                          np.array(rows, dtype=np.int64) + first) if rows else None
        if part is None:
            rest += rows
        else:
            (nodes if prefix == "NODE " else edges).append(part)
    recs, line_no = [], []
    for i in sorted(rest):
        tokens = lines[i].split()
        if tokens:
            recs.append(tokens)
            line_no.append(first + i)
    node, edge = _read_records(recs, line_no, faults)
    nodes.append(node)
    edges.append(edge)


def _in_line_order(parts: list[tuple]) -> tuple:
    """The record arrays ``parts`` (each a tuple of line numbers and
    columns) concatenated and sorted by line."""
    line_no, *cols = (np.concatenate(c) for c in zip(*parts))
    if np.any(line_no[1:] < line_no[:-1]):  # the records of several reads interleave
        order = np.argsort(line_no, kind="stable")  # merges the reads' sorted runs
        line_no, cols = line_no[order], [c[order] for c in cols]
    return (line_no, *cols)


def parse(text: str) -> ViewGraph:
    """Parse the text format; raises :class:`ParseError` with line numbers.

    The text is read in blocks of whole lines of about ``PARSE_BLOCK_CHARS``
    characters, by two readers.  A block's lines that start with ``"NODE "``
    go to numpy's C line reader (``np.loadtxt``) in one call, and those that
    start with ``"EDGE "`` in another; a call is kept only where it reads
    every line as Python's converters would (ASCII without NUL, one token
    count, every token valid).  A refused group goes whole, with every
    other line (another prefix, a tab, leading whitespace), to
    :func:`_read_records`, one line at a time: the benchmark's texts, and
    ``serialize``'s of a graph with one token count per record name, never
    reach it, so it is written to be short, and it converts each record's
    tokens with the one ``np.array`` call whose error names a bad token.
    Both readers' records are merged in line order, and the whole-file
    checks then run once, as masks over the concatenated arrays.  The error
    names the first offending line; within a line the checks rank as the
    record reads (token count, ids, self-loop, duplicate, quaternion
    components, norm, label).  An edge whose end is not a declared node is
    reported at its line, but only after the last line, since nodes may
    follow edges; non-dense node ids raise :class:`ViewGraphError`.  The
    checked arrays are sorted, flipped to ``u < v`` and canonicalised as the
    constructor does, and stored.
    """
    faults: list[tuple[int, int, str]] = []  # (line, rank within the line, reason)
    nodes: list[tuple] = []
    edges: list[tuple] = []
    header = False
    for first, lines in _line_blocks(text):
        if not header:
            top = next((i for i, line in enumerate(lines) if line.strip()), None)
            if top is None:
                continue
            if lines[top].split() != FORMAT_HEADER.split():
                raise ParseError(first + top, f"expected header '{FORMAT_HEADER}'")
            header, first, lines = True, first + top + 1, lines[top + 1:]
        _read_block(lines, first, nodes, edges, faults)
    if not header:
        raise ParseError(1, f"missing header '{FORMAT_HEADER}'")
    node_line, ids, has_gt, gq = _in_line_order(nodes)
    edge_line, uv, q, label = _in_line_order(edges)
    del nodes, edges

    def note(mask: np.ndarray, line_no: np.ndarray, rank: int, reason) -> None:
        """Note ``(line, rank, reason(i))`` for the first record ``i`` at
        which ``mask`` holds; ``line_no`` numbers the masked records."""
        if np.any(mask):
            i = int(np.argmax(mask))
            faults.append((int(line_no[i]), rank, reason(i)))

    def check_norm(rows: np.ndarray, line_no: np.ndarray) -> None:
        with np.errstate(over="ignore"):  # a component past 1e154 gives an inf norm, which fails
            norm = so3.rownorm(rows)
        note(~(np.abs(norm - 1.0) <= RENORM_TOL), line_no, 6,  # so that a NaN norm fails too
             lambda i: f"quaternion norm {norm[i]:.9g} deviates from 1 beyond {RENORM_TOL}")

    note(ids < 0, node_line, 3, lambda i: "node ids must be non-negative")
    dup = np.ones(ids.size, dtype=bool)
    dup[np.unique(ids, return_index=True)[1]] = False  # all but each id's first line
    note(dup, node_line, 4, lambda i: f"duplicate node {ids[i]}")
    gq = gq[has_gt]  # the rows of the lines that give one
    check_norm(gq, node_line[has_gt])

    n = ids.size
    u, v = uv[:, 0], uv[:, 1]
    undeclared, loop, repeat, order = _edge_faults(n, u, v)
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
    return ViewGraph._from_valid(n, *_canonical_edges(u, v, q, label, order), gt)


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

def discrepancy_parts(g: ViewGraph, rows: np.ndarray, quats) -> tuple[np.ndarray, ...]:
    """The four component arrays of :func:`discrepancy`, ``quats`` the
    components of the edge quaternions; the node rows are gathered component-major."""
    if rows.shape != (g.n_nodes, 4):  # one comparison: IRLS calls this every iteration
        raise ViewGraphError(f"orientation rows must be ({g.n_nodes}, 4), got {rows.shape}")
    u, v = g.endpoint_arrays()
    # conjugate the N rows before the gather, not E; ``take`` beats indexing here
    return so3.qmul_parts(so3.qconj(rows).T.take(v, axis=1),
                          so3.qmul_parts(quats, rows.T.take(u, axis=1)))


def discrepancy(g: ViewGraph, rows: np.ndarray) -> np.ndarray:
    """(E, 4) residuals ``rows_v^-1 * q_uv * rows_u`` of (N, 4) orientation rows,
    the identity where they explain an edge; a conjugate is the reverse one's.
    FineNet's edge feature; IRLS reads the same residuals as component
    arrays (:func:`discrepancy_parts`)."""
    return so3.stack_rows(discrepancy_parts(g, rows, so3.components(g.edge_quat_array())))


def relative(g: ViewGraph, rows: np.ndarray) -> np.ndarray:
    """(E, 4) relative orientations ``rows_v * rows_u^-1`` of (N, 4) rows, in edge order."""
    return so3.qcanon(so3.qmul(rows[g._v], so3.qconj(rows[g._u])))


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def in_edges(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2E directed edges of the edges ``(u, v)`` of an ``n``-node graph,
    by target: int64 ``(order, src, bounds)``.  Directed edge ``j < E`` is
    ``u[j] -> v[j]`` and ``j >= E`` the reverse of edge ``j - E``; ``order``
    is their stable sort by target, one ``np.argsort`` of the targets in
    their smallest unsigned type (numpy's radix sort up to N = 65,536, its
    timsort above), ``src`` their sources in that order, and node ``t``'s
    in-edges are ``order[bounds[t]:bounds[t + 1]]``, so ``np.diff(bounds)``
    is the degree.
    Over edges stored as a :class:`ViewGraph` stores them, each node's
    in-edges come by source: the forward ones (sources ``u < t``) in ``u``
    order, then the reversed ones (sources ``v > t``) in ``v`` order.
    """
    dst, src = np.concatenate([v, u]), np.concatenate([u, v])
    order = np.argsort(dst.astype(np.min_scalar_type(n - 1)), kind="stable")
    bounds = np.append(0, np.cumsum(np.bincount(dst, minlength=n)))
    return order, src.take(order), bounds


def spanning_forest(n: int, u: np.ndarray, v: np.ndarray,
                    w: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Spanning forest of the edges ``(u, v)`` of an ``n``-node graph:
    int64 ``(edges, label)``, the forest's edge ids in ascending order and,
    per node, the smallest node id of its connected component.

    Edges are ranked by descending weight ``w`` with ties to the lower edge
    id, or by edge id alone without ``w``; under that strict order the
    forest is unique, the one Kruskal's algorithm picks.  The ranking is
    the default (unstable) argsort of ``-w`` with only the runs of tied
    weights re-sorted by edge id, cheaper than a stable sort of every
    weight; ties are common in IRLS (every weight is 1 in its first
    iteration, and residuals clamped at its floor ``baselines.IRLS_DELTA``
    share one weight).  Boruvka rounds: each component takes its
    best-ranked outgoing edge (a segment minimum of the ranks) and hooks
    onto the component across it; of two components that picked the same
    edge the smaller label stays a root, and pointer jumping relabels every
    merged component by its root.  Edges inside a component leave the
    search.  Last, each component takes its smallest member as its label.
    """
    if w is None:
        by_rank = np.arange(u.size)
        ru, rv = u, v
    else:
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
    live = np.arange(u.size)  # ranks of the edges between components
    label = np.arange(n)
    ids = np.arange(n)
    picked = np.zeros(u.size, dtype=bool)
    while True:
        lu, lv = label[ru[live]], label[rv[live]]
        cross = lu != lv
        if not cross.any():
            low = np.full(n, n)
            np.minimum.at(low, label, ids)  # each root's smallest member
            return np.flatnonzero(picked), low[label]
        live, lu, lv = live[cross], lu[cross], lv[cross]
        best = np.full(n, u.size)
        np.minimum.at(best, lu, live)
        np.minimum.at(best, lv, live)
        comp = np.flatnonzero(best < u.size)
        pick = best[comp]
        picked[by_rank[pick]] = True
        hook = ids.copy()
        hook[comp] = label[ru[pick]] + label[rv[pick]] - comp  # the component across
        hook = np.where((hook[hook] == ids) & (ids < hook), ids, hook)
        while not np.array_equal(hook[hook], hook):
            hook = hook[hook]
        label = hook[label]


def is_connected(g: ViewGraph) -> bool:
    return spanning_forest(g.n_nodes, *g.endpoint_arrays())[0].size >= g.n_nodes - 1


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
    label = spanning_forest(g.n_nodes, *g.endpoint_arrays())[1]
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
    keys = u * n + v  # ascending: the graph stores its edges by (u, v)
    padded = np.append(keys, -1)  # so that a search past the end reads a value
    rows = np.full((n, 4), np.nan)
    rows[root] = (1.0, 0.0, 0.0, 0.0)
    for d in range(1, int(depth.max(initial=0)) + 1):
        child = np.flatnonzero(depth == d)
        par = parent[child]
        want = np.minimum(par, child) * n + np.maximum(par, child)
        pos = np.searchsorted(keys, want)
        missing = padded[pos] != want
        if np.any(missing):
            i = int(np.argmax(missing))
            raise ViewGraphError(f"no stored measurement between {par[i]} and {child[i]}")
        q_pc = g.edge_quat_array()[pos]
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
        got = "" if rows is None else f", got {rows.shape}"
        raise ViewGraphError(f"orientations must be ({g.n_nodes}, 4){got}: rows covering every node")
    return so3.qcanon(_finite_nonzero(rows, "orientations must be finite nonzero rows"))


def rereference(rows: np.ndarray, c: int) -> np.ndarray:
    """Right-multiply (N, 4) orientation rows by ``q_c^-1`` so node ``c`` is
    the identity.  A pure gauge action: every pairwise relative orientation
    is unchanged."""
    c = node_id(c, len(rows), "reference node")
    return so3.qcanon(so3.qmul(rows, so3.qcanon(so3.qconj(rows[c]))))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class GraphStats:
    """Per-edge measurement angles, kept only for the benchmark adapter."""

    rel_angles_deg: np.ndarray  # (E,) rotation angle of each measurement


def graph_stats(g: ViewGraph) -> GraphStats:
    """The rotation angle of every measured edge, in edge order."""
    return GraphStats(rel_angles_deg=so3.angle_deg(g.edge_quat_array()))
