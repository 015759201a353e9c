"""The whole-text view-graph parser: the tests' oracle.

``rotavg.viewgraph.parse`` reads the text in blocks of whole lines and runs
the whole-file checks once on the concatenated arrays, so that its peak
memory does not grow with the token lists of the whole file.  ``parse``
here is the parser it replaced: it splits the whole text at once and checks
every block of records with masks.  Both must give the same graph, bit for
bit, or raise the same error type naming the same line with the same
message.
"""

from __future__ import annotations

import numpy as np

from rotavg import so3
from rotavg.viewgraph import (FORMAT_HEADER, RENORM_TOL, ParseError, ViewGraph, ViewGraphError,
                              _conversion_error, _convert, _edge_faults)


def parse(text: str) -> ViewGraph:
    """Parse the text format; raises :class:`ParseError` with line numbers.

    The text is split once, the NODE and EDGE blocks are converted with one
    ``np.array`` call per column group, and every check is a mask over a
    block.  The error names the first offending line; within a line the
    checks rank as the record reads (token count, ids, self-loop, duplicate,
    quaternion components, norm, label).  An edge whose end is not a
    declared node is reported at its line, but only after the last line,
    since nodes may follow edges; non-dense node ids raise
    :class:`ViewGraphError`.
    """
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()]
    tokens = [line.split() for line in lines]
    filled = [i for i, t in enumerate(tokens) if t]
    if not filled:
        raise ParseError(1, f"missing header '{FORMAT_HEADER}'")
    if lines[filled[0]].strip() != FORMAT_HEADER:
        raise ParseError(filled[0] + 1, f"expected header '{FORMAT_HEADER}'")
    del lines  # the token lists are all that is read from here on: free the line copies
    recs = [tokens[i] for i in filled[1:]]
    line_no = np.array(filled[1:], dtype=np.int64) + 1
    width = np.array([len(t) for t in recs], dtype=np.int64)
    kind = np.array([t[0] for t in recs], dtype=object)
    is_node, is_edge = kind == "NODE", kind == "EDGE"
    faults: list[tuple[int, int, str]] = []  # (line, rank within the line, reason)

    def first(mask: np.ndarray, rows: np.ndarray, rank: int, reason) -> None:
        """Note the first of the records ``rows`` at which ``mask`` holds."""
        if np.any(mask):
            i = int(np.argmax(mask))
            faults.append((int(line_no[rows[i]]), rank, reason(i)))

    def quaternions(block: list[list[str]], rows: np.ndarray, lo: int) -> np.ndarray:
        q, bad = _convert(block, lo, lo + 4, np.float64)
        first(bad, rows, 5, lambda i: "bad quaternion component: "
              f"{_conversion_error(block[i][lo:lo + 4], np.float64)}")
        norm = so3.rownorm(q)
        first(~(np.abs(norm - 1.0) <= RENORM_TOL), rows, 6,  # so that a NaN norm fails too
              lambda i: f"quaternion norm {norm[i]:.9g} deviates from 1 beyond {RENORM_TOL}")
        return q

    every = np.arange(len(recs))
    node_ok, edge_ok = is_node & np.isin(width, (2, 6)), is_edge & np.isin(width, (7, 8))
    first(~is_node & ~is_edge, every, 0, lambda i: f"unknown record {kind[i]!r}")
    first(is_node & ~node_ok, every, 1,
          lambda i: "NODE takes an id and optionally 4 quaternion components")
    first(is_edge & ~edge_ok, every, 1, lambda i: "EDGE takes u v qw qx qy qz [gt_outlier]")

    node = np.flatnonzero(node_ok)
    node_recs = [recs[r] for r in node.tolist()]
    ids, bad = _convert(node_recs, 1, 2, np.int64)
    ids = ids[:, 0]
    first(bad, node, 2, lambda i: f"bad node id {node_recs[i][1]!r}")
    first(ids < 0, node, 3, lambda i: "node ids must be non-negative")
    dup = np.ones(node.size, dtype=bool)
    dup[np.unique(ids, return_index=True)[1]] = False  # all but each id's first line
    first(dup, node, 4, lambda i: f"duplicate node {ids[i]}")
    has_gt = width[node] == 6
    gq = quaternions([r for r, h in zip(node_recs, has_gt.tolist()) if h], node[has_gt], 2)

    n = node.size
    edge = np.flatnonzero(edge_ok)
    edge_recs = [recs[r] for r in edge.tolist()]
    uv, bad = _convert(edge_recs, 1, 3, np.int64)
    u, v = uv[:, 0], uv[:, 1]
    first(bad, edge, 2, lambda i: "bad edge endpoints")
    undeclared, loop, repeat = _edge_faults(n, u, v)
    first(loop, edge, 3, lambda i: f"self-loop at node {u[i]}")
    first(repeat, edge, 4, lambda i: f"duplicate edge ({u[i]}, {v[i]})")
    q = quaternions(edge_recs, edge, 3)
    labelled = np.flatnonzero(width[edge] == 8)
    label_tok = np.array([edge_recs[i][7] for i in labelled.tolist()], dtype=object)
    first((label_tok != "0") & (label_tok != "1"), edge[labelled], 7,
          lambda i: "gt_outlier must be 0 or 1")

    if faults:
        line, _, reason = min(faults)
        raise ParseError(line, reason)
    if n and ids.max() >= n:  # ids are distinct and non-negative here
        raise ViewGraphError("node ids must be dense in [0, N)")
    if np.any(undeclared):
        i = int(np.argmax(undeclared))
        raise ParseError(int(line_no[edge[i]]),
                         f"edge ({u[i]}, {v[i]}) references an undeclared node")
    label = np.full(edge.size, -1, dtype=np.int8)
    label[labelled] = label_tok == "1"
    gt = np.full((n, 4), np.nan)
    gt[ids[has_gt]] = gq
    return ViewGraph(n, u, v, q, label, gt)
