from __future__ import annotations

import ast
import importlib.util
import re
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import parse_oracle
import so3_oracle
from rotavg import so3, synthgen, viewgraph
from rotavg.viewgraph import ParseError, ViewGraph, ViewGraphError
from so3_oracle import Edge, UnitQuaternion, as_quats, edge_graph, edge_records


def small_graph(with_gt=True):
    rng = np.random.default_rng(0)
    gt = [so3_oracle.sample_uniform(rng) for _ in range(4)]
    edges = [
        Edge(0, 1, so3_oracle.relative(gt[0], gt[1])),
        Edge(1, 2, so3_oracle.relative(gt[1], gt[2])),
        Edge(2, 3, so3_oracle.relative(gt[2], gt[3])),
        Edge(0, 2, so3_oracle.relative(gt[0], gt[2])),
    ]
    return edge_graph(4, edges, gt if with_gt else None)


def gt_quats(g: ViewGraph) -> list[UnitQuaternion]:
    """Ground-truth rows as the quaternion oracle's values."""
    return as_quats(g.gt)


def bfs_depths(g: ViewGraph, root: int) -> list[int]:
    # independent BFS oracle kept free of the library's tree code
    nbrs: list[set[int]] = [set() for _ in range(g.n_nodes)]
    for e in edge_records(g):
        nbrs[e.u].add(e.v)
        nbrs[e.v].add(e.u)
    depth = [-1] * g.n_nodes
    depth[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in sorted(nbrs[v]):
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                queue.append(u)
    return depth


def neighbour_lists(g: ViewGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n_nodes)]
    for a, b in zip(*(x.tolist() for x in g.endpoint_arrays())):
        adj[a].append(b)
        adj[b].append(a)
    return adj


def deque_components(g: ViewGraph) -> list[list[int]]:
    # the deque BFS labelling the array code replaced, kept as the oracle
    adj = neighbour_lists(g)
    seen = [False] * g.n_nodes
    comps: list[list[int]] = []
    for start in range(g.n_nodes):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def deque_tree(g: ViewGraph, root: int) -> tuple[list[int], list[int]]:
    # the deque BFS tree the array code replaced, kept as the oracle;
    # depths are -1 and parents None where the root does not reach
    adj = neighbour_lists(g)
    depth = [-1] * g.n_nodes
    depth[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                queue.append(u)
    parent = [-1 if v == root else min((u for u in adj[v] if depth[u] == depth[v] - 1), default=None)
              for v in range(g.n_nodes)]
    return depth, parent


@st.composite
def random_graphs(draw) -> ViewGraph:
    """Random simple graphs, often disconnected, with isolated nodes; half of
    them are two relabelled copies of one graph, so equal-size components tie."""
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        picked = picked + [(a + n, b + n) for a, b in picked]
        n *= 2
    perm = draw(st.permutations(range(n)))
    ends = np.array([(perm[a], perm[b]) for a, b in picked], dtype=np.int64).reshape(-1, 2)
    q = np.tile([1.0, 0.0, 0.0, 0.0], (len(ends), 1))
    return ViewGraph(n, ends[:, 0], ends[:, 1], q)


def loop_canonical(n: int, edges: list[Edge]) -> list[Edge]:
    # per-edge validation loop of the Edge-list constructor, kept as the
    # oracle; the graph stores the checked edges sorted by (u, v)
    seen: set[tuple[int, int]] = set()
    out = []
    for e in edges:
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise ViewGraphError(f"edge ({e.u}, {e.v}) references an unknown node")
        if e.u == e.v:
            raise ViewGraphError(f"self-loop at node {e.u}")
        if e.u > e.v:
            e = Edge(e.v, e.u, so3_oracle.inverse(e.q), e.gt_outlier)
        if (e.u, e.v) in seen:
            raise ViewGraphError(f"duplicate edge ({e.u}, {e.v})")
        seen.add((e.u, e.v))
        out.append(e)
    return sorted(out, key=lambda e: (e.u, e.v))


@st.composite
def edge_lists(draw, valid: bool):
    """(n, edges) with random orientations, labels and directions; with
    ``valid`` every pair is distinct and in range, otherwise ends may repeat,
    coincide or fall outside [0, n)."""
    n = draw(st.integers(1, 8))
    if valid:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        ends = [(b, a) if draw(st.booleans()) else (a, b) for a, b in picked]
    else:
        end = st.integers(-1, n)
        ends = draw(st.lists(st.tuples(end, end), max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(st.lists(st.sampled_from([None, False, True]),
                           min_size=len(ends), max_size=len(ends)))
    return n, [Edge(a, b, so3_oracle.sample_uniform(rng), lab) for (a, b), lab in zip(ends, labels)]


def arrays_of(n: int, edges: list[Edge]) -> ViewGraph:
    return ViewGraph(
        n, [e.u for e in edges], [e.v for e in edges], [e.q.as_array() for e in edges],
        [-1 if e.gt_outlier is None else int(e.gt_outlier) for e in edges],
    )


def outcome(build):
    try:
        g = build()
    except ViewGraphError as exc:
        return str(exc)
    u, v = g.endpoint_arrays()
    return u.tolist(), v.tolist(), g.edge_quat_array().tolist(), g.edge_labels().tolist()


class TestArrayStore:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists(valid=True))
    def test_constructors_agree_with_loop_oracle(self, case):
        n, edges = case
        canon = loop_canonical(n, edges)
        expected = (
            [e.u for e in canon], [e.v for e in canon], [e.q.as_array().tolist() for e in canon],
            [-1 if e.gt_outlier is None else int(e.gt_outlier) for e in canon],
        )
        assert outcome(lambda: edge_graph(n, edges)) == expected
        assert outcome(lambda: arrays_of(n, edges)) == expected
        g = arrays_of(n, edges)
        assert type(g.n_edges) is int and g.n_edges == len(g.edges) == len(canon)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists(valid=False))
    def test_errors_agree_with_loop_oracle(self, case):
        n, edges = case
        try:
            loop_canonical(n, edges)
            expected = None
        except ViewGraphError as exc:
            expected = str(exc)
        for build in (lambda: edge_graph(n, edges), lambda: arrays_of(n, edges)):
            got = outcome(build)
            assert (got if isinstance(got, str) else None) == expected

    def test_stored_arrays_are_read_only(self):
        u = np.array([1, 0])
        q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        g = ViewGraph(3, u, [0, 2], q, [1, -1])
        for arr in (*g.endpoint_arrays(), g.edge_quat_array(), g.edge_labels()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # the inputs were copied, not frozen or aliased
        u[0] = 2
        q[0, 0] = 5.0
        assert g.endpoint_arrays()[0].tolist() == [0, 0] and g.edge_quat_array()[0, 0] == 1.0

    def test_edge_records(self):
        g = ViewGraph(3, [1, 0], [0, 2], so3.qcanon(np.eye(4)[:2]), [1, -1])
        pairs = g.edges
        assert pairs.dtype == np.int64 and pairs.tolist() == [[0, 1], [0, 2]]
        assert len(g.edges) == g.n_edges == 2 and tuple(g.edges[-1]) == (0, 2)
        with pytest.raises(ValueError, match="read-only"):
            pairs[0, 0] = 1
        with pytest.raises(IndexError):
            g.edges[2]
        assert ViewGraph(2, [], [], np.zeros((0, 4))).edges.shape == (0, 2)

    def test_non_integer_sizes_and_ends_rejected(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0]])
        for n in (2.5, "3", None):
            with pytest.raises(ViewGraphError, match="n_nodes must be an integer"):
                ViewGraph(n, [0], [1], q)
        # True would otherwise count as 1 and build a one-node graph
        for n in (True, False, np.True_):
            with pytest.raises(ViewGraphError, match="n_nodes must be an integer"):
                ViewGraph(n, [], [], [])
        # a float end would otherwise be truncated: (0.7, 1.2) stored as (0, 1)
        for u, v in (([0.7], [1.2]), ([0], [1.0]), (np.array([True]), [0])):
            with pytest.raises(ViewGraphError, match="endpoints must be integers"):
                ViewGraph(3, u, v, q)
        g = ViewGraph(np.int32(3), np.array([0], dtype=np.uint8), [2], q)
        assert g.n_nodes == 3 and type(g.n_nodes) is int and g.edges.tolist() == [[0, 2]]
        assert ViewGraph(2, [], np.zeros(0), np.zeros((0, 4))).n_edges == 0

    @pytest.mark.parametrize("label", [[0.5], [1.7], [256], [np.nan], [None], ["1"], [1.0]])
    def test_non_integer_labels_rejected(self, label):
        # an int8 cast would store 0.5 as 0 and 1.7 as 1, and overflow at 256
        q = np.array([[1.0, 0.0, 0.0, 0.0]])
        reason = "-1 \\(unknown\\), 0 or 1" if label == [256] else "integers"
        with pytest.raises(ViewGraphError, match=f"edge labels must be {reason}"):
            ViewGraph(2, [0], [1], q, label)
        for label, stored in (([True], 1), (np.array([0], dtype=np.uint8), 0), ([-1], -1)):
            assert ViewGraph(2, [0], [1], q, label).edge_labels().tolist() == [stored]

    def test_non_numeric_rows_rejected(self):
        q = [[1.0, 0.0, 0.0, 0.0]]
        # text would be parsed as numbers by a float cast, or fail with a bare ValueError
        for bad in ([["a", 0.0, 0.0, 0.0]], [["1.0", "0", "0", "0"]], [[1.0, 0.0], [1.0]]):
            with pytest.raises(ViewGraphError, match="edge orientations must be numbers"):
                ViewGraph(2, [0], [1], bad)
            with pytest.raises(ViewGraphError, match="ground truth must be numbers"):
                ViewGraph(2, [0], [1], q, gt=[[1.0, 0.0, 0.0, 0.0], *bad])
        assert ViewGraph(2, [0], [1], [[1, 0, 0, 0]], gt=np.eye(4, dtype=int)[:2]).n_edges == 1

    def test_malformed_arrays_rejected(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ViewGraphError, match="one entry per edge"):
            ViewGraph(2, [0], [1], q[:, :3])
        with pytest.raises(ViewGraphError, match="labels"):
            ViewGraph(2, [0], [1], q, [2])
        with pytest.raises(ViewGraphError, match="finite nonzero"):
            ViewGraph(2, [0], [1], q * np.nan)
        with pytest.raises(ViewGraphError, match="finite nonzero"):
            ViewGraph(2, [0], [1], q * 0.0)

    def test_rows_whose_norm_overflows_are_normalised(self):
        # a 1e200 component's square overflows, so its row's norm is inf
        rows = so3.sample_uniform_rows(np.random.default_rng(0), 3)
        g = ViewGraph(3, [0, 1], [1, 2], 1e200 * rows[:2], gt=-1e200 * rows)
        assert np.max(np.abs(g.edge_quat_array() - rows[:2])) < 1e-15
        assert np.max(np.abs(g.gt - rows)) < 1e-15
        g = ViewGraph(2, [0], [1], [[-1e200, 0.0, 0.0, 0.0]],
                      gt=[[0.0, 0.0, 1e300, 0.0], [1e200] * 4])
        assert np.array_equal(g.edge_quat_array(), [[1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(g.gt, [[0.0, 0.0, 1.0, 0.0], [0.5] * 4])


@st.composite
def labelled_graphs(draw) -> ViewGraph:
    """Valid graphs from ``edge_lists`` (random directions, orientations and
    labels) with ground truth, NaN for a random subset of the nodes."""
    n, edges = draw(edge_lists(valid=True))
    gt = so3.sample_uniform_rows(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    gt[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = np.nan
    return ViewGraph(
        n, [e.u for e in edges], [e.v for e in edges], [e.q.as_array() for e in edges],
        [-1 if e.gt_outlier is None else int(e.gt_outlier) for e in edges], gt,
    )


def loop_serialize(g: ViewGraph) -> str:
    """The former serializer (an f-string and four ``format(c, ".17g")`` calls
    per line), kept as the oracle of the block one."""
    lines = [viewgraph.FORMAT_HEADER]

    def quat(components) -> str:
        return " ".join(format(c, ".17g") for c in components)

    for i, q in enumerate(g.gt.tolist()):
        lines.append(f"NODE {i}" if np.isnan(q[0]) else f"NODE {i} {quat(q)}")
    u, v = g.endpoint_arrays()
    for a, b, q, label in zip(u.tolist(), v.tolist(), g.edge_quat_array().tolist(),
                              g.edge_labels().tolist()):
        suffix = "" if label < 0 else f" {label}"
        lines.append(f"EDGE {a} {b} {quat(q)}{suffix}")
    return "\n".join(lines) + "\n"


CORRUPTIONS = ("token", "count", "norm", "self-loop", "repeat", "label", "record", "range")


def corrupted_text(g: ViewGraph, how: str, data) -> tuple[str, int]:
    """The text of ``g`` after a comment line, with one record line broken
    the ``how`` way (one of ``CORRUPTIONS``), and that line's number."""
    lines = ["# one line of this copy is corrupted"] + viewgraph.serialize(g).splitlines()
    first = lines.index(viewgraph.FORMAT_HEADER) + 1
    records = list(range(first, len(lines)))
    edges = [i for i in records if lines[i].startswith("EDGE")]
    pool = {"norm": [i for i in records if len(lines[i].split()) >= 6],
            "self-loop": edges, "repeat": edges[1:], "label": edges, "range": edges}
    pool = pool.get(how, records)
    assume(pool)
    i = data.draw(st.sampled_from(pool))
    tok = lines[i].split()
    if how == "token":  # an id, an endpoint, a component or the label
        tok[data.draw(st.integers(1, len(tok) - 1))] = "x"
    elif how == "count":
        tok = tok + ["0"] if len(tok) == 8 else tok[:-1]
    elif how == "norm":
        at = 2 if tok[0] == "NODE" else 3
        tok[at:at + 4] = [repr(float(c) * 1.001) for c in tok[at:at + 4]]
    elif how == "self-loop":
        tok[2] = tok[1]
    elif how == "repeat":  # an earlier edge again, possibly reversed
        tok = lines[data.draw(st.sampled_from([j for j in edges if j < i]))].split()
        if data.draw(st.booleans()):
            tok[1], tok[2] = tok[2], tok[1]
    elif how == "label":
        tok = tok[:7] + [data.draw(st.sampled_from(["2", "-1", "01", "yes"]))]
    elif how == "record":
        tok[0] = data.draw(st.sampled_from(["FOO", "edge", "NODES"]))
    else:  # an endpoint that is not a declared node
        tok[data.draw(st.sampled_from([1, 2]))] = data.draw(
            st.sampled_from([str(g.n_nodes), "-1", str(g.n_nodes + 7)]))
    lines[i] = " ".join(tok)
    return "\n".join(lines) + "\n", i + 1


class TestFormat:
    def test_empty_graph(self):
        g = viewgraph.parse("VIEWGRAPH v1\n")
        assert g.n_nodes == 0 and len(g.edges) == 0

    def test_two_node_file(self):
        text = "VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 1 0 0 0\n"
        g = viewgraph.parse(text)
        assert g.n_nodes == 2 and len(g.edges) == 1
        assert so3_oracle.geodesic_deg(edge_records(g)[0].q, UnitQuaternion.identity()) == 0.0

    def test_round_trip_semantics(self):
        g = small_graph()
        g2 = viewgraph.parse(viewgraph.serialize(g))
        assert g2.n_nodes == g.n_nodes
        for a, b in zip(edge_records(g), edge_records(g2)):
            assert (a.u, a.v) == (b.u, b.v)
            assert so3_oracle.geodesic_deg(a.q, b.q) < 1e-9
        for a, b in zip(gt_quats(g), gt_quats(g2)):
            assert so3_oracle.geodesic_deg(a, b) < 1e-9

    def test_round_trip_fuzz(self):
        for seed in range(100):
            cfg = synthgen.SynthConfig(
                n_cameras=(4, 15), edge_fraction=(0.3, 0.8), sigma_deg=(0.0, 20.0), seed=seed
            )
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed))
            text = viewgraph.serialize(g)
            assert viewgraph.serialize(viewgraph.parse(text)) == text

    def test_comment_and_label_round_trip(self):
        body = "VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 1 0 0 0 1\n"
        g = viewgraph.parse("# provenance: test\n" + body.replace("NODE 1\n", "NODE 1  # b\n"))
        assert edge_records(g)[0].gt_outlier is True
        assert viewgraph.serialize(g) == body

    @pytest.mark.parametrize("header", ["VIEWGRAPH\tv1", "VIEWGRAPH  v1", "  VIEWGRAPH v1 # x"])
    def test_header_reads_as_whitespace_separated_tokens(self, header):
        # as every NODE and EDGE record does, in the parser and its oracle
        body = "\nNODE 0\nNODE 1\nEDGE 0 1 1 0 0 0\n"
        for parse in (viewgraph.parse, parse_oracle.parse):
            assert stored_arrays(parse(header + body)) == stored_arrays(parse("VIEWGRAPH v1" + body))
            with pytest.raises(ParseError, match="line 1: expected header"):
                parse(header.replace("v1", "v2") + body)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            viewgraph.parse("NODE 0\n")
        with pytest.raises(ParseError, match="line 3"):
            viewgraph.parse("VIEWGRAPH v1\nNODE 0\nNODE x\n")
        with pytest.raises(ParseError, match="line 4"):
            viewgraph.parse("VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 1 0 0\n")
        with pytest.raises(ParseError, match="line 4"):
            viewgraph.parse("VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 nan 0 0 0\n")
        with pytest.raises(ParseError, match="line 2"):
            viewgraph.parse("VIEWGRAPH v1\nNODE 0 1 nan 0 0\n")
        # nodes may be declared after edges: the first bad edge is named at the end
        with pytest.raises(ParseError, match=r"line 3: edge \(-1, 1\) references an undeclared"):
            viewgraph.parse("VIEWGRAPH v1\nNODE 0\nEDGE -1 1 1 0 0 0\nNODE 1\n")
        with pytest.raises(ParseError, match=r"line 4: edge \(0, 5\) references an undeclared"):
            viewgraph.parse("VIEWGRAPH v1\nNODE 0\nEDGE 1 0 1 0 0 0\nEDGE 0 5 1 0 0 0\n"
                            "EDGE 0 -2 1 0 0 0\nNODE 1\n")

    def test_first_bad_line_wins(self):
        head = "VIEWGRAPH v1\nNODE 0\nNODE 1\nNODE 2\n"
        with pytest.raises(ParseError, match="line 5: quaternion norm"):
            viewgraph.parse(head + "EDGE 0 1 2 0 0 0\nEDGE 1 1 1 0 0 0\n")
        with pytest.raises(ParseError, match="line 6: duplicate edge"):
            viewgraph.parse(head + "EDGE 0 1 1 0 0 0\nEDGE 1 0 1 0 0 0\nEDGE 2 0 1 0 0 0 7\n")

    @settings(max_examples=150, deadline=None)
    @given(labelled_graphs())
    def test_round_trip_random_graphs(self, g):
        text = viewgraph.serialize(g)
        back = viewgraph.parse(text)
        assert back.n_nodes == g.n_nodes
        for a, b in ((g.endpoint_arrays(), back.endpoint_arrays()),
                     ((g.edge_quat_array(), g.edge_labels(), g.gt),
                      (back.edge_quat_array(), back.edge_labels(), back.gt))):
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
        assert viewgraph.serialize(back) == text

    @settings(max_examples=150, deadline=None)
    @given(labelled_graphs())
    def test_serialize_matches_per_line_loop(self, g):
        assert viewgraph.serialize(g) == loop_serialize(g)
        empty = viewgraph.parse("VIEWGRAPH v1\n")
        assert viewgraph.serialize(empty) == loop_serialize(empty)

    @settings(max_examples=400, deadline=None)
    @given(labelled_graphs(), st.sampled_from(CORRUPTIONS), st.data())
    def test_corrupted_line_is_named(self, g, how, data):
        text, line_no = corrupted_text(g, how, data)
        with pytest.raises(ParseError) as info:
            viewgraph.parse(text)
        assert info.value.line_no == line_no

    @pytest.mark.parametrize("record, reason", [
        ("EDGE 0 1 1 0 0", "EDGE takes"),
        ("EDGE 0 x 2 0 0 0 7", "bad edge endpoints"),
        ("EDGE 2 2 x 0 0 0", "self-loop at node 2"),
        ("EDGE 1 0 2 0 0 0", r"duplicate edge \(1, 0\)"),
        ("EDGE 1 2 x 0 0 0 7", "bad quaternion component"),
        ("EDGE 1 2 2 0 0 0 7", "quaternion norm 2 "),
        ("NODE x 2 0 0 0", "bad node id 'x'"),
        ("NODE -1 x 0 0 0", "node ids must be non-negative"),
        ("NODE 0 x 0 0 0", "duplicate node 0"),
        ("NODE 3 1 0 0 nan", "quaternion norm nan"),
    ])
    def test_checks_rank_within_a_line(self, record, reason):
        # each record breaks several rules; the one named is the first the line reaches
        head = "VIEWGRAPH v1\nNODE 0\nNODE 1\nNODE 2\nEDGE 0 1 1 0 0 0\n"
        with pytest.raises(ParseError, match=f"line 6: {reason}"):
            viewgraph.parse(head + record + "\n")

    @pytest.mark.parametrize("record", ["EDGE 1 2 1e200 0 0 0", "NODE 3 1 0 -1e200 0"])
    def test_overflowing_norm_is_named(self, record):
        # the squared component overflows, under pytest.ini's error::RuntimeWarning too
        head = "VIEWGRAPH v1\nNODE 0\nNODE 1\nNODE 2\nEDGE 0 1 1 0 0 0\n"
        with pytest.raises(ParseError, match="line 6: quaternion norm inf deviates") as info:
            viewgraph.parse(head + record + "\n")
        assert info.value.line_no == 6

    def test_out_of_range_pairs_do_not_alias(self):
        # with three nodes, the key lo * 3 + hi of (0, 5) is that of (1, 2), and
        # (-1, 4) shares (0, 1)'s: an undeclared end is named, not a duplicate
        head = "VIEWGRAPH v1\nNODE 0\nNODE 1\nNODE 2\n"
        for first, second in (("0 5", "1 2"), ("1 2", "0 5"), ("-1 4", "0 1"), ("0 1", "-1 4")):
            text = head + f"EDGE {first} 1 0 0 0\nEDGE {second} 1 0 0 0\n"
            line = 5 if first in ("0 5", "-1 4") else 6
            with pytest.raises(ParseError, match=f"line {line}: edge .* undeclared node"):
                viewgraph.parse(text)

    def test_duplicate_edge_rejected(self):
        text = "VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 1 0 0 0\nEDGE 1 0 1 0 0 0\n"
        with pytest.raises(ParseError, match="duplicate edge"):
            viewgraph.parse(text)

    def test_non_unit_quaternion_handling(self):
        # beyond 1e-6 -> error; below -> silently renormalized
        bad = "VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 1.001 0 0 0\n"
        with pytest.raises(ParseError, match="norm"):
            viewgraph.parse(bad)
        ok = "VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 1.0000004 0 0 0\n"
        g = viewgraph.parse(ok)
        assert abs(np.linalg.norm(g.edge_quat_array()[0]) - 1.0) < 1e-9

    def test_non_dense_ids_rejected(self):
        with pytest.raises(ViewGraphError, match="dense"):
            viewgraph.parse("VIEWGRAPH v1\nNODE 0\nNODE 2\n")


# block sizes the block reader is checked at: a line or less per block,
# a few lines, and the package's own size
BLOCKS = (1, 7, 64, viewgraph.PARSE_BLOCK_CHARS)
LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\u2028")


def parse_outcome(parse, text: str):
    """What ``parse(text)`` gives: the node count and each stored array's
    dtype, shape and bytes, or the error's type, line and message."""
    try:
        g = parse(text)
    except ViewGraphError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return stored_arrays(g)


def stored_arrays(g: ViewGraph):
    """The node count and each stored array's dtype, shape and bytes."""
    arrays = (*g.endpoint_arrays(), g.edge_quat_array(), g.edge_labels(), g.gt)
    return g.n_nodes, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def assert_matches_oracle(text: str, blocks=BLOCKS) -> None:
    """The block reader at each block size gives what the whole-text
    oracle gives: the same graph bit for bit, or the same error."""
    want = parse_outcome(parse_oracle.parse, text)
    for block in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(viewgraph, "PARSE_BLOCK_CHARS", block)
            assert parse_outcome(viewgraph.parse, text) == want, f"block of {block} characters"


@st.composite
def mangled_texts(draw, text: str) -> str:
    """``text`` with blank and comment-only lines between its lines, comments
    after some, a line end drawn per line, and at random no final one; a
    NODE or EDGE line may get a tab between two tokens or leading spaces,
    which send it, or a group of its token count, to the per-line reader."""
    fillers = st.lists(st.sampled_from(["", "   ", "# note", " # note # two"]), max_size=2)
    out = []
    for line in text.splitlines():
        out += draw(fillers)
        if line.startswith(("NODE ", "EDGE ")):
            how = draw(st.sampled_from(["", "tab", "lead"]))
            if how == "tab":
                tokens = line.split(" ")
                at = draw(st.integers(1, len(tokens) - 1))
                line = " ".join(tokens[:at]) + "\t" + " ".join(tokens[at:])
            elif how == "lead":
                line = "  " + line
        out.append(line + draw(st.sampled_from(["", "", " # after"])))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in out]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(out, ends))


# texts whose lines fall on the cuts of small blocks, for every cut
CUT_TEXTS = (
    "",
    "\n\n",
    "# only a comment\n",
    "# c\n# d\nVIEWGRAPH v2\nNODE 0\n",
    "VIEWGRAPH v1",
    "VIEWGRAPH\tv1\nNODE 0\n",
    "# c\n  VIEWGRAPH   v1  # h\nNODE 0\n",
    "VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 1 0 0 0",
    "# c\n\n  \n# d\nVIEWGRAPH v1\n\n# mid\nNODE 0 # x\n\nNODE 1\nEDGE 0 1 1 0 0 0 1\n",
    "VIEWGRAPH v1\r\nNODE 0\r\n\r\nNODE 1\r\nEDGE 0 1 1 0 0 0\r\nEDGE 0 1 1 0 0 0\r\n",
    "VIEWGRAPH v1\n\rNODE 0\n\rNODE x\n",
    "VIEWGRAPH v1\rNODE 0\rNODE 1\rEDGE 1 0 1 0 0 0 1\r",
    "VIEWGRAPH v1\x0bNODE 0\x0b\x0bNODE 1\nEDGE 0 1 1 0 0 0\u2028EDGE 0 5 1 0 0 0\n",
    "VIEWGRAPH v1\u2028NODE 0 1 0 0 0\u2028NODE 1\n\nNODE 0\n",
    "VIEWGRAPH v1\nNODE 0\nEDGE 0 1 1 0 0 0\nNODE 1\nNODE 3\n",
    "VIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 0 1 1 0 0 0 2\nFOO\nEDGE 1 1 1 0 0 0\n",
)


READER_BODY = ("NODE 0\nNODE 1\nNODE 2\nNODE 3\n"
               "EDGE 0 1 1 0 0 0\nEDGE 0 2 1 0 0 0\nEDGE 1 3 1 0 0 0\n")


def reader_text(old: str, new: str) -> str:
    """A four-node text with its line ``old`` replaced by ``new``."""
    return "VIEWGRAPH v1\n" + READER_BODY.replace(old + "\n", new + "\n", 1)


# lines that numpy's C line reader and Python's converters may read apart:
# ids, endpoints, components and labels, other prefixes, and blocks whose
# lines of one record name differ in token count.  Unguarded, the C reader
# reads the endpoint "0\u01fe1" as 4621 and the label "1\x00" as "1".
READER_TEXTS = {
    **{f"node id {tok}": reader_text("NODE 1", f"NODE {tok}")
       for tok in ("+1", "007", "-0", "1_0", "\u0663")},
    **{f"endpoint {tok}": reader_text("EDGE 0 1 1 0 0 0", f"EDGE 0 {tok} 1 0 0 0")
       for tok in ("+1", "007", "-0", "1_0", "\u0663", "1.0", "0\u01fe1")},
    **{f"component {tok}": reader_text("EDGE 0 1 1 0 0 0", f"EDGE 0 1 {tok} 0 0 0")
       for tok in ("1e400", "infinity", "nan", "0x1p0")},
    **{f"ground truth {tok}": reader_text("NODE 1", f"NODE 1 {tok} 0 0 0")
       for tok in ("1e400", "infinity", "nan", "0x1p0")},
    "label 01": "VIEWGRAPH v1\nNODE 0\nNODE 1\nNODE 2\nNODE 3\n"
                "EDGE 0 1 1 0 0 0 01\nEDGE 0 2 1 0 0 0 1\nEDGE 1 3 1 0 0 0 0\n",
    "label 1 NUL": reader_text("EDGE 1 3 1 0 0 0", "EDGE 1 3 1 0 0 0 1\x00"),
    "EDGES record": reader_text("EDGE 0 2 1 0 0 0", "EDGES 0 2 1 0 0 0"),
    "tab separated": reader_text("EDGE 0 2 1 0 0 0", "EDGE\t0\t2\t1\t0\t0\t0"),
    "leading whitespace": reader_text("EDGE 0 2 1 0 0 0", "  EDGE 0 2 1 0 0 0"),
    "EDGE 7 then 8 tokens": reader_text("EDGE 0 2 1 0 0 0", "EDGE 0 2 1 0 0 0 1"),
    "EDGE 8 then 7 tokens": reader_text("EDGE 0 1 1 0 0 0", "EDGE 0 1 1 0 0 0 0"),
    "NODE 2 then 6 tokens": reader_text("NODE 1", "NODE 1 0 1 0 0"),
    "NODE 6 then 2 tokens": reader_text("NODE 0", "NODE 0 0 0 1 0"),
}


def fallback_records(monkeypatch) -> list[str]:
    """The record names that reach ``viewgraph._read_records`` from here on."""
    fallback: list[str] = []
    read_records = viewgraph._read_records

    def spy(recs, line_no, faults):
        fallback.extend(rec[0] for rec in recs)
        return read_records(recs, line_no, faults)

    monkeypatch.setattr(viewgraph, "_read_records", spy)
    return fallback


BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmark"


def benchmark_module(name: str, monkeypatch):
    """``benchmark/<name>.py`` as it stands, loaded from its file under its
    own name for the test's time, so that its dataclasses and its sibling
    imports find their modules."""
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class TestBlockReading:
    """``parse`` reads the text in blocks of whole lines; the whole-text
    parser it replaced (``parse_oracle``) is its reference."""

    @pytest.mark.parametrize("text", READER_TEXTS.values(), ids=READER_TEXTS.keys())
    def test_matches_oracle_on_reader_edge_tokens(self, text):
        assert_matches_oracle(text)

    def test_mixed_token_counts_stay_on_the_c_reader(self, monkeypatch):
        # labelled and unlabelled edges (8 and 7 tokens) and nodes with and
        # without ground truth (6 and 2) share each block: the C reader takes
        # each token count in a call of its own, and no record falls back
        rng = np.random.default_rng(3)
        n = 12
        u, v = np.triu_indices(n, 1)
        gt = so3.sample_uniform_rows(rng, n)
        gt[::3] = np.nan
        g = ViewGraph(n, u, v, so3.sample_uniform_rows(rng, u.size), rng.integers(-1, 2, u.size), gt)
        fallback = fallback_records(monkeypatch)
        assert_matches_oracle(viewgraph.serialize(g))
        assert fallback == []

    def test_canonical_texts_never_fall_back(self, monkeypatch):
        # the benchmark's generator (repr floats) and serialize, with and
        # without labels and ground truth: every line goes to the C reader
        benchmark_module("quat", monkeypatch)
        inputs = benchmark_module("inputs", monkeypatch)
        texts = [inputs.make_graph(shape, 15.0, np.random.default_rng(seed)).text
                 for shape in (inputs.Shape(150, 0.66, 0.1), inputs.Shape(250, 0.1, 0.1),
                               inputs.DESK)
                 for seed in (1, 7, 11)]
        cfg = synthgen.SynthConfig(n_cameras=(40, 40), edge_fraction=(0.3, 0.3), seed=2)
        g = synthgen.generate_graph(cfg, np.random.default_rng(2))
        (u, v), q = g.endpoint_arrays(), g.edge_quat_array()
        texts += [viewgraph.serialize(ViewGraph(g.n_nodes, u, v, q, label, gt))
                  for label in (g.edge_labels(), None) for gt in (g.gt, None)]
        fallback = fallback_records(monkeypatch)
        for text in texts:
            assert stored_arrays(viewgraph.parse(text)) == parse_outcome(parse_oracle.parse, text)
        assert fallback == []

    @settings(max_examples=150, deadline=None)
    @given(labelled_graphs(), st.data())
    def test_matches_oracle_on_random_graphs(self, g, data):
        text = viewgraph.serialize(g)
        assert_matches_oracle(text)
        assert_matches_oracle(data.draw(mangled_texts(text)))

    @settings(max_examples=200, deadline=None)
    @given(labelled_graphs(), st.sampled_from(CORRUPTIONS), st.data())
    def test_matches_oracle_on_corrupted_texts(self, g, how, data):
        text, _ = corrupted_text(g, how, data)
        assert_matches_oracle(text)
        assert_matches_oracle(data.draw(mangled_texts(text)))

    def test_oracle_shares_no_code_with_the_parser(self):
        # a fault in a helper both used would go unseen: the oracle reads no
        # private name of the package
        tree = ast.parse(Path(parse_oracle.__file__).read_text(encoding="utf-8"))
        package, private = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rotavg"):
                package |= {alias.asname or alias.name for alias in node.names}
                private += [f"{node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
            elif isinstance(node, ast.Import):
                names = [alias for alias in node.names if alias.name.startswith("rotavg")]
                package |= {(alias.asname or alias.name).split(".")[0] for alias in names}
                private += [alias.name for alias in names if "._" in alias.name]
        assert package
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in package:
                    private.append(ast.unparse(node))
        assert private == []

    @pytest.mark.parametrize("text", CUT_TEXTS)
    def test_matches_oracle_at_every_cut(self, text):
        assert_matches_oracle(text, (*range(1, 16), viewgraph.PARSE_BLOCK_CHARS))

    def test_blocks_end_after_a_line_feed(self, monkeypatch):
        # and after a lone "\r", the first line end past the size; a "\r\n" stays whole
        monkeypatch.setattr(viewgraph, "PARSE_BLOCK_CHARS", 5)
        text = "# a comment\r\n# and another\n\rVIEWGRAPH v1\rNODE 0\nNODE 1"
        blocks = list(viewgraph._line_blocks(text))
        assert blocks == [(1, [""]), (2, [""]), (3, ["", "VIEWGRAPH v1"]), (5, ["NODE 0"]),
                          (6, ["NODE 1"])]

    def test_blocks_end_after_every_line_end_of_splitlines(self, monkeypatch):
        ends = [chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2]
        assert len(ends) == 10
        for end in ends + ["\r\n"]:
            text = end.join(["ab", "cd", "ef", ""])
            # every size whose search starts at or before the first line's end
            for size in range(1, len(end) + 3):
                monkeypatch.setattr(viewgraph, "PARSE_BLOCK_CHARS", size)
                assert (list(viewgraph._line_blocks(text))
                        == [(1, ["ab"]), (2, ["cd"]), (3, ["ef"])]), (end, size)

    def test_header_after_several_blocks_of_comments(self, monkeypatch):
        monkeypatch.setattr(viewgraph, "PARSE_BLOCK_CHARS", 7)
        text = "# a comment line\n" * 3 + "\nVIEWGRAPH v1\nNODE 0\nNODE 1\nEDGE 1 0 1 0 0 0\n"
        blocks = list(viewgraph._line_blocks(text))
        assert blocks[:4] == [(1, [""]), (2, [""]), (3, [""]), (4, ["", "VIEWGRAPH v1"])]
        g = viewgraph.parse(text)
        assert g.n_nodes == 2 and g.n_edges == 1
        with pytest.raises(ParseError, match="line 6"):
            viewgraph.parse(text.replace("NODE 0", "NODE x"))

    def test_peak_memory_within_text_budget(self):
        # the dense-shaped graph of the network memory tests (0.73 MB of
        # text).  parse holds one block's tokens at a time, beyond the record
        # arrays, their concatenation and their canonical copies (whole-text
        # token lists peaked at 9x); serialize holds its row slices' text and
        # the joined copy (one "%" call over every row peaked at 4.5x).  With
        # a bad component on every EDGE line, every edge goes through the
        # per-line reader, and the first is named (2.0x; a reader that kept
        # each conversion error held each block's records in a cycle, 8.2x)
        cfg = synthgen.SynthConfig(n_cameras=(150, 150), edge_fraction=(0.66, 0.66),
                                   sigma_deg=(5.0, 5.0), outlier_fraction=(0.1, 0.1))
        g = synthgen.generate_graph(cfg, np.random.default_rng(0))
        text = viewgraph.serialize(g)
        broken = re.sub(r"^(EDGE \S+ \S+ )\S+", r"\1x", text, flags=re.MULTILINE)
        first_edge = 2 + g.n_nodes
        assert broken.splitlines()[first_edge - 1].startswith("EDGE")
        for run, arg, error_line in ((viewgraph.parse, text, None), (viewgraph.serialize, g, None),
                                     (viewgraph.parse, broken, first_edge)):
            line = None
            tracemalloc.start()
            try:
                run(arg)
            except ParseError as exc:
                line = exc.line_no
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert line == error_line, run.__name__
            assert peak < 3 * len(text), run.__name__

    def test_carriage_return_text_keeps_the_block_bound(self):
        # the cam1000 text (12.2 MB) with "\r" line ends: every line end cuts
        # a block, so the peak is that of the "\n" text, 1.2x (one block of
        # the whole text peaked at 9.9x)
        g = synthgen.generate_graph(synthgen.robustness_suite("cam1000", seed=1),
                                    np.random.default_rng(1))
        text = viewgraph.serialize(g).replace("\n", "\r")
        tracemalloc.start()
        try:
            parsed = viewgraph.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text)
        assert stored_arrays(parsed) == stored_arrays(g)


class TestPartialGroundTruth:
    TEXT = ("VIEWGRAPH v1\nNODE 0 1 0 0 0\nNODE 1\nNODE 2 0 0 1 0\n"
            "EDGE 0 1 1 0 0 0\nEDGE 1 2 1 0 0 0 0\n")

    def test_nan_rows_round_trip(self):
        g = viewgraph.parse(self.TEXT)
        assert g.gt.shape == (3, 4)
        assert np.all(np.isnan(g.gt[1])) and not np.any(np.isnan(g.gt[[0, 2]]))
        assert np.array_equal(g.gt[2], [0.0, 0.0, 1.0, 0.0])
        assert viewgraph.serialize(g) == self.TEXT
        assert not g.has_full_gt
        with pytest.raises(ViewGraphError, match="complete ground-truth"):
            g.gt_array()
        with pytest.raises(ValueError, match="read-only"):
            g.gt[0, 0] = 0.5

    def test_edge_constructor_packs_missing_as_nan(self):
        q = UnitQuaternion.identity()
        g = edge_graph(3, [Edge(0, 1, q)], [q, None, so3_oracle.yaw_deg(30.0)])
        assert np.all(np.isnan(g.gt[1])) and np.array_equal(g.gt[0], q.as_array())
        assert np.array_equal(g.gt[2], so3_oracle.yaw_deg(30.0).as_array())
        assert np.all(np.isnan(edge_graph(2, [Edge(0, 1, q)]).gt))

    def test_from_arrays_checks_rows(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0]])
        ok = ViewGraph(2, [0], [1], q, gt=[[2.0, 0.0, 0.0, 0.0], [np.nan] * 4])
        assert np.array_equal(ok.gt[0], [1.0, 0.0, 0.0, 0.0])  # canonicalised
        assert np.array_equal(ViewGraph(2, [0], [1], q, gt=[[-1.0, 0, 0, 0]] * 2).gt,
                              [[1.0, 0.0, 0.0, 0.0]] * 2)
        for bad in ([[1.0, np.nan, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                    [[np.inf, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                    [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]):
            with pytest.raises(ViewGraphError, match="all NaN or finite nonzero"):
                ViewGraph(2, [0], [1], q, gt=bad)
        for bad in ([[1.0, 0.0, 0.0, 0.0]], np.ones((2, 3))):
            with pytest.raises(ViewGraphError, match="one .* row per node"):
                ViewGraph(2, [0], [1], q, gt=bad)


class TestStructure:
    def test_canonical_direction_flip(self):
        q = so3_oracle.yaw_deg(40.0)
        g = edge_graph(2, [Edge(1, 0, q)])
        e = edge_records(g)[0]
        assert (e.u, e.v) == (0, 1)
        assert so3_oracle.geodesic_deg(e.q, so3_oracle.inverse(q)) < 1e-9

    def test_self_loop_rejected(self):
        with pytest.raises(ViewGraphError, match="self-loop"):
            edge_graph(2, [Edge(1, 1, UnitQuaternion.identity())])


class TestDiscrepancy:
    """``viewgraph.discrepancy``, the one per-edge residual of FineNet's
    features and IRLS, against the scalar oracle edge by edge."""

    @staticmethod
    def noisy_graph(seed):
        cfg = synthgen.SynthConfig(n_cameras=(12, 20), edge_fraction=(0.3, 0.5),
                                   planar=False, seed=seed)
        return synthgen.generate_graph(cfg, np.random.default_rng(seed))

    def test_identity_at_the_ground_truth_of_a_clean_graph(self):
        cfg = synthgen.SynthConfig(n_cameras=(15, 30), sigma_deg=(0.0, 0.0),
                                   outlier_fraction=(0.0, 0.0), planar=False, seed=3)
        g = synthgen.generate_graph(cfg, np.random.default_rng(3))
        d = viewgraph.discrepancy(g, g.gt)
        assert d.shape == (g.n_edges, 4) and np.max(so3.angle_deg(d)) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_oracle_in_both_directions(self, seed):
        g = self.noisy_graph(seed)
        rows = so3.sample_uniform_rows(np.random.default_rng(seed + 10), g.n_nodes)
        d = viewgraph.discrepancy(g, rows)
        r = as_quats(rows)
        compose, inverse = so3_oracle.compose, so3_oracle.inverse
        for i, e in enumerate(edge_records(g)):
            # u -> v: rows_v^-1 * q_uv * rows_u; v -> u, over the inverse measurement
            forward = compose(inverse(r[e.v]), compose(e.q, r[e.u]))
            reverse = compose(inverse(r[e.u]), compose(inverse(e.q), r[e.v]))
            assert np.max(np.abs(so3.qcanon(d[i]) - forward.as_array())) <= 1e-15
            assert np.max(np.abs(so3.qcanon(so3.qconj(d[i])) - reverse.as_array())) <= 1e-15


    @pytest.mark.parametrize("seed", range(3))
    def test_component_major_form_is_the_transpose(self, seed):
        # both forms, and the frozen row product, give the same bits
        g = self.noisy_graph(seed)
        rows = so3.sample_uniform_rows(np.random.default_rng(seed + 20), g.n_nodes)
        d = viewgraph.discrepancy(g, rows)
        quats = np.ascontiguousarray(g.edge_quat_array().T)
        cols = np.stack(viewgraph.discrepancy_parts(g, rows, quats))
        assert d.shape == (g.n_edges, 4) and cols.shape == (4, g.n_edges)
        assert cols.tobytes() == d.T.tobytes()
        u, v = g.endpoint_arrays()
        frozen = so3_oracle.qmul(so3.qconj(rows)[v], so3_oracle.qmul(g.edge_quat_array(), rows[u]))
        assert d.tobytes() == frozen.tobytes()

    @pytest.mark.parametrize("shape", [(7, 4), (9, 4), (8, 3), (8,)])
    def test_rows_of_another_shape_rejected(self, shape):
        g = ViewGraph(8, np.arange(7), np.arange(1, 8), np.tile([1.0, 0.0, 0.0, 0.0], (7, 1)))
        with pytest.raises(ViewGraphError, match=rf"must be \(8, 4\), got {re.escape(str(shape))}"):
            viewgraph.discrepancy(g, np.ones(shape))


class TestConnectivity:
    def test_connected_graph_is_itself(self):
        g = small_graph()
        sub, node_ids = viewgraph.largest_component(g)
        assert sub.n_nodes == g.n_nodes and len(sub.edges) == len(g.edges)
        assert node_ids.dtype == np.int64 and node_ids.tolist() == [0, 1, 2, 3]

    def test_two_components(self):
        q = UnitQuaternion.identity()
        g = edge_graph(5, [Edge(0, 1, q), Edge(1, 2, q), Edge(3, 4, q)])
        sub, node_ids = viewgraph.largest_component(g)
        assert sub.n_nodes == 3
        assert node_ids.tolist() == [0, 1, 2]

    def test_random_graphs_connected_per_bfs(self):
        for seed in range(20):
            cfg = synthgen.SynthConfig(n_cameras=(5, 30), edge_fraction=(0.1, 0.4), seed=seed)
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed))
            sub, _ = viewgraph.largest_component(g)
            assert all(d >= 0 for d in bfs_depths(sub, 0))

    def test_empty_graph(self):
        g = edge_graph(0, [])
        sub, node_ids = viewgraph.largest_component(g)
        assert sub.n_nodes == 0 and node_ids.dtype == np.int64 and node_ids.size == 0

    @settings(max_examples=300, deadline=None)
    @given(random_graphs())
    def test_matches_deque_oracle(self, g):
        comps = deque_components(g)
        assert viewgraph.is_connected(g) == (len(comps) == 1)
        sub, node_ids = viewgraph.largest_component(g)
        assert node_ids.tolist() == comps[0]
        assert sub.n_nodes == len(comps[0])
        for root in range(g.n_nodes):
            depth, parent = deque_tree(g, root)
            if min(depth) < 0:
                with pytest.raises(ViewGraphError, match="disconnected"):
                    viewgraph.shortest_path_tree(g, root)
            else:
                tree = viewgraph.shortest_path_tree(g, root)
                assert (tree.depth.tolist(), tree.parent.tolist()) == (depth, parent)
        for root in range(sub.n_nodes):
            tree = viewgraph.shortest_path_tree(sub, root)
            assert (tree.depth.tolist(), tree.parent.tolist()) == deque_tree(sub, root)


def assert_forest_matches_deque_oracle(g: ViewGraph) -> None:
    """Each node's label is the smallest id of its ``deque_components``
    component, and the unweighted forest picks N minus their count edges,
    those of all-equal weights."""
    n, (u, v) = g.n_nodes, g.endpoint_arrays()
    tree, label = viewgraph.spanning_forest(n, u, v)
    want = np.empty(n, dtype=np.int64)
    comps = deque_components(g)
    for comp in comps:
        want[comp] = comp[0]
    assert label.dtype == np.int64 and label.tolist() == want.tolist()
    assert tree.dtype == np.int64 and tree.size == n - len(comps)
    assert np.array_equal(tree, viewgraph.spanning_forest(n, u, v, np.full(u.size, 2.5))[0])


class TestSpanningForest:
    @settings(max_examples=300, deadline=None)
    @given(random_graphs())
    def test_labels_match_deque_oracle(self, g):
        assert_forest_matches_deque_oracle(g)

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_graphs(self, n):
        assert_forest_matches_deque_oracle(edge_graph(n, []))


def assert_in_edges_match_sorts(n: int, u: np.ndarray, v: np.ndarray) -> None:
    """``in_edges`` is the stable sort of the 2E directed edges (the given
    ones, then their reverses) by target, with their sources, and its bounds
    step by each node's degree."""
    order, src, bounds = viewgraph.in_edges(n, u, v)
    dst, ends = np.concatenate([v, u]), np.concatenate([u, v])
    want = np.lexsort((np.arange(dst.size), dst))
    degree = np.bincount(dst, minlength=n)
    for got, expected in ((order, want), (src, ends[want]), (np.diff(bounds), degree)):
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert bounds.shape == (n + 1,) and bounds[0] == 0


def is_call_of(node, name: str) -> bool:
    """``node`` calls an attribute or a name ``name``."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == name
        or isinstance(node.func, ast.Name) and node.func.id == name)


EDGE_SORTERS = {"_edge_faults", "in_edges"}  # the functions that may sort edge keys


def edge_values(expr, ends: set[str]) -> bool:
    """``expr`` is computed from edge endpoints: a name in ``ends``, a
    graph's ``_u`` or ``_v``, an ``endpoint_arrays`` call, or arithmetic,
    indexing, a tuple or a ``concatenate``, ``minimum``, ``maximum``,
    ``take`` or ``astype`` of such values.  The result of any other call is
    not, so the generator's sort of the pair keys it draws is none."""
    if isinstance(expr, ast.Name):
        return expr.id in ends
    if isinstance(expr, ast.Attribute):
        return expr.attr in ("_u", "_v")
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        parts = [*expr.args, *([func.value] if isinstance(func, ast.Attribute) else [])]
        return name == "endpoint_arrays" or name in (
            "concatenate", "minimum", "maximum", "take", "astype") and any(
            edge_values(a, ends) for a in parts)
    if isinstance(expr, ast.BinOp):
        return edge_values(expr.left, ends) or edge_values(expr.right, ends)
    if isinstance(expr, ast.UnaryOp):
        return edge_values(expr.operand, ends)
    if isinstance(expr, ast.Subscript):
        return edge_values(expr.value, ends)
    if isinstance(expr, (ast.Tuple, ast.List)):
        return any(edge_values(e, ends) for e in expr.elts)
    return False


def endpoint_sorts(paths) -> list[str]:
    """Every sort of edge keys in the modules ``paths`` outside
    ``EDGE_SORTERS``: a ``lexsort``, and an ``argsort`` or ``sort`` of
    ``edge_values``, where ``ends`` are a function's ``u`` and ``v``
    arguments and the names it binds to edge values.  A sort of node keys,
    as the Weiszfeld plan's of ``colour * n + degree``, is none."""
    found = []
    for path in paths:
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef) or func.name in EDGE_SORTERS:
                continue
            ends = {a.arg for a in func.args.args if a.arg in ("u", "v")}
            assigns = sorted((n for n in ast.walk(func) if isinstance(n, ast.Assign)),
                             key=lambda n: (n.lineno, n.col_offset))
            for node in assigns:
                for target in node.targets:
                    pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple)
                             or not isinstance(node.value, ast.Tuple)
                             else zip(target.elts, node.value.elts))
                    for t, value in pairs:
                        if edge_values(value, ends):
                            ends |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
            for node in ast.walk(func):
                if is_call_of(node, "lexsort"):
                    found.append(f"{path.name}:{node.lineno} lexsort")
                elif is_call_of(node, "argsort") or is_call_of(node, "sort"):
                    arg = node.args[0] if node.args else node.func.value
                    if edge_values(arg, ends):
                        found.append(f"{path.name}:{node.lineno} sort of edge keys")
    return sorted(set(found))


class TestInEdges:
    @settings(max_examples=300, deadline=None)
    @given(random_graphs())
    def test_matches_stable_sort_by_target(self, g):
        # random graphs often have isolated nodes
        assert_in_edges_match_sorts(g.n_nodes, *g.endpoint_arrays())

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(), st.integers(0, 2**32 - 1))
    def test_groups_any_edges_by_target(self, g, seed):
        # edges in another order or direction than a graph stores them
        rng = np.random.default_rng(seed)
        (u, v), perm = g.endpoint_arrays(), rng.permutation(g.n_edges)
        flip = rng.random(g.n_edges) < 0.5
        u, v = np.where(flip, v, u)[perm], np.where(flip, u, v)[perm]
        assert_in_edges_match_sorts(g.n_nodes, u, v)

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_graphs(self, n):
        assert_in_edges_match_sorts(n, *edge_graph(n, []).endpoint_arrays())

    @pytest.mark.parametrize("n", [65_536, 70_000])
    def test_targets_past_16_bits(self, n):
        # one 16-bit radix pass up to N = 65,536, two above it; targets on
        # both sides of 2**16, each shared by many edges
        rng = np.random.default_rng(n)
        nodes = np.array([0, 1, 0xFFFE, 0xFFFF, 0x10000, 0x10001, n - 1, *rng.integers(0, n, 40)])
        u, v = rng.choice(nodes[nodes < n], size=(2, 3000))
        order = viewgraph.in_edges(n, u, v)[0]
        assert np.array_equal(order, np.argsort(np.concatenate([v, u]), kind="stable"))
        assert_in_edges_match_sorts(n, u, v)

    @settings(max_examples=300, deadline=None)
    @given(random_graphs())
    def test_sorted_edges_come_in_edge_order(self, g):
        # a graph stores its edges by (u, v), so each node's in-edges come by
        # source and in edge-id order: the Weiszfeld plan keeps its candidate order
        u, v = g.endpoint_arrays()
        order = viewgraph.in_edges(g.n_nodes, u, v)[0]
        dst = np.concatenate([v, u])
        for tie in (np.concatenate([u, v]), np.tile(np.arange(u.size), 2)):
            assert np.array_equal(order, np.lexsort((tie, dst)))

    def test_layout_is_built_only_here(self):
        # the package sorts edge keys in ``_edge_faults`` and ``in_edges`` alone
        assert endpoint_sorts(sorted(Path(viewgraph.__file__).parent.glob("*.py"))) == []

    def test_guard_finds_sorts_of_edge_keys(self, tmp_path):
        # a second sort of edge keys is found, however its keys are built;
        # sorts of node keys and of other numbers are not
        source = tmp_path / "sorts.py"
        source.write_text(
            "def uv_order(n, u, v):\n"
            "    return np.argsort(u * n + v)\n"
            "def bootstrap(g, n):\n"
            "    a, b = g.endpoint_arrays()\n"
            "    keys = a * n + b\n"
            "    return np.argsort(keys)\n"
            "def layout(g, n, u, v):\n"
            "    dst, src = np.concatenate([v, g._u]), np.concatenate([u, v])\n"
            "    return np.argsort(dst * n + src), np.lexsort((src, dst))\n"
            "def pairs(n, u, v):\n"
            "    lo = np.minimum(u, v)\n"
            "    return np.sort(lo.astype(np.int32))\n"
            "def plan(g, n, colour, depth, w, keys, new):\n"
            "    u, v = g.endpoint_arrays()\n"
            "    bounds = viewgraph.in_edges(n, u, v)[2]\n"
            "    return (np.argsort(colour * n + np.diff(bounds)), np.argsort(depth),\n"
            "            np.sort(-w), np.sort(np.concatenate([keys, new])))\n",
            encoding="utf-8")
        assert endpoint_sorts([source]) == [
            "sorts.py:12 sort of edge keys", "sorts.py:2 sort of edge keys",
            "sorts.py:6 sort of edge keys", "sorts.py:9 lexsort",
            "sorts.py:9 sort of edge keys"]


def desk_graph() -> ViewGraph:
    cfg = synthgen.SynthConfig(n_cameras=(60, 150), seed=3)
    return synthgen.generate_graph(cfg, np.random.default_rng(3))


class TestInducedSubgraph:
    def test_new_ids_are_sorted_old_ids(self):
        g = small_graph()
        sub = viewgraph.induced_subgraph(g, np.array([3, 0, 2]))
        # new ids 0, 1, 2 are old ids 0, 2, 3: edges (0, 2) and (2, 3), the
        # second and fourth of the graph's (u, v) order, survive
        assert sub.n_nodes == 3
        assert sub.edges.tolist() == [[0, 1], [1, 2]]
        assert np.array_equal(sub.gt, g.gt[[0, 2, 3]])
        assert np.array_equal(sub.edge_quat_array(), g.edge_quat_array()[[1, 3]])

    @pytest.mark.parametrize("nodes, match", [
        ([0, 0, 1, 2], "repeated node id"),
        ([-1, 0, 1], r"node ids must lie in \[0, "),
        ([0, 1, "N"], r"node ids must lie in \[0, "),
        ([0.0, 1.0], "1-D integer"),
        ([[0, 1]], "1-D integer"),
        ([[0], [0, 1]], "1-D integer"),
    ], ids=["repeated", "negative", "beyond", "float", "2-D", "ragged"])
    def test_bad_ids_raise(self, nodes, match):
        g = desk_graph()
        nodes = [g.n_nodes if c == "N" else c for c in nodes]
        with pytest.raises(ViewGraphError, match=match):
            viewgraph.induced_subgraph(g, nodes)

    def test_empty_selection(self):
        sub = viewgraph.induced_subgraph(small_graph(), [])
        assert sub.n_nodes == 0 and len(sub.edges) == 0


class TestRootAndTree:
    def test_star_graph_root_is_hub(self):
        q = UnitQuaternion.identity()
        g = edge_graph(4, [Edge(0, 3, q), Edge(1, 3, q), Edge(2, 3, q)])
        assert viewgraph.select_root(g) == 3

    def test_path_graph_root(self):
        q = UnitQuaternion.identity()
        g = edge_graph(3, [Edge(0, 1, q), Edge(1, 2, q)])
        assert viewgraph.select_root(g) == 1

    def test_root_degree_matches_oracle(self):
        for seed in range(10):
            cfg = synthgen.SynthConfig(n_cameras=(5, 25), edge_fraction=(0.2, 0.5), seed=seed)
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed + 100))
            counts = np.zeros(g.n_nodes, dtype=int)
            for e in edge_records(g):
                counts[e.u] += 1
                counts[e.v] += 1
            assert counts[viewgraph.select_root(g)] == counts.max()

    def test_degree_cache_is_read_only(self):
        # the root and both losses' degree weights read the cached degrees
        g = synthgen.generate_graph(synthgen.SynthConfig(n_cameras=(20, 20)),
                                    np.random.default_rng(1))
        root = viewgraph.select_root(g)
        other = (root + 1) % g.n_nodes
        degrees = g.degree_array().copy()
        with pytest.raises(ValueError, match="read-only"):
            g.degree_array()[other] = 1e9
        assert viewgraph.select_root(g) == root
        assert np.array_equal(g.degree_array(), degrees)

    def test_empty_graph_root_errors(self):
        with pytest.raises(ViewGraphError):
            viewgraph.select_root(edge_graph(0, []))

    def test_path_depths(self):
        q = UnitQuaternion.identity()
        g = edge_graph(3, [Edge(0, 1, q), Edge(1, 2, q)])
        tree = viewgraph.shortest_path_tree(g, 0)
        assert tree.depth.tolist() == [0, 1, 2]

    def test_complete_graph_depths(self):
        q = so3_oracle.yaw_deg(5.0)
        edges = [Edge(u, v, q) for u in range(5) for v in range(u + 1, 5)]
        g = edge_graph(5, edges)
        tree = viewgraph.shortest_path_tree(g, 2)
        assert max(tree.depth) <= 1 and tree.depth[2] == 0

    def test_depths_match_bfs_oracle(self):
        for seed in range(100):
            cfg = synthgen.SynthConfig(n_cameras=(4, 40), edge_fraction=(0.05, 0.5), seed=seed)
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed + 500))
            root = viewgraph.select_root(g)
            tree = viewgraph.shortest_path_tree(g, root)
            assert tree.depth.tolist() == bfs_depths(g, root)

    def test_parent_is_smallest_id_predecessor(self):
        q = UnitQuaternion.identity()
        # node 3 reachable at depth 1 from both 0 (root) ... build diamond
        g = edge_graph(4, [Edge(0, 1, q), Edge(0, 2, q), Edge(1, 3, q), Edge(2, 3, q)])
        tree = viewgraph.shortest_path_tree(g, 0)
        assert tree.parent[3] == 1

    def test_non_integer_root_rejected(self):
        g = small_graph()
        for root in (1.5, "1", None, True, np.True_):
            with pytest.raises(ViewGraphError, match="root must be an integer"):
                viewgraph.shortest_path_tree(g, root)
            with pytest.raises(ViewGraphError, match="root must be an integer"):
                viewgraph.node_id(root, 5, "root")
        for root in (-1, 4):
            with pytest.raises(ViewGraphError, match=f"root {root} out of range"):
                viewgraph.shortest_path_tree(g, root)
        tree = viewgraph.shortest_path_tree(g, np.int64(1))
        assert type(tree.root) is int and tree.root == 1

    def test_disconnected_errors(self):
        q = UnitQuaternion.identity()
        g = edge_graph(4, [Edge(0, 1, q), Edge(2, 3, q)])
        with pytest.raises(ViewGraphError, match="disconnected"):
            viewgraph.shortest_path_tree(g, 0)


class TestBootstrap:
    def test_single_edge(self):
        q = so3_oracle.yaw_deg(33.0)
        g = edge_graph(2, [Edge(0, 1, q)])
        tree = viewgraph.shortest_path_tree(g, 0)
        boot = viewgraph.bootstrap_orientations(g, tree)
        out = as_quats(boot.orientations)
        assert so3_oracle.geodesic_deg(out[0], UnitQuaternion.identity()) == 0.0
        assert so3_oracle.geodesic_deg(out[1], q) < 1e-9

    def test_exact_on_clean_graphs(self):
        for seed in range(10):
            cfg = synthgen.SynthConfig(
                n_cameras=(10, 40),
                edge_fraction=(0.15, 0.4),
                sigma_deg=(0.0, 0.0),
                outlier_fraction=(0.0, 0.0),
                planar=False,
                seed=seed,
            )
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed + 50))
            root = viewgraph.select_root(g)
            boot = viewgraph.bootstrap_orientations(g, viewgraph.shortest_path_tree(g, root))
            gt, out = gt_quats(g), as_quats(boot.orientations)
            for v in range(g.n_nodes):
                expected = so3_oracle.compose(gt[v], so3_oracle.inverse(gt[root]))
                assert so3_oracle.geodesic_deg(out[v], expected) < 1e-9

    def test_reproduces_all_relatives_on_clean_graph(self):
        cfg = synthgen.SynthConfig(
            n_cameras=(20, 20), edge_fraction=(0.3, 0.3),
            sigma_deg=(0.0, 0.0), outlier_fraction=(0.0, 0.0), seed=4,
        )
        g = synthgen.generate_graph(cfg, np.random.default_rng(4))
        for root in (0, viewgraph.select_root(g), g.n_nodes - 1):
            boot = viewgraph.bootstrap_orientations(g, viewgraph.shortest_path_tree(g, root))
            out = as_quats(boot.orientations)
            for e in edge_records(g):
                reproduced = so3_oracle.relative(out[e.u], out[e.v])
                assert so3_oracle.geodesic_deg(reproduced, e.q) < 1e-9


    def test_matches_compose_chain_oracle(self):
        # the per-node compose chain the array bootstrap replaced, kept as the oracle
        def compose_chain(g, tree):
            out = [None] * g.n_nodes
            out[tree.root] = UnitQuaternion.identity()
            edges = edge_records(g)
            for v in sorted(range(g.n_nodes), key=lambda x: tree.depth[x]):
                if v == tree.root:
                    continue
                u = tree.parent[v]
                e = next(e for e in edges if {e.u, e.v} == {u, v})
                q = e.q if (e.u, e.v) == (u, v) else so3_oracle.inverse(e.q)
                out[v] = so3_oracle.compose(q, out[u])
            return out

        for seed in range(6):
            cfg = synthgen.SynthConfig(n_cameras=(5, 30), edge_fraction=(0.1, 0.5), seed=seed)
            g = synthgen.generate_graph(cfg, np.random.default_rng(seed + 900))
            for root in (0, viewgraph.select_root(g)):
                tree = viewgraph.shortest_path_tree(g, root)
                boot = viewgraph.bootstrap_orientations(g, tree)
                for a, b in zip(as_quats(boot.orientations), compose_chain(g, tree)):
                    assert np.array_equal(a.as_array(), b.as_array())

    def test_missing_tree_edge_rejected(self):
        q = UnitQuaternion.identity()
        g = edge_graph(3, [Edge(0, 1, q), Edge(1, 2, q)])
        tree = viewgraph.SpanningTreeInit(root=0, parent=[-1, 0, 0], depth=[0, 1, 1])
        with pytest.raises(ViewGraphError, match="between 0 and 2"):
            viewgraph.bootstrap_orientations(g, tree)


    def test_malformed_tree_rejected(self):
        q = UnitQuaternion.identity()
        g = edge_graph(3, [Edge(0, 1, q), Edge(1, 2, q)])
        parent, depth = [-1, 0, 1], [0, 1, 2]
        for root in (7, -1, 1.0, True):
            with pytest.raises(ViewGraphError, match="tree root"):
                viewgraph.bootstrap_orientations(g, viewgraph.SpanningTreeInit(root, parent, depth))
        for bad_parent, bad_depth in (([-1.0, 0.0, 1.0], depth), (parent, [0, 1]),
                                      (parent, [[0, 1, 2]])):
            with pytest.raises(ViewGraphError, match="tree (parent|depth)"):
                viewgraph.bootstrap_orientations(
                    g, viewgraph.SpanningTreeInit(0, bad_parent, bad_depth))
        boot = viewgraph.bootstrap_orientations(g, viewgraph.SpanningTreeInit(0, parent, depth))
        assert boot.parent.dtype == boot.depth.dtype == np.int64 and boot.root == 0


class TestRereference:
    @staticmethod
    def rows(qs):
        return np.stack([q.as_array() for q in qs])

    def test_already_referenced_unchanged(self):
        rng = np.random.default_rng(20)
        qs = [UnitQuaternion.identity()] + [so3_oracle.sample_uniform(rng) for _ in range(3)]
        out = as_quats(viewgraph.rereference(self.rows(qs), 0))
        for a, b in zip(out, qs):
            assert so3_oracle.geodesic_deg(a, b) < 1e-12

    def test_two_nodes(self):
        rng = np.random.default_rng(21)
        q0, q1 = so3_oracle.sample_uniform(rng), so3_oracle.sample_uniform(rng)
        out = as_quats(viewgraph.rereference(self.rows([q0, q1]), 0))
        assert so3_oracle.geodesic_deg(out[0], UnitQuaternion.identity()) < 1e-12
        expected = so3_oracle.compose(q1, so3_oracle.inverse(q0))
        assert so3_oracle.geodesic_deg(out[1], expected) < 1e-12

    def test_relatives_preserved(self):
        rng = np.random.default_rng(22)
        qs = [so3_oracle.sample_uniform(rng) for _ in range(6)]
        out = as_quats(viewgraph.rereference(self.rows(qs), 3))
        for u in range(6):
            for v in range(6):
                before = so3_oracle.relative(qs[u], qs[v])
                after = so3_oracle.relative(out[u], out[v])
                assert so3_oracle.geodesic_deg(before, after) < 1e-9

    def test_matches_compose_loop_oracle(self):
        # the per-node compose loop the row kernel replaced, kept as the oracle
        rng = np.random.default_rng(23)
        for n in (1, 2, 7, 40):
            qs = [so3_oracle.sample_uniform(rng) for _ in range(n)]
            for c in {0, n // 2, n - 1}:
                inv_c = so3_oracle.inverse(qs[c])
                expected = self.rows([so3_oracle.compose(q, inv_c) for q in qs])
                assert np.array_equal(viewgraph.rereference(self.rows(qs), c), expected)

    def test_out_of_range(self):
        for c in (1, -1):
            with pytest.raises(ViewGraphError, match="out of range"):
                viewgraph.rereference(np.array([[1.0, 0.0, 0.0, 0.0]]), c)

    def test_non_integer_reference_rejected(self):
        rows = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        for c in (1.5, "1", None):
            with pytest.raises(ViewGraphError, match="reference node must be an integer"):
                viewgraph.rereference(rows, c)
        assert np.array_equal(viewgraph.rereference(rows, np.int64(2)), rows)


class TestStats:
    def test_matches_axis_angle_loop(self):
        # the per-edge axis_angle loop graph_stats replaced, kept as the oracle
        cfg = synthgen.SynthConfig(
            n_cameras=(40, 40), edge_fraction=(0.3, 0.3), sigma_deg=(20.0, 20.0),
            outlier_fraction=(0.2, 0.2), planar=False, seed=3,
        )
        rng = np.random.default_rng(4)
        gt = [so3_oracle.sample_uniform(rng) for _ in range(3)]
        # an identity measurement has angle 0
        tiny = edge_graph(3, [Edge(0, 1, UnitQuaternion.identity()),
                             Edge(1, 2, so3_oracle.relative(gt[1], gt[2]))], gt)
        for g in (synthgen.generate_graph(cfg, np.random.default_rng(3)), tiny):
            want = [np.degrees(so3_oracle.axis_angle(e.q).angle) for e in edge_records(g)]
            assert np.max(np.abs(viewgraph.graph_stats(g).rel_angles_deg - want)) < 1e-12
