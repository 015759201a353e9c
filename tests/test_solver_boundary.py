"""The solvers' orientation boundary: (N, 4) rows in, ``so3.Orientations`` out.

``pipeline``'s chains hand the bootstrap's ``orientations`` to FineNet, IRLS
and Weiszfeld.  The benchmark adapter, which still chains its own bootstrap
into IRLS and Weiszfeld, reads ``.w/.x/.y/.z`` from every returned item.
Those items (``so3.Quat`` tuples of a row's floats) and ``len(g.edges)`` are
all that is left of the package's object boundary, kept only for the
adapter; these tests run ``pipeline``'s chains, and
``test_benchmark_adapter.py`` runs the adapter itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import so3_oracle
from rotavg import baselines, cleaning, pipeline, refinement, so3, synthgen, trainer, viewgraph
from rotavg.viewgraph import ViewGraph, ViewGraphError
from so3_oracle import UnitQuaternion


def noisy_graph(seed=0, n=24):
    cfg = synthgen.SynthConfig(n_cameras=(n, n), edge_fraction=(0.3, 0.3), sigma_deg=(5.0, 5.0),
                               outlier_fraction=(0.1, 0.1), seed=seed)
    return synthgen.generate_graph(cfg, np.random.default_rng(seed))


def item_rows(orientations) -> np.ndarray:
    return np.array([(q.w, q.x, q.y, q.z) for q in orientations])


def test_solver_chain_hands_out_quaternion_items():
    g = noisy_graph()
    pred, cleaned, boot = pipeline.prepare(g, cleaning.new_weights(0))
    sub = cleaned.graph
    refined = refinement.refine_forward(sub, boot.orientations, refinement.new_weights(0), boot.root)
    irls, weiszfeld = pipeline.irls(g), pipeline.weiszfeld(g, 1)
    assert len(cleaned.node_ids) + len(cleaned.dropped_nodes) == g.n_nodes
    assert len(cleaned.node_ids) == sub.n_nodes and len(pred.outlier_prob) == len(g.edges)
    for out, n in ((boot.orientations, sub.n_nodes), (refined, sub.n_nodes),
                   (irls.orientations, g.n_nodes), (weiszfeld.orientations, g.n_nodes)):
        assert isinstance(out, so3.Orientations) and len(out) == n
        assert all(isinstance(q, so3.Quat) for q in out)
        rows = item_rows(out)
        assert rows.shape == (n, 4) and np.all(np.isfinite(rows))
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) < 1e-9
        assert np.array_equal(rows, np.asarray(out))
    # an untrained refiner returns its initialization, re-referenced at the root
    assert np.max(so3_oracle.qangle_deg(np.asarray(refined), np.asarray(boot.orientations))) < 1e-9
    assert irls.iterations == len(irls.max_step_trace) and len(weiszfeld.objective_trace) == 2


SOLVERS = {
    "irls": lambda g, rows: baselines.irls_mra(g, rows, max_iters=(1, 1)),
    "weiszfeld": lambda g, rows: baselines.weiszfeld_mra(g, rows, sweeps=1),
    "refine_forward": lambda g, rows: refinement.refine_forward(
        g, rows, refinement.new_weights(0), viewgraph.select_root(g)),
}


def with_row(rows, value):
    out = rows.copy()
    out[1] = value
    return out


def bad_inputs(g, good):
    return {
        "short": (good[:-1], "covering every node"),
        "wide": (np.ones((g.n_nodes, 3)), "covering every node"),
        "quaternion list": ([UnitQuaternion.from_array(r) for r in good], "covering every node"),
        "text": (good.astype(str), "covering every node"),  # a float cast would parse it
        "nan row": (with_row(good, (np.nan, 0.0, 0.0, 0.0)), "finite nonzero"),
        "inf row": (with_row(good, (np.inf, 0.0, 0.0, 0.0)), "finite nonzero"),
        "zero row": (with_row(good, 0.0), "finite nonzero"),
    }


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("case", ["short", "wide", "quaternion list", "text", "nan row", "inf row",
                                  "zero row"])
def test_orientation_rows_rejects_bad_input(solver, case):
    g = noisy_graph(seed=1, n=12)
    root = viewgraph.select_root(g)
    g = ViewGraph(g.n_nodes, *g.endpoint_arrays(), g.edge_quat_array(), g.edge_labels(),
                  viewgraph.rereference(g.gt, root))
    good = np.array(pipeline.bootstrap(g).orientations)
    SOLVERS[solver](g, good)  # the valid rows are accepted
    rows, message = bad_inputs(g, good)[case]
    with pytest.raises(ViewGraphError, match=message):
        SOLVERS[solver](g, rows)


@pytest.mark.parametrize("solver", SOLVERS)
def test_rows_whose_norm_overflows_are_accepted(solver):
    # a 1e200 component's square overflows, so each row's norm is inf
    g = noisy_graph(seed=1, n=12)
    good = np.array(pipeline.bootstrap(g).orientations)
    outs = [SOLVERS[solver](g, rows) for rows in (good, 1e200 * good)]
    unit, big = (np.asarray(getattr(out, "orientations", out)) for out in outs)
    assert np.max(so3_oracle.qangle_deg(unit, big)) < 1e-12


def test_orientation_rows_canonicalises():
    g = noisy_graph(seed=2, n=6)
    rows = so3.sample_uniform_rows(np.random.default_rng(2), g.n_nodes)
    out = viewgraph.orientation_rows(g, -rows)
    assert np.array_equal(out, rows) and out.flags.writeable
    assert np.max(np.abs(viewgraph.orientation_rows(g, 2.0 * rows) - rows)) < 1e-15
    # the items of a view are plain tuples of the row's floats, so a list of them is rows
    assert np.array_equal(viewgraph.orientation_rows(g, list(so3.Orientations(rows))), rows)


def restored(g: ViewGraph, rng: np.random.Generator) -> ViewGraph:
    """``g`` rebuilt from its own edges in a random order, a random half of
    them given reversed (``v -> u`` with the inverse measurement)."""
    (u, v), q = g.endpoint_arrays(), g.edge_quat_array()
    perm = rng.permutation(g.n_edges)
    flip = (rng.random(g.n_edges) < 0.5)[perm]
    u, v, q = u[perm], v[perm], q[perm]
    return ViewGraph(g.n_nodes, np.where(flip, v, u), np.where(flip, u, v),
                     np.where(flip[:, None], so3.qconj(q), q), g.edge_labels()[perm], g.gt)


def noisy_suite_graph(seed: int, n: int, edge_fraction: float) -> ViewGraph:
    cfg = synthgen.SynthConfig(n_cameras=(n, n), edge_fraction=(edge_fraction, edge_fraction),
                               sigma_deg=(10.0, 10.0), outlier_fraction=(0.1, 0.1), seed=seed)
    return synthgen.generate_graph(cfg, np.random.default_rng(seed))


def stored_arrays(g: ViewGraph) -> list[bytes]:
    return [x.tobytes() for x in (*g.endpoint_arrays(), g.edge_quat_array(), g.edge_labels(), g.gt)]


def assert_stored_by_pair(g: ViewGraph) -> None:
    """``g`` stores its edges ``u < v`` with strictly increasing keys ``u * N + v``."""
    u, v = g.endpoint_arrays()
    keys = u * g.n_nodes + v
    assert np.all(u < v) and np.all(keys[1:] > keys[:-1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.sampled_from([0.15, 0.3, 0.6]))
def test_shuffled_flipped_input_builds_the_same_graph(seed, n, edge_fraction):
    # a graph stores its edges by (u, v), whatever order and direction its
    # input gives them in, so no solver can see that order
    g = noisy_suite_graph(seed, n, edge_fraction)
    shuffled = restored(g, np.random.default_rng(seed))
    assert shuffled.n_nodes == g.n_nodes and stored_arrays(shuffled) == stored_arrays(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.sampled_from([0.15, 0.3, 0.6]))
def test_every_graph_is_stored_by_pair(seed, n, edge_fraction):
    g = noisy_suite_graph(seed, n, edge_fraction)
    rng = np.random.default_rng(seed)
    header, *lines = viewgraph.serialize(g).splitlines()
    nodes, edges = lines[:n], lines[n:]
    parsed = viewgraph.parse("\n".join([header, *nodes, *rng.permutation(edges)]))
    sub = viewgraph.induced_subgraph(restored(g, rng), rng.permutation(n)[:n // 2])
    prob = rng.random(g.n_edges)
    prob[0] = 0.0  # one edge stays
    pred = cleaning.CleanPrediction(rect=g.edge_quat_array(), outlier_prob=prob, logits=prob)
    for made in (g, restored(g, rng), parsed, sub, viewgraph.largest_component(sub)[0],
                 cleaning.clean_graph(g, pred).graph, trainer._dropout_subgraph(g, 0.5, rng)):
        assert_stored_by_pair(made)
    assert stored_arrays(parsed) == stored_arrays(g)
