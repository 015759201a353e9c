"""The solvers' orientation boundary: (N, 4) rows in, ``so3.Orientations`` out.

The benchmark adapter chains clean -> bootstrap -> refine and feeds
``boot.orientations`` straight into IRLS and Weiszfeld, then reads
``.w/.x/.y/.z`` from every returned item.  Those items (``so3.Quat``
tuples of a row's floats) and ``len(g.edges)`` are all that is left of the
package's object boundary, kept only for the adapter; these tests run that
chain, and ``test_benchmark_adapter.py`` runs the adapter itself.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import so3_oracle
from rotavg import autodiff, baselines, cleaning, refinement, so3, synthgen, viewgraph
from rotavg.viewgraph import ViewGraph, ViewGraphError
from so3_oracle import UnitQuaternion


def noisy_graph(seed=0, n=24):
    cfg = synthgen.SynthConfig(n_cameras=(n, n), edge_fraction=(0.3, 0.3), sigma_deg=(5.0, 5.0),
                               outlier_fraction=(0.1, 0.1), seed=seed)
    return synthgen.generate_graph(cfg, np.random.default_rng(seed))


def bootstrap(g):
    tree = viewgraph.shortest_path_tree(g, viewgraph.select_root(g))
    return viewgraph.bootstrap_orientations(g, tree)


def item_rows(orientations) -> np.ndarray:
    return np.array([(q.w, q.x, q.y, q.z) for q in orientations])


def test_solver_chain_hands_out_quaternion_items():
    g = noisy_graph()
    pred = cleaning.clean_forward(g, cleaning.new_weights(0))
    cleaned = cleaning.clean_graph(g, pred)
    sub = cleaned.graph
    boot = bootstrap(sub)
    refined = refinement.refine_forward(sub, boot.orientations, refinement.new_weights(0), boot.root)
    boot_g = bootstrap(g)
    irls = baselines.irls_mra(g, boot_g.orientations, max_iters=(2, 2))
    weiszfeld = baselines.weiszfeld_mra(g, boot_g.orientations, sweeps=1)
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
    good = np.array(bootstrap(g).orientations)
    SOLVERS[solver](g, good)  # the valid rows are accepted
    rows, message = bad_inputs(g, good)[case]
    with pytest.raises(ViewGraphError, match=message):
        SOLVERS[solver](g, rows)


def test_orientation_rows_canonicalises():
    g = noisy_graph(seed=2, n=6)
    rows = so3.sample_uniform_rows(np.random.default_rng(2), g.n_nodes)
    out = viewgraph.orientation_rows(g, -rows)
    assert np.array_equal(out, rows) and out.flags.writeable
    assert np.max(np.abs(viewgraph.orientation_rows(g, 2.0 * rows) - rows)) < 1e-15
    # the items of a view are plain tuples of the row's floats, so a list of them is rows
    assert np.array_equal(viewgraph.orientation_rows(g, list(so3.Orientations(rows))), rows)


CHECKPOINTS = Path(__file__).resolve().parents[1] / "benchmark" / "checkpoints"


@pytest.fixture(scope="module")
def desk_weights():
    """The committed CleanNet and FineNet weights, loaded against the weight specs."""
    return (autodiff.load_checkpoint(CHECKPOINTS / "cleannet.json", cleaning.weight_spec()),
            autodiff.load_checkpoint(CHECKPOINTS / "finenet.json", refinement.weight_spec()))


def restored(g: ViewGraph, rng: np.random.Generator) -> ViewGraph:
    """``g`` rebuilt from its own edges in a random order, a random half of
    them given reversed (``v -> u`` with the inverse measurement)."""
    (u, v), q = g.endpoint_arrays(), g.edge_quat_array()
    perm = rng.permutation(g.n_edges)
    flip = (rng.random(g.n_edges) < 0.5)[perm]
    u, v, q = u[perm], v[perm], q[perm]
    return ViewGraph(g.n_nodes, np.where(flip, v, u), np.where(flip, u, v),
                     np.where(flip[:, None], so3.qconj(q), q), g.edge_labels()[perm], g.gt)


def by_key(g: ViewGraph, per_edge: np.ndarray) -> np.ndarray:
    """``per_edge`` in the order of the edges' keys ``u * N + v``."""
    u, v = g.endpoint_arrays()
    return per_edge[np.argsort(u * g.n_nodes + v)]


def angles_rad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.radians(so3.angle_deg(so3.qmul(so3.qconj(a), b)))


def neurora(g: ViewGraph, clean_store, fine_store):
    """The benchmark's NeuRoRA chain: the kept node ids, the removal mask and the refined rows."""
    pred = cleaning.clean_forward(g, clean_store)
    cleaned = cleaning.clean_graph(g, pred)
    boot = bootstrap(cleaned.graph)
    rows = refinement.refine_forward(cleaned.graph, boot.orientations, fine_store, boot.root)
    return cleaned.node_ids, pred.outlier_prob > cleaning.EPSILON_DEFAULT, np.asarray(rows)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.sampled_from([0.15, 0.3, 0.6]))
def test_solvers_ignore_the_edge_storage_order(desk_weights, seed, n, edge_fraction):
    # the directed-edge layout sorts by (target, source), which no two
    # directed edges share, so each node reads its in-edges in one order
    cfg = synthgen.SynthConfig(n_cameras=(n, n), edge_fraction=(edge_fraction, edge_fraction),
                               sigma_deg=(10.0, 10.0), outlier_fraction=(0.1, 0.1), seed=seed)
    g = synthgen.generate_graph(cfg, np.random.default_rng(seed))
    shuffled = restored(g, np.random.default_rng(seed))
    for arrays in (ViewGraph.edge_quat_array, ViewGraph.edge_labels):
        assert np.array_equal(by_key(g, arrays(g)), by_key(shuffled, arrays(shuffled)))
    init = bootstrap(g).orientations
    assert np.array_equal(np.asarray(bootstrap(shuffled).orientations), np.asarray(init))

    weiszfeld = [np.asarray(baselines.weiszfeld_mra(x, init, sweeps=3).orientations)
                 for x in (g, shuffled)]
    assert weiszfeld[0].tobytes() == weiszfeld[1].tobytes()

    ids, removed, rows = neurora(g, *desk_weights)
    s_ids, s_removed, s_rows = neurora(shuffled, *desk_weights)
    assert np.array_equal(s_ids, ids)
    assert np.array_equal(by_key(shuffled, s_removed), by_key(g, removed))
    assert np.max(angles_rad(s_rows, rows), initial=0.0) <= 1e-12

    irls, s_irls = (baselines.irls_mra(x, init, max_iters=(5, 20)) for x in (g, shuffled))
    assert s_irls.iterations == irls.iterations
    assert np.max(angles_rad(*(np.asarray(x.orientations) for x in (s_irls, irls)))) <= 1e-9
