"""The solve chains: ``pipeline.bootstrap``, ``prepare``, ``run``, ``irls``
and ``weiszfeld``.

Untrained networks keep every edge and correct none, so on a noise-free,
outlier-free graph every chain returns the ground truth up to gauge.  Two
calls of a chain give the same bytes, NeuRoRA's with the committed weights.
A disconnected graph has no BFS bootstrap, so the solver chains refuse it.
The chains' steps and the removal threshold each have one place in the
package, which an AST guard checks, and ``tools/bench.py`` reaches the steps
only through ``pipeline``; ``test_benchmark_adapter.py`` checks that the
chains equal the benchmark adapter's own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import so3_oracle
from rotavg import autodiff, cleaning, pipeline, refinement, synthgen, viewgraph
from rotavg.viewgraph import ViewGraphError
from so3_oracle import Edge, edge_graph

ROOT = Path(__file__).resolve().parents[1]
CHECKPOINTS = ROOT / "benchmark" / "checkpoints"
CHAIN_STEPS = {"clean_forward", "clean_graph", "shortest_path_tree", "bootstrap_orientations",
               "refine_forward", "irls_mra", "weiszfeld_mra"}
# the benchmark adapter's copies of the chains and its readers of their outputs
ADAPTER_CHAINS = {"solve_bootstrap", "solve_neurora", "solve_irls", "solve_weiszfeld",
                  "bootstrap_result", "neurora_result", "irls_result", "weiszfeld_result"}
# the chains that solve the whole graph from its bootstrap
SOLVERS = {"bootstrap": pipeline.bootstrap, "irls": pipeline.irls,
           "weiszfeld": lambda g: pipeline.weiszfeld(g, 3)}


def graph(seed, sigma=0.0, outliers=0.0, n=40):
    cfg = synthgen.SynthConfig(n_cameras=(n, n), edge_fraction=(0.3, 0.3), sigma_deg=(sigma, sigma),
                               outlier_fraction=(outliers, outliers), seed=seed)
    return synthgen.generate_graph(cfg, np.random.default_rng(seed))


def as_bytes(out) -> dict:
    """Every field of a chain's output as its dtype, shape and bytes."""
    arrays = {name: np.asarray(value) for name, value in vars(out).items()}
    return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_untrained_nets_recover_a_clean_graph_exactly(seed):
    g = graph(seed)
    assert viewgraph.is_connected(g)
    out = pipeline.run(g, cleaning.new_weights(seed), refinement.new_weights(seed))
    assert out.node_ids.tolist() == list(range(g.n_nodes))
    assert out.removed.dtype == bool and out.removed.shape == (g.n_edges,)
    assert not out.removed.any()
    solved = [np.asarray(solve(g).orientations) for solve in SOLVERS.values()]
    want = viewgraph.rereference(g.gt, 0)
    for rows in (out.rows, out.boot_rows, *solved):
        assert rows.shape == (g.n_nodes, 4)
        assert np.max(so3_oracle.qangle_deg(viewgraph.rereference(rows, 0), want)) <= 1e-9
    for a in (out.node_ids, out.rows, out.boot_rows, out.removed, *solved):
        assert not a.flags.writeable


def test_runs_are_deterministic():
    nets = (autodiff.load_checkpoint(CHECKPOINTS / "cleannet.json", cleaning.weight_spec()),
            autodiff.load_checkpoint(CHECKPOINTS / "finenet.json", refinement.weight_spec()))
    g = graph(3, sigma=10.0, outliers=0.2)
    first = pipeline.run(g, *nets)
    assert first.removed.any()
    assert as_bytes(pipeline.run(g, *nets)) == as_bytes(first)
    for solve in SOLVERS.values():
        assert as_bytes(solve(g)) == as_bytes(solve(g))


@pytest.mark.parametrize("solver", SOLVERS)
def test_solvers_refuse_a_disconnected_graph(solver):
    # NeuRoRA keeps the cleaned graph's largest component instead
    q = so3_oracle.yaw_deg(10.0)
    with pytest.raises(ViewGraphError, match="disconnected"):
        SOLVERS[solver](edge_graph(4, [Edge(0, 1, q), Edge(2, 3, q)]))


def readers(paths, names) -> list[str]:
    """``file:name`` of every read, as a name or an attribute, of one of
    ``names`` in the modules ``paths``; definitions and assignments are not
    reads."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in names and isinstance(node.ctx, ast.Load):
                found.add(f"{path.name}:{name}")
    return sorted(found)


def test_chain_and_threshold_have_one_place_each():
    # only the pipeline runs the chains' steps, the bench tool reaches them
    # through it alone, and only the cleaner reads the removal threshold
    modules = sorted(Path(pipeline.__file__).parent.glob("*.py"))
    assert readers(modules, CHAIN_STEPS) == [f"pipeline.py:{name}" for name in sorted(CHAIN_STEPS)]
    assert readers([ROOT / "tools" / "bench.py"], CHAIN_STEPS | ADAPTER_CHAINS) == []
    assert readers(modules, {"EPSILON_DEFAULT"}) == ["cleaning.py:EPSILON_DEFAULT"]


def test_guard_finds_a_planted_call(tmp_path):
    # calls through a module, of an imported name, in a nested function and
    # a function passed on are found; definitions, assignments and strings
    # are not
    source = tmp_path / "planted.py"
    source.write_text(
        "from .viewgraph import shortest_path_tree\n"
        "from .baselines import weiszfeld_mra\n"
        "def bootstrap_orientations(g):\n"
        "    return 'clean_graph'\n"
        "def solve(g, pred):\n"
        "    def inner():\n"
        "        return shortest_path_tree(g, 0), weiszfeld_mra(g, None)\n"
        "    cleaning.clean_graph(cleaning.clean_forward(g, store), pred)\n"
        "    refine_forward = baselines.irls_mra\n"
        "    return inner, viewgraph.bootstrap_orientations, adapter.solve_irls\n"
        "EPSILON_DEFAULT = 0.5\n"
        "keep = prob <= cleaning.EPSILON_DEFAULT\n",
        encoding="utf-8")
    assert readers([source], CHAIN_STEPS) == ["planted.py:bootstrap_orientations",
                                              "planted.py:clean_forward",
                                              "planted.py:clean_graph",
                                              "planted.py:irls_mra",
                                              "planted.py:shortest_path_tree",
                                              "planted.py:weiszfeld_mra"]
    assert readers([source], ADAPTER_CHAINS) == ["planted.py:solve_irls"]
    assert readers([source], {"EPSILON_DEFAULT"}) == ["planted.py:EPSILON_DEFAULT"]
    source.write_text("def clean_graph(g):\n    return 'bootstrap_orientations'\n"
                      "refine_forward = solve_neurora = 'irls_mra'\n", encoding="utf-8")
    assert readers([source], CHAIN_STEPS | ADAPTER_CHAINS | {"EPSILON_DEFAULT"}) == []
