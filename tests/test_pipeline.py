"""The NeuRoRA chain, ``pipeline.prepare`` and ``pipeline.run``.

Untrained networks keep every edge and correct none, so on a noise-free,
outlier-free graph the chain returns the ground truth up to gauge.  With
the committed weights two runs give the same bytes.  The chain's steps and
its removal threshold each have one place in the package, which an AST
guard checks; ``test_benchmark_adapter.py`` checks that ``run`` equals the
benchmark adapter's own chain.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import so3_oracle
from rotavg import autodiff, cleaning, pipeline, refinement, synthgen, viewgraph

CHECKPOINTS = Path(__file__).resolve().parents[1] / "benchmark" / "checkpoints"
CHAIN_STEPS = {"clean_graph", "shortest_path_tree", "bootstrap_orientations"}


def graph(seed, sigma=0.0, outliers=0.0, n=40):
    cfg = synthgen.SynthConfig(n_cameras=(n, n), edge_fraction=(0.3, 0.3), sigma_deg=(sigma, sigma),
                               outlier_fraction=(outliers, outliers), seed=seed)
    return synthgen.generate_graph(cfg, np.random.default_rng(seed))


def as_bytes(out: pipeline.NeuroraRun) -> list:
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (out.node_ids, out.rows, out.boot_rows, out.removed)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_untrained_nets_recover_a_clean_graph_exactly(seed):
    g = graph(seed)
    assert viewgraph.is_connected(g)
    out = pipeline.run(g, cleaning.new_weights(seed), refinement.new_weights(seed))
    assert out.node_ids.tolist() == list(range(g.n_nodes))
    assert out.removed.dtype == bool and out.removed.shape == (g.n_edges,)
    assert not out.removed.any()
    want = viewgraph.rereference(g.gt, 0)
    for rows in (out.rows, out.boot_rows):
        assert rows.shape == (g.n_nodes, 4) and not rows.flags.writeable
        assert np.max(so3_oracle.qangle_deg(viewgraph.rereference(rows, 0), want)) <= 1e-9


def test_runs_are_deterministic():
    nets = (autodiff.load_checkpoint(CHECKPOINTS / "cleannet.json", cleaning.weight_spec()),
            autodiff.load_checkpoint(CHECKPOINTS / "finenet.json", refinement.weight_spec()))
    g = graph(3, sigma=10.0, outliers=0.2)
    first = pipeline.run(g, *nets)
    assert first.removed.any()
    assert as_bytes(pipeline.run(g, *nets)) == as_bytes(first)


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
    # only the pipeline runs the chain's steps, and only the cleaner reads
    # the removal threshold
    modules = sorted(Path(pipeline.__file__).parent.glob("*.py"))
    assert readers(modules, CHAIN_STEPS) == [f"pipeline.py:{name}" for name in sorted(CHAIN_STEPS)]
    assert readers(modules, {"EPSILON_DEFAULT"}) == ["cleaning.py:EPSILON_DEFAULT"]


def test_guard_finds_a_planted_call(tmp_path):
    # calls through a module, of an imported name, in a nested function and
    # a function passed on are found; definitions, assignments and strings
    # are not
    source = tmp_path / "planted.py"
    source.write_text(
        "from .viewgraph import shortest_path_tree\n"
        "def bootstrap_orientations(g):\n"
        "    return 'clean_graph'\n"
        "def solve(g, pred):\n"
        "    def inner():\n"
        "        return shortest_path_tree(g, 0)\n"
        "    cleaning.clean_graph(g, pred)\n"
        "    return inner, viewgraph.bootstrap_orientations\n"
        "EPSILON_DEFAULT = 0.5\n"
        "keep = prob <= cleaning.EPSILON_DEFAULT\n",
        encoding="utf-8")
    assert readers([source], CHAIN_STEPS) == ["planted.py:bootstrap_orientations",
                                              "planted.py:clean_graph",
                                              "planted.py:shortest_path_tree"]
    assert readers([source], {"EPSILON_DEFAULT"}) == ["planted.py:EPSILON_DEFAULT"]
    source.write_text("def clean_graph(g):\n    return 'bootstrap_orientations'\n", encoding="utf-8")
    assert readers([source], CHAIN_STEPS | {"EPSILON_DEFAULT"}) == []
