"""Contract of the benchmark adapter (``benchmark/adapter.py``) with the package.

The adapter is every call the benchmark makes into ``rotavg``.  This test
imports it as it stands, without changing it, and runs each of its calls
on one small graph, so that a package change that breaks the benchmark
fails here.  What the adapter reads of the package's object boundary is
checked by value: the rows it builds from the solvers' ``Orientations``
items are bit-equal to ``np.asarray`` of them, and ``corpus_graph`` counts
the generated graph's edges.  The training schedule the checkpoint script
reads through the adapter is checked against the committed checkpoints'
manifest.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rotavg import synthgen, viewgraph

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def adapter():
    spec = importlib.util.spec_from_file_location("benchmark_adapter", BENCH_DIR / "adapter.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def graph(adapter):
    cfg = synthgen.SynthConfig(n_cameras=(30, 30), edge_fraction=(0.3, 0.3),
                               sigma_deg=(10.0, 10.0), outlier_fraction=(0.1, 0.1), seed=5)
    return adapter.parse(viewgraph.serialize(synthgen.generate_graph(cfg, np.random.default_rng(5))))


def assert_rows_of(got: np.ndarray, orientations) -> None:
    want = np.asarray(orientations)
    assert got.dtype == np.float64 and got.shape == want.shape == (len(orientations), 4)
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros too


def test_traced_functions_exist(adapter):
    for owner, name, _ in adapter.TRACED_FUNCTIONS + adapter.COUNTED_FUNCTIONS:
        assert callable(getattr(owner, name)), name


def test_solver_results_are_the_solvers_rows(adapter, graph):
    nets = adapter.load_nets(BENCH_DIR / "checkpoints")

    raw = adapter.solve_bootstrap(graph)
    assert_rows_of(adapter.bootstrap_result(raw), raw.orientations)

    pred, cleaned, boot, refined = raw = adapter.solve_neurora(graph, nets)
    result = adapter.neurora_result(raw)
    assert_rows_of(result.q, refined)
    assert_rows_of(result.boot_q, boot.orientations)
    assert np.array_equal(result.node_ids, cleaned.node_ids) and len(result.q) == cleaned.graph.n_nodes
    assert result.removed.shape == (graph.n_edges,)
    assert result.dropped_nodes == len(cleaned.dropped_nodes)

    raw = adapter.solve_irls(graph)
    result = adapter.irls_result(raw)
    assert_rows_of(result.q, raw.orientations)
    assert result.iterations == raw.iterations
    assert result.capped == (bool(raw.max_step_trace) and not raw.converged)

    raw = adapter.solve_weiszfeld(graph, 2)
    result = adapter.weiszfeld_result(raw)
    assert_rows_of(result.q, raw.orientations)
    assert result.objective_ratio == raw.objective_trace[-1] / raw.objective_trace[0]


def test_corpus_graph_counts(adapter):
    args = dict(n=12, edge_fraction=0.4, sigma_deg=15.0, outlier_fraction=0.1, seed=3)
    n, e, stats_e = adapter.corpus_graph(**args)
    cfg = synthgen.SynthConfig(n_cameras=(12, 12), edge_fraction=(0.4, 0.4),
                               sigma_deg=(15.0, 15.0), outlier_fraction=(0.1, 0.1), seed=3)
    g = synthgen.generate_graph(cfg, np.random.default_rng(3))
    assert (n, e, stats_e) == (g.n_nodes, g.n_edges, g.n_edges)
    assert all(type(x) is int for x in (n, e, stats_e))


def test_training_calls(adapter, graph):
    store, loss = adapter.train_cleannet([graph], [graph], epochs=1)
    assert np.isfinite(loss) and set(store.params) == set(adapter.cleaning.weight_spec())
    store, loss = adapter.train_finenet([graph], [graph], epochs=1, clean_store=store)
    assert np.isfinite(loss) and set(store.params) == set(adapter.refinement.weight_spec())


def test_checkpoint_schedule_reads(adapter):
    # ``train_checkpoints.py`` records these three in the checkpoint manifest.
    # It is not imported here: it sets BLAS environment variables at import.
    schedule = json.loads((BENCH_DIR / "checkpoints" / "manifest.json").read_text())["schedule"]
    cfg = adapter.train_config(schedule["epochs"])
    assert adapter.trainer.DESK_LR == cfg.lr == schedule["lr"]
    assert cfg.weight_decay == schedule["weight_decay"]
    assert cfg.edge_dropout == schedule["edge_dropout"]


def test_repeated_checkpoint_entry_names_the_file(adapter, tmp_path):
    for name in ("cleannet.json", "finenet.json"):
        payload = json.loads((BENCH_DIR / "checkpoints" / name).read_text())
        if name == "cleannet.json":
            payload["params"].append(payload["params"][0])
        (tmp_path / name).write_text(json.dumps(payload))
    with pytest.raises(adapter.autodiff.CheckpointError, match="cleannet.json .*duplicate"):
        adapter.load_nets(tmp_path)
