"""Every call the benchmark makes into ``rotavg``.

The rest of the benchmark sees opaque graph handles and plain numpy arrays,
so a change to the package's API is absorbed here.  Importing this module
puts the checkout's ``src`` directory first on ``sys.path`` and fails if the
package sources are not there.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if not (SRC / "rotavg" / "__init__.py").is_file():
    raise ImportError(f"rotavg sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from rotavg import (  # noqa: E402
    autodiff, baselines, cleaning, mpnn, refinement, so3, synthgen, trainer, viewgraph,
)

# The package's typed errors: an operation raising one of these counts as failed.
PACKAGE_ERRORS = (
    viewgraph.ViewGraphError,
    baselines.SolverError,
    autodiff.AutodiffError,
    autodiff.CheckpointError,
    trainer.TrainingError,
    synthgen.SynthConfigError,
)

# Public functions the traced run wraps, as (module, attribute, span name).
TRACED_FUNCTIONS = [
    (viewgraph, "parse", "viewgraph.parse"),
    (viewgraph, "serialize", "viewgraph.serialize"),
    (viewgraph, "graph_stats", "viewgraph.graph_stats"),
    (viewgraph, "select_root", "viewgraph.select_root"),
    (viewgraph, "shortest_path_tree", "viewgraph.shortest_path_tree"),
    (viewgraph, "bootstrap_orientations", "viewgraph.bootstrap_orientations"),
    (cleaning, "clean_forward", "cleaning.clean_forward"),
    (cleaning, "clean_graph", "cleaning.clean_graph"),
    (refinement, "refine_forward", "refinement.refine_forward"),
    (mpnn, "forward", "mpnn.forward"),
    (baselines, "irls_mra", "baselines.irls_mra"),
    (baselines, "weiszfeld_mra", "baselines.weiszfeld_mra"),
    (synthgen, "generate_graph", "synthgen.generate_graph"),
    (trainer, "train_cleannet", "trainer.train_cleannet"),
    (trainer, "train_finenet", "trainer.train_finenet"),
    (trainer, "prepare_refinement_sample", "trainer.prepare_refinement_sample"),
    (autodiff.Tape, "backward", "autodiff.backward"),
    (autodiff.ParamStore, "adam_step", "autodiff.adam_step"),
]
# Functions called too often for a span each; the traced run counts calls.
COUNTED_FUNCTIONS = [(so3, "qmul", "so3.qmul_calls")]

IRLS_BUDGET = (5, 20)  # the package default: L1 then L1/2 iterations


def parse(text: str):
    return viewgraph.parse(text)


def _rows(quats) -> np.ndarray:
    return np.array([(q.w, q.x, q.y, q.z) for q in quats], dtype=np.float64)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Nets:
    clean: object
    fine: object


def load_nets(ckpt_dir: Path) -> Nets:
    """Load both checkpoints against the current weight specs.

    Raises ``CheckpointError`` naming the file when a checkpoint does not
    match the architecture the package now defines.
    """
    stores = []
    for name, module in (("cleannet.json", cleaning), ("finenet.json", refinement)):
        path = ckpt_dir / name
        try:
            stores.append(autodiff.load_checkpoint(path, module.weight_spec()))
        except autodiff.CheckpointError as exc:
            raise autodiff.CheckpointError(
                f"{path} does not match {module.__name__}.weight_spec(): {exc}"
            ) from exc
    return Nets(clean=stores[0], fine=stores[1])


def save_nets(nets: Nets, ckpt_dir: Path) -> None:
    autodiff.save_checkpoint(nets.clean, ckpt_dir / "cleannet.json")
    autodiff.save_checkpoint(nets.fine, ckpt_dir / "finenet.json")


# ---------------------------------------------------------------------------
# Solvers: ``solve_*`` is the timed call, ``*_result`` converts its output
# ---------------------------------------------------------------------------

def solve_bootstrap(g):
    """BFS spanning tree from the max-degree root, orientations chained along it."""
    root = viewgraph.select_root(g)
    return viewgraph.bootstrap_orientations(g, viewgraph.shortest_path_tree(g, root))


def bootstrap_result(raw) -> np.ndarray:
    return _rows(raw.orientations)


def solve_neurora(g, nets: Nets):
    """Clean, keep the largest component, bootstrap, refine."""
    pred = cleaning.clean_forward(g, nets.clean)
    cleaned = cleaning.clean_graph(g, pred)
    sub = cleaned.graph
    boot = solve_bootstrap(sub)
    refined = refinement.refine_forward(sub, boot.orientations, nets.fine, boot.root)
    return pred, cleaned, boot, refined


@dataclass
class NeuroraResult:
    node_ids: np.ndarray   # (M,) original ids of the returned nodes
    q: np.ndarray          # (M, 4) refined orientations
    boot_q: np.ndarray     # (M, 4) bootstrap orientations before refinement
    removed: np.ndarray    # (E,) bool, edges the cleaner removed
    dropped_nodes: int


def neurora_result(raw) -> NeuroraResult:
    pred, cleaned, boot, refined = raw
    return NeuroraResult(
        node_ids=np.asarray(cleaned.node_ids, dtype=np.int64),
        q=_rows(refined),
        boot_q=_rows(boot.orientations),
        removed=np.asarray(pred.outlier_prob) > cleaning.EPSILON_DEFAULT,
        dropped_nodes=len(cleaned.dropped_nodes),
    )


def solve_irls(g):
    boot = solve_bootstrap(g)
    return baselines.irls_mra(g, boot.orientations, max_iters=IRLS_BUDGET)


@dataclass
class IrlsOutcome:
    q: np.ndarray
    iterations: int
    capped: bool  # the last phase ended on its iteration cap, not on tolerance


def irls_result(raw) -> IrlsOutcome:
    return IrlsOutcome(
        q=_rows(raw.orientations),
        iterations=raw.iterations,
        capped=bool(raw.max_step_trace) and raw.max_step_trace[-1] >= baselines.IRLS_STEP_TOL,
    )


def solve_weiszfeld(g, sweeps: int):
    boot = solve_bootstrap(g)
    return baselines.weiszfeld_mra(g, boot.orientations, sweeps=sweeps)


@dataclass
class WeiszfeldOutcome:
    q: np.ndarray
    objective_ratio: float  # objective after the last sweep / before the first


def weiszfeld_result(raw) -> WeiszfeldOutcome:
    trace = raw.objective_trace
    return WeiszfeldOutcome(q=_rows(raw.orientations), objective_ratio=trace[-1] / trace[0])


# ---------------------------------------------------------------------------
# Corpus and training
# ---------------------------------------------------------------------------

def corpus_graph(n: int, edge_fraction: float, sigma_deg: float, outlier_fraction: float,
                 seed: int) -> tuple[int, int, int]:
    """Generate one graph with ``synthgen``, serialize, re-parse, take stats.

    The config has fixed sizes, so the cost stays comparable when the
    generator's random streams change.  Returns (N, E) of the generated
    graph and E as seen by ``graph_stats`` on the re-parsed graph.
    """
    cfg = synthgen.SynthConfig(
        n_cameras=(n, n), edge_fraction=(edge_fraction, edge_fraction),
        sigma_deg=(sigma_deg, sigma_deg),
        outlier_fraction=(outlier_fraction, outlier_fraction), seed=seed,
    )
    g = synthgen.generate_graph(cfg, np.random.default_rng(seed))
    back = viewgraph.parse(viewgraph.serialize(g))
    stats = viewgraph.graph_stats(back)
    return g.n_nodes, len(g.edges), len(stats.rel_angles_deg)


def train_config(epochs: int, seed: int = 0):
    return trainer.TrainConfig(epochs=epochs, lr=trainer.DESK_LR, seed=seed)


def train_cleannet(train_graphs, val_graphs, epochs: int, seed: int = 0):
    """Returns (weights, best validation loss)."""
    store, log = trainer.train_cleannet(train_graphs, val_graphs, train_config(epochs, seed))
    return store, log.best_val_loss


def train_finenet(train_graphs, val_graphs, epochs: int, clean_store, seed: int = 0):
    """Returns (weights, best validation loss); inits come from ``clean_store``."""
    store, log = trainer.train_finenet(
        train_graphs, val_graphs, train_config(epochs, seed), clean_store=clean_store
    )
    return store, log.best_val_loss
