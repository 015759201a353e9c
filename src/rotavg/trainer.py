"""Training of the cleaning and refinement networks.

One epoch loop (``_fit``) trains both networks per graph (batch size one)
with Adam and decoupled weight decay; each network only supplies its
per-sample loss and how a graph becomes a sample.  Either loss is one tape
record per step, the message passing and the loss with one composed
pullback (``cleaning.clean_loss_graph``, ``refinement.refine_loss_graph``).
Each epoch re-samples an edge-dropout mask per training graph, so training
samples are made every epoch; validation always runs on the full graphs
with the same loss, their samples made once, and the parameters with the
best validation loss are returned.  A split is any sequence of graphs, such
as a lazy ``synthgen.corpus`` split, which generates each graph when it is
read.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import cleaning, refinement, viewgraph
from .autodiff import ParamStore, Tape, Tensor
from .viewgraph import ViewGraph, ViewGraphError

DESK_LR = 2e-3          # larger steps suit the short desk-scale schedule

# Scalar loss of one sample, recorded on ``tape`` against the bound weights.
GraphLoss = Callable[[Tape, dict[str, Tensor], Any], Tensor]


class TrainingError(RuntimeError):
    """Non-finite loss or unusable training data."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 250
    lr: float = 0.5e-4
    weight_decay: float = 1e-4
    edge_dropout: float = 0.25
    seed: int = 0

    def __post_init__(self):
        # a negative lr would run gradient ascent; NaN would surface an epoch
        # later as a non-finite loss
        for name, kind, ok, rule in (
            ("epochs", numbers.Integral, lambda x: x >= 1, "an integer >= 1"),
            ("lr", numbers.Real, lambda x: 0.0 < x < math.inf, "a finite number > 0"),
            ("weight_decay", numbers.Real, lambda x: 0.0 <= x < math.inf, "a finite number >= 0"),
            ("edge_dropout", numbers.Real, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)"),
            ("seed", numbers.Integral, lambda x: x >= 0, "a non-negative integer"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool) or not ok(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass
class TrainLog:
    """Per-epoch training curve: (epoch, train_loss, val_loss, wall_ms)."""

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = math.inf


def _checked(split: str, i: int, g: ViewGraph) -> ViewGraph:
    """``g``, after checking that graph ``i`` of ``split`` has ground truth
    and an edge."""
    if not g.has_full_gt:
        raise TrainingError(f"{split} graph {i} lacks ground-truth orientations")
    if g.n_edges == 0:
        raise TrainingError(f"{split} graph {i} has no edges")
    return g


def _dropout_subgraph(g: ViewGraph, dropout: float, rng: np.random.Generator) -> ViewGraph:
    """Drop a fraction of undirected edges (both directions together)."""
    if dropout == 0.0:
        return g
    m = g.n_edges
    keep = max(1, int(round((1.0 - dropout) * m)))
    idx = np.sort(rng.choice(m, size=keep, replace=False))
    u, v = g.endpoint_arrays()
    return ViewGraph._from_valid(g.n_nodes, u[idx], v[idx], g.edge_quat_array()[idx],
                                 g.edge_labels()[idx], g.gt)


def _val_loss(store: ParamStore, graph_loss: GraphLoss, samples: list) -> float:
    """Mean per-sample loss on the full graphs' samples; each sample's tape
    is dropped unread."""
    total = 0.0
    for sample in samples:
        tape = Tape()
        total += float(graph_loss(tape, store.bind(tape), sample).values)
    return total / len(samples)


def _fit(
    store: ParamStore,
    graph_loss: GraphLoss,
    train_graphs: Sequence[ViewGraph],
    val_graphs: Sequence[ViewGraph],
    cfg: TrainConfig,
    prepare: Callable[[ViewGraph], Any] = lambda g: g,
) -> tuple[ParamStore, TrainLog]:
    """The epoch loop of both networks; returns the best-validation weights.

    ``prepare`` makes the sample ``graph_loss`` reads from a graph: every
    epoch for each dropout subgraph, once per call for each validation graph.
    Each graph is checked where it is first read, so a lazy split generates
    no graph just to check it: a validation graph before its sample is made,
    a training graph at its read in epoch 0.
    """
    if not train_graphs or not val_graphs:
        raise TrainingError("training and validation sets must be nonempty")
    val_samples = [prepare(_checked("validation", i, g)) for i, g in enumerate(val_graphs)]
    best = store.copy()
    log = TrainLog()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(train_graphs))
        epoch_loss = 0.0
        for gi in order:
            g = train_graphs[gi]
            if epoch == 0:
                _checked("training", gi, g)
            sub = _dropout_subgraph(g, cfg.edge_dropout, rng)
            tape = Tape()
            try:
                loss = graph_loss(tape, store.bind(tape), prepare(sub))
            except ViewGraphError as exc:
                raise TrainingError(f"unusable graph at epoch {epoch}, graph {gi}: {exc}") from exc
            value = float(loss.values)
            if not math.isfinite(value):
                raise TrainingError(f"non-finite loss at epoch {epoch}, graph {gi}: {value!r}")
            epoch_loss += value
            tape.backward(loss)
            store.adam_step(cfg.lr, cfg.weight_decay)
        val_loss = _val_loss(store, graph_loss, val_samples)
        if not math.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}: {val_loss!r}")
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.rows.append((epoch, epoch_loss / len(train_graphs), val_loss, wall_ms))
        if val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best = store.copy()
    return best, log


def train_cleannet(
    train_graphs: Sequence[ViewGraph],
    val_graphs: Sequence[ViewGraph],
    cfg: TrainConfig,
) -> tuple[ParamStore, TrainLog]:
    """Train the edge-cleaning network; returns the best-validation weights."""
    return _fit(cleaning.new_weights(cfg.seed),
                lambda tape, weights, g: cleaning.clean_loss_graph(tape, g, weights),
                train_graphs, val_graphs, cfg)


def prepare_refinement_sample(
    g: ViewGraph, clean_store: ParamStore
) -> tuple[ViewGraph, np.ndarray, int]:
    """Build one refinement training/eval sample from a (sub)graph.

    Clean, bootstrap on the cleaned graph, then pair the init with the graph
    of *observed* measurements over the surviving nodes; ground truth is
    re-referenced at the tree root.  An untrained cleaner
    (``cleaning.new_weights``) removes no edge and corrects none, so its
    sample bootstraps on the noisy graph's largest component.  Returns the
    observed graph, the (N, 4) initial rows and the root.
    """
    pred = cleaning.clean_forward(g, clean_store)
    cleaned = cleaning.clean_graph(g, pred)
    base = cleaned.graph
    root = viewgraph.select_root(base)
    boot = viewgraph.bootstrap_orientations(base, viewgraph.shortest_path_tree(base, root))

    # new id i is old id cleaned.node_ids[i] in both graphs
    observed = viewgraph.induced_subgraph(g, cleaned.node_ids)
    if observed.has_full_gt:
        observed = ViewGraph._from_valid(observed.n_nodes, *observed.endpoint_arrays(),
                                         observed.edge_quat_array(), observed.edge_labels(),
                                         viewgraph.rereference(observed.gt, root))
    return observed, np.asarray(boot.orientations), root


def train_finenet(
    train_graphs: Sequence[ViewGraph],
    val_graphs: Sequence[ViewGraph],
    cfg: TrainConfig,
    clean_store: ParamStore,
) -> tuple[ParamStore, TrainLog]:
    """Train the refinement network on inits from the cleaning network
    ``clean_store``, recomputed per epoch on the dropout-filtered edges; a
    validation graph's init depends on nothing else, so it is made once."""
    return _fit(refinement.new_weights(cfg.seed),
                lambda tape, weights, sample: refinement.refine_loss_graph(tape, *sample, weights),
                train_graphs, val_graphs, cfg, lambda g: prepare_refinement_sample(g, clean_store))
