"""Training of the cleaning and refinement networks.

One epoch loop (``_fit``) trains both networks per graph (batch size one)
with Adam and decoupled weight decay; each network only supplies its
per-sample loss and how a graph becomes a sample.  Each epoch re-samples an
edge-dropout mask per training graph, so training samples are made every
epoch; validation always runs on the full graphs with the same loss, their
samples made once, and the parameters with the best validation loss are
returned.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import cleaning, refinement, viewgraph
from .autodiff import ParamStore, Tape, Tensor
from .viewgraph import ViewGraph, ViewGraphError

DESK_LR = 2e-3          # larger steps suit the short desk-scale schedule
DESK_EPOCHS = 100

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
        if not isinstance(self.epochs, numbers.Integral) or self.epochs < 1:
            raise ValueError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        if not 0.0 <= self.edge_dropout < 1.0:
            raise ValueError("edge_dropout must lie in [0, 1)")
        # a negative lr would run gradient ascent; NaN would surface an epoch
        # later as a non-finite loss
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")

    @classmethod
    def desk(cls, seed: int = 0, **overrides) -> "TrainConfig":
        kwargs = dict(epochs=DESK_EPOCHS, lr=DESK_LR, seed=seed)
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass
class TrainLog:
    """Per-epoch training curve: (epoch, train_loss, val_loss, wall_ms)."""

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = math.inf

    def write_csv(self, path: str | Path) -> None:
        lines = ["epoch,train_loss,val_loss,wall_ms"]
        for epoch, train_loss, val_loss, wall_ms in self.rows:
            lines.append(f"{epoch},{train_loss:.9g},{val_loss:.9g},{wall_ms:.3f}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_corpus(train_graphs: list[ViewGraph], val_graphs: list[ViewGraph]) -> None:
    if not train_graphs or not val_graphs:
        raise TrainingError("training and validation sets must be nonempty")
    for split, graphs in (("training", train_graphs), ("validation", val_graphs)):
        for i, g in enumerate(graphs):
            if not g.has_full_gt:
                raise TrainingError(f"{split} graph {i} lacks ground-truth orientations")
            if g.n_edges == 0:
                raise TrainingError(f"{split} graph {i} has no edges")


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
    """Mean per-sample loss on the full graphs' samples, evaluated without
    recording."""
    total = 0.0
    for sample in samples:
        tape = Tape(recording=False)
        total += float(graph_loss(tape, store.bind(tape), sample).values)
    return total / len(samples)


def _fit(
    store: ParamStore,
    graph_loss: GraphLoss,
    train_graphs: list[ViewGraph],
    val_graphs: list[ViewGraph],
    cfg: TrainConfig,
    prepare: Callable[[ViewGraph], Any] = lambda g: g,
) -> tuple[ParamStore, TrainLog]:
    """The epoch loop of both networks; returns the best-validation weights.

    ``prepare`` makes the sample ``graph_loss`` reads from a graph: every
    epoch for each dropout subgraph, once per call for each validation graph.
    """
    _check_corpus(train_graphs, val_graphs)
    val_samples = [prepare(g) for g in val_graphs]
    best = store.copy()
    log = TrainLog()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(train_graphs))
        epoch_loss = 0.0
        for gi in order:
            sub = _dropout_subgraph(train_graphs[gi], cfg.edge_dropout, rng)
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
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.rows.append((epoch, epoch_loss / len(train_graphs), val_loss, wall_ms))
        if val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best = store.copy()
    return best, log


def train_cleannet(
    train_graphs: list[ViewGraph],
    val_graphs: list[ViewGraph],
    cfg: TrainConfig,
) -> tuple[ParamStore, TrainLog]:
    """Train the edge-cleaning network; returns the best-validation weights."""

    def graph_loss(tape: Tape, weights: dict[str, Tensor], g: ViewGraph) -> Tensor:
        return cleaning.clean_loss_graph(tape, g, weights)

    return _fit(cleaning.new_weights(cfg.seed), graph_loss, train_graphs, val_graphs, cfg)


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
    train_graphs: list[ViewGraph],
    val_graphs: list[ViewGraph],
    cfg: TrainConfig,
    clean_store: ParamStore,
) -> tuple[ParamStore, TrainLog]:
    """Train the refinement network on inits from the cleaning network
    ``clean_store``, recomputed per epoch on the dropout-filtered edges; a
    validation graph's init depends on nothing else, so it is made once."""

    def graph_loss(tape: Tape, weights: dict[str, Tensor],
                   sample: tuple[ViewGraph, np.ndarray, int]) -> Tensor:
        observed, init_rows, root = sample
        pred = refinement.forward_tensors(tape, observed, init_rows, weights)
        return refinement.loss_from_pred(tape, pred, observed, root)

    return _fit(refinement.new_weights(cfg.seed), graph_loss, train_graphs, val_graphs,
                cfg, lambda g: prepare_refinement_sample(g, clean_store))
