"""Training of the cleaning and refinement networks.

One epoch loop (``_fit``) trains both networks per graph (batch size one)
with Adam and decoupled weight decay; each network only supplies its
per-sample step and how a graph becomes a sample.  A step
(``cleaning.clean_loss_graph``, ``refinement.refine_loss_graph``) returns
an ``autodiff.Tape``: the loss of the message passing and the loss terms,
and one composed pullback, whose gradients Adam takes.
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
from typing import Any, ClassVar

import numpy as np

from . import cleaning, pipeline, refinement, viewgraph
from .autodiff import ParamStore, Tape
from .viewgraph import ViewGraph, ViewGraphError

DESK_LR = 2e-3          # larger steps suit the short desk-scale schedule

# The training step of one sample on the parameter arrays.
GraphLoss = Callable[[dict[str, np.ndarray], Any], Tape]


class TrainingError(RuntimeError):
    """Non-finite loss or unusable training data."""


@dataclass(frozen=True)
class TrainConfig:
    """Epochs, learning rate and seed; ``weight_decay`` and ``edge_dropout`` are constants."""

    epochs: int = 250
    lr: float = 0.5e-4
    seed: int = 0
    weight_decay: ClassVar[float] = 1e-4  # Adam's decoupled weight decay
    edge_dropout: ClassVar[float] = 0.25  # share of a training graph's edges each epoch drops

    def __post_init__(self):
        # a negative lr would run gradient ascent; NaN would surface an epoch
        # later as a non-finite loss
        for name, kind, ok, rule in (
            ("epochs", numbers.Integral, lambda x: x >= 1, "an integer >= 1"),
            ("lr", numbers.Real, lambda x: 0.0 < x < math.inf, "a finite number > 0"),
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
    keep = max(1, int(round((1.0 - dropout) * g.n_edges)))
    idx = np.sort(rng.choice(g.n_edges, size=keep, replace=False))
    u, v = g.endpoint_arrays()
    return ViewGraph._from_valid(g.n_nodes, u[idx], v[idx], g.edge_quat_array()[idx],
                                 g.edge_labels()[idx], g.gt)


def _usable(where: str, make: Callable[[], Any]) -> Any:
    """``make()``, its :class:`ViewGraphError` raised as a :class:`TrainingError`
    that names ``where``."""
    try:
        return make()
    except ViewGraphError as exc:
        raise TrainingError(f"unusable {where}: {exc}") from exc


def _val_loss(store: ParamStore, graph_loss: GraphLoss, samples: list) -> float:
    """Mean per-sample loss on the full graphs' samples; no step's pullback runs."""
    total = 0.0
    for i, sample in enumerate(samples):
        total += _usable(f"validation graph {i}", lambda: graph_loss(store.params, sample)).loss
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
    val_samples = [_usable(f"validation graph {i}", lambda: prepare(_checked("validation", i, g)))
                   for i, g in enumerate(val_graphs)]
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
            step = _usable(f"graph at epoch {epoch}, graph {gi}",
                           lambda: graph_loss(store.params, prepare(sub)))
            if not math.isfinite(step.loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, graph {gi}: {step.loss!r}")
            epoch_loss += step.loss
            store.adam_step(step.backward(), cfg.lr, cfg.weight_decay)
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
                lambda weights, g: cleaning.clean_loss_graph(g, weights),
                train_graphs, val_graphs, cfg)


def prepare_refinement_sample(
    g: ViewGraph, clean_store: ParamStore
) -> tuple[ViewGraph, np.ndarray, int]:
    """Build one refinement training/eval sample from a (sub)graph.

    ``pipeline.prepare``'s bootstrap, paired with the graph of *observed*
    measurements over the kept nodes, its ground truth as it is: the loss
    re-references it at the tree root.  Inference (``pipeline.run``) refines
    on the cleaned graph instead, so FineNet trains on other inputs than it
    sees at inference.  An untrained cleaner (``cleaning.new_weights``)
    removes no edge and corrects none, so its sample bootstraps on the noisy
    graph's largest component.  Returns the observed graph, the (N, 4)
    initial rows and the root.
    """
    _, cleaned, boot = pipeline.prepare(g, clean_store)
    # new id i is old id cleaned.node_ids[i] in both graphs
    return viewgraph.induced_subgraph(g, cleaned.node_ids), np.asarray(boot.orientations), boot.root


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
                lambda weights, sample: refinement.refine_loss_graph(*sample, weights),
                train_graphs, val_graphs, cfg, lambda g: prepare_refinement_sample(g, clean_store))
