from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

import mpnn_oracle
from rotavg import cleaning, mpnn, refinement, synthgen, trainer, viewgraph
from rotavg.autodiff import Tensor
from rotavg.trainer import TrainConfig, TrainingError
from rotavg.viewgraph import ViewGraph

EPOCHS = 2
# zero head weights and an identity bias: no correction, every edge at p = 0.5
UNTRAINED_CLEANER = cleaning.new_weights()


def corpus(seed: int, count: int) -> list:
    """Small noisy graphs with outliers; the desk schedule, shortened."""
    cfg = synthgen.SynthConfig(
        n_cameras=(16, 22), edge_fraction=(0.3, 0.4), sigma_deg=(2.0, 10.0),
        outlier_fraction=(0.1, 0.1), seed=seed,
    )
    rng = np.random.default_rng(seed)
    return [synthgen.generate_graph(cfg, rng) for _ in range(count)]


def desk_config(**fields) -> TrainConfig:
    """``TrainConfig`` at the benchmark's learning rate, unless ``fields`` set one."""
    return TrainConfig(**{"lr": trainer.DESK_LR, **fields})


@pytest.fixture(scope="module")
def data():
    return corpus(1, 3), corpus(2, 2)


@pytest.fixture(scope="module")
def clean_run(data):
    train, val = data
    return trainer.train_cleannet(train, val, desk_config(seed=3, epochs=EPOCHS))


def same_run(a, b) -> bool:
    (store_a, log_a), (store_b, log_b) = a, b
    return (
        store_a.params.keys() == store_b.params.keys()
        and all(np.array_equal(store_a.params[k], store_b.params[k]) for k in store_a.params)
        and [r[:3] for r in log_a.rows] == [r[:3] for r in log_b.rows]
        and (log_a.best_epoch, log_a.best_val_loss) == (log_b.best_epoch, log_b.best_val_loss)
    )


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("lr", -1.0), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf),
        ("weight_decay", -1.0), ("weight_decay", math.inf), ("weight_decay", math.nan),
    ])
    def test_bad_optimizer_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr", "0.1"), ("weight_decay", "x"), ("edge_dropout", None), ("lr", True),
        ("epochs", True),
    ])
    def test_non_numbers_are_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            TrainConfig(**{field: value})

    def test_zero_weight_decay_accepted(self):
        assert TrainConfig(weight_decay=0.0).weight_decay == 0.0

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", None, 0, -1])
    def test_epochs_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
            TrainConfig(epochs=value)
        assert TrainConfig(epochs=np.int64(2)).epochs == 2

    @pytest.mark.parametrize("value", [1.5, 1.0, "1", None, -1])
    def test_seed_must_be_a_non_negative_integer(self, value):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            TrainConfig(seed=value)
        assert TrainConfig(seed=np.int64(2)).seed == 2


class TestDeterminism:
    def test_cleannet_bit_identical_per_seed(self, data, clean_run):
        train, val = data
        again = trainer.train_cleannet(train, val, desk_config(seed=3, epochs=EPOCHS))
        assert same_run(clean_run, again)
        other = trainer.train_cleannet(train, val, desk_config(seed=4, epochs=EPOCHS))
        assert not same_run(clean_run, other)

    def test_finenet_bit_identical_per_seed(self, data, clean_run):
        train, val = data
        cfg = desk_config(seed=3, epochs=EPOCHS)
        first = trainer.train_finenet(train, val, cfg, clean_store=clean_run[0])
        again = trainer.train_finenet(train, val, cfg, clean_store=clean_run[0])
        assert same_run(first, again)


def clean_graph_loss(tape, weights, g):
    return cleaning.clean_loss_graph(tape, g, weights)


def fine_graph_loss(tape, weights, g):
    return refinement.refine_loss_graph(
        tape, *trainer.prepare_refinement_sample(g, UNTRAINED_CLEANER), weights)


class TestLazyCorpus:
    def test_runs_equal_runs_on_parsed_copies(self):
        # graphs generated on access train bit for bit like their text round-trips
        cfg = synthgen.SynthConfig(n_cameras=(8, 12), edge_fraction=(0.3, 0.4),
                                   sigma_deg=(2.0, 10.0), outlier_fraction=(0.1, 0.1), seed=4)
        lazy = synthgen.corpus(cfg, 10)[:2]
        parsed = [[viewgraph.parse(viewgraph.serialize(g)) for g in split] for split in lazy]
        train_cfg = desk_config(seed=3, epochs=EPOCHS)
        clean = trainer.train_cleannet(*lazy, train_cfg)
        assert same_run(clean, trainer.train_cleannet(*parsed, train_cfg))
        assert same_run(trainer.train_finenet(*lazy, train_cfg, clean[0]),
                        trainer.train_finenet(*parsed, train_cfg, clean[0]))

    @pytest.mark.parametrize("net", ["cleannet", "finenet"])
    def test_each_graph_is_generated_once_per_read(self, net, monkeypatch):
        # 2 epochs read each of the 8 training graphs twice and the validation
        # graph once; checking the graphs generates none of them again
        split = synthgen.corpus(synthgen.SynthConfig(n_cameras=(20, 30), seed=3), 10)
        assert (len(split.train), len(split.val)) == (8, 1)
        calls = []
        real_generate_graph = synthgen.generate_graph

        def counted(*args, **kwargs):
            calls.append(None)
            return real_generate_graph(*args, **kwargs)

        monkeypatch.setattr(synthgen, "generate_graph", counted)
        cfg = desk_config(seed=3, epochs=2)
        if net == "cleannet":
            trainer.train_cleannet(split.train, split.val, cfg)
        else:
            trainer.train_finenet(split.train, split.val, cfg, UNTRAINED_CLEANER)
        assert len(calls) == 2 * 8 + 1


class TestBestEpoch:
    @pytest.mark.parametrize("net", ["cleannet", "finenet"])
    def test_best_matches_minimum_row(self, data, net, monkeypatch):
        train, val = data
        # every validation but the one after epoch 1 reads 1000 higher, so the
        # best epoch is not the last one, whatever the shape of the curve
        real_val_loss = trainer._val_loss
        calls = []

        def val_loss(store, graph_loss, graphs):
            calls.append(None)
            return real_val_loss(store, graph_loss, graphs) + (0.0 if len(calls) == 2 else 1e3)

        monkeypatch.setattr(trainer, "_val_loss", val_loss)
        cfg = desk_config(seed=5, epochs=4, lr=5e-2)
        if net == "cleannet":
            store, log = trainer.train_cleannet(train, val, cfg)
            reevaluated = real_val_loss(store, clean_graph_loss, val)
        else:
            store, log = trainer.train_finenet(train, val, cfg, UNTRAINED_CLEANER)
            reevaluated = real_val_loss(store, fine_graph_loss, val)
        assert [r[0] for r in log.rows] == list(range(4))
        val_losses = [r[2] for r in log.rows]
        first_min = int(np.argmin(val_losses))  # ties keep the earliest epoch
        assert log.best_epoch == log.rows[first_min][0] < 3
        assert log.best_val_loss == min(val_losses)
        # the returned weights are the best epoch's, not the last epoch's
        assert reevaluated == log.best_val_loss


class TestOracleRounds:
    def test_train_logs_match_the_oracle_loop(self, data, clean_run, monkeypatch):
        # the message passing on arrays against the recording loop of
        # generic tape primitives; the two sum in different orders, so the
        # logs agree to rounding, not bit for bit
        train, val = data
        cfg = desk_config(seed=3, epochs=4)

        def logs():
            return [trainer.train_cleannet(train, val, cfg)[1],
                    trainer.train_finenet(train, val, cfg, clean_run[0])[1]]

        fused = logs()
        monkeypatch.setattr(mpnn, "forward", mpnn_oracle.array_forward)
        for log, want in zip(fused, logs()):
            assert log.best_epoch == want.best_epoch
            np.testing.assert_allclose([r[1:3] for r in log.rows], [r[1:3] for r in want.rows],
                                       rtol=1e-10, atol=0)


class TestNonFinite:
    def test_nan_cleannet_loss_raises(self, data, monkeypatch):
        loss_graph = cleaning.clean_loss_graph

        def nan_loss(tape, g, weights):
            return Tensor(loss_graph(tape, g, weights).values * math.nan)

        monkeypatch.setattr(cleaning, "clean_loss_graph", nan_loss)
        with pytest.raises(TrainingError, match="non-finite loss at epoch 0"):
            trainer.train_cleannet(*data, desk_config(epochs=1))

    def test_nan_finenet_loss_raises(self, data, monkeypatch):
        loss_graph = refinement.refine_loss_graph

        def nan_loss(tape, g, init_rows, root, weights):
            return Tensor(loss_graph(tape, g, init_rows, root, weights).values * math.nan)

        monkeypatch.setattr(refinement, "refine_loss_graph", nan_loss)
        with pytest.raises(TrainingError, match="non-finite loss at epoch 0"):
            trainer.train_finenet(*data, desk_config(epochs=1), UNTRAINED_CLEANER)

    @pytest.mark.parametrize("net", ["cleannet", "finenet"])
    def test_nan_validation_loss_raises(self, data, net, monkeypatch):
        # only the validation loss is NaN: skipped as "not better", it would
        # return the untrained weights with an infinite best loss
        monkeypatch.setattr(trainer, "_val_loss", lambda store, graph_loss, samples: math.nan)
        with pytest.raises(TrainingError, match="non-finite validation loss at epoch 0"):
            if net == "cleannet":
                trainer.train_cleannet(*data, desk_config(epochs=1))
            else:
                trainer.train_finenet(*data, desk_config(epochs=1), UNTRAINED_CLEANER)


def edgeless(g):
    return ViewGraph(g.n_nodes, [], [], np.zeros((0, 4)), gt=g.gt)


def without_gt(g):
    return ViewGraph(g.n_nodes, *g.endpoint_arrays(), g.edge_quat_array())


@pytest.mark.parametrize(
    "train_fn",
    [trainer.train_cleannet, functools.partial(trainer.train_finenet, clean_store=UNTRAINED_CLEANER)],
    ids=["cleannet", "finenet"])
class TestCorpusCheck:
    def test_edgeless_training_graph(self, data, train_fn):
        train, val = data
        with pytest.raises(TrainingError, match="training graph 1 has no edges"):
            train_fn([train[0], edgeless(train[1])], val, desk_config(epochs=1))

    def test_edgeless_validation_graph(self, data, train_fn):
        train, val = data
        with pytest.raises(TrainingError, match="validation graph 0 has no edges"):
            train_fn(train, [edgeless(val[0]), val[1]], desk_config(epochs=1))

    def test_missing_ground_truth_names_the_split(self, data, train_fn):
        train, val = data
        with pytest.raises(TrainingError, match="validation graph 1 lacks ground-truth"):
            train_fn(train, [val[0], without_gt(val[1])], desk_config(epochs=1))
        with pytest.raises(TrainingError, match="training graph 2 lacks ground-truth"):
            train_fn(train[:2] + [without_gt(train[2])], val, desk_config(epochs=1))


def assert_same_graph(got, want):
    assert got.n_nodes == want.n_nodes
    for a, b in zip((*got.endpoint_arrays(), got.edge_quat_array(), got.edge_labels(), got.gt),
                    (*want.endpoint_arrays(), want.edge_quat_array(), want.edge_labels(), want.gt)):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
        assert not a.flags.writeable and not b.flags.writeable


class TestDerivedGraphs:
    def test_equal_to_validated_rebuild(self, data, monkeypatch):
        monkeypatch.setattr(cleaning, "EPSILON_DEFAULT", 0.6)
        # graphs cut from a valid graph's rows skip validation: rebuilding one
        # through the validating constructor must change no bit, dtype or flag
        rng = np.random.default_rng(8)
        store = cleaning.new_weights(1)
        store.params["head_rect.w"] += rng.normal(scale=0.1, size=store.params["head_rect.w"].shape)
        for g in data[0] + data[1]:
            nodes = rng.choice(g.n_nodes, size=g.n_nodes // 2, replace=False).tolist()
            # random removal scores, so the cleaned graph may fall apart
            pred = dataclasses.replace(cleaning.clean_forward(g, store),
                                       outlier_prob=rng.uniform(size=len(g.edges)))
            derived = [
                viewgraph.induced_subgraph(g, nodes),
                viewgraph.largest_component(g)[0],
                cleaning.clean_graph(g, pred).graph,
                trainer._dropout_subgraph(g, 0.25, rng),
                trainer.prepare_refinement_sample(g, UNTRAINED_CLEANER)[0],
                trainer.prepare_refinement_sample(g, store)[0],
            ]
            for d in derived:
                assert_same_graph(d, ViewGraph(
                    d.n_nodes, *d.endpoint_arrays(), d.edge_quat_array(), d.edge_labels(), d.gt))


def uncleaned_sample(g):
    """The refinement sample with no cleaner: bootstrap on the noisy graph's
    largest component, observed graph and ground truth re-referenced at its root."""
    base, node_ids = viewgraph.largest_component(g)
    root = viewgraph.select_root(base)
    boot = viewgraph.bootstrap_orientations(base, viewgraph.shortest_path_tree(base, root))
    observed = viewgraph.induced_subgraph(g, node_ids)
    observed = ViewGraph(observed.n_nodes, *observed.endpoint_arrays(),
                         observed.edge_quat_array(), observed.edge_labels(),
                         viewgraph.rereference(observed.gt, root))
    return observed, np.asarray(boot.orientations), root


class TestUntrainedCleaner:
    def test_sample_equals_uncleaned_sample(self, data):
        # disconnected graphs too: the sample is cut to the largest component
        rng = np.random.default_rng(9)
        graphs = data[0] + data[1] + [trainer._dropout_subgraph(g, 0.8, rng) for g in data[0]]
        assert any(not viewgraph.is_connected(g) for g in graphs)
        for g in graphs:
            got, init, root = trainer.prepare_refinement_sample(g, UNTRAINED_CLEANER)
            want, want_init, want_root = uncleaned_sample(g)
            assert_same_graph(got, want)
            assert root == want_root
            assert init.dtype == want_init.dtype and init.tobytes() == want_init.tobytes()


class TestValidationSamples:
    def test_made_once_per_call(self, data, clean_run, monkeypatch):
        # each epoch cleans every dropout subgraph; each validation graph is
        # cleaned once, and the run is the one that re-made its sample every
        # epoch, bit for bit
        train, val = data
        cfg = desk_config(seed=3, epochs=3)
        clean_store = clean_run[0]

        def per_epoch_loss(tape, weights, g):
            return refinement.refine_loss_graph(
                tape, *trainer.prepare_refinement_sample(g, clean_store), weights)

        remade = trainer._fit(refinement.new_weights(cfg.seed), per_epoch_loss, train, val, cfg)
        calls = []
        real_clean_forward = cleaning.clean_forward

        def counted(*args, **kwargs):
            calls.append(None)
            return real_clean_forward(*args, **kwargs)

        monkeypatch.setattr(cleaning, "clean_forward", counted)
        run = trainer.train_finenet(train, val, cfg, clean_store)
        assert len(calls) == cfg.epochs * len(train) + len(val)
        assert same_run(run, remade)

