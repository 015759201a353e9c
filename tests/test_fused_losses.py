"""Each network's training step is one tape operation, the message passing
and the loss; the former compositions of generic primitives on
``mpnn_oracle.OracleTape``, after the message passing recorded as its own
operation (``mpnn_oracle.taped_forward``), are its oracle: for CleanNet
``OracleTape.clean_loss`` of the heads' outputs, for FineNet
``OracleTape.linear`` (the head) followed by ``OracleTape.refine_loss``.

The fused operations keep the oracle's arithmetic order, so the loss and
every weight gradient must match it bit for bit, not to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpnn_oracle import OracleTape, taped_forward
from rotavg import autodiff, cleaning, refinement, synthgen, trainer, viewgraph
from rotavg.autodiff import AutodiffError, ParamStore, Tape
from rotavg.mpnn import MpnnConfig
from rotavg.viewgraph import ViewGraph

CFG = MpnnConfig(rounds=2, hidden_dim=5, msg_dim=4)
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
HALF_TURN = np.array([0.0, 1.0, 0.0, 0.0])  # orthogonal to the identity: |a - b| = |a + b|


def random_store(spec, seed):
    """Every weight and bias drawn at random, so that the relus see both signs."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in spec.items():
        store.add(name, rng.normal(0.0, 0.5, size=shape))
    return store


def fused_clean(tape, g, weights):
    return cleaning.clean_loss_graph(tape, g, weights)


def oracle_clean(tape, g, weights):
    heads = [(weights[f"{head}.w"], weights[f"{head}.b"]) for head in ("head_rect", "head_out")]
    return tape.clean_loss(*taped_forward(tape, weights, g, g.edge_quat_array(), heads=heads), g)


def fused_refine(tape, sample, weights):
    return refinement.refine_loss_graph(tape, *sample, weights)


def oracle_refine(tape, sample, weights):
    g, init_rows, root = sample
    h = taped_forward(tape, weights, g, viewgraph.discrepancy(g, init_rows), init_rows)
    delta_raw = tape.linear(h, weights["head_refine.w"], weights["head_refine.b"])
    return tape.refine_loss(delta_raw, init_rows, g, root)


def recorded(tape, store, sample, loss_of):
    """The loss and every weight's gradient after one backward pass."""
    weights = store.bind(tape)
    loss = loss_of(tape, sample, weights)
    tape.backward(loss)
    return loss.values, {name: t.grad for name, t in weights.items()}


def assert_bit_equal(store, sample, fused, oracle):
    """The fused loss on the package's tape and the oracle composition on
    ``OracleTape``: equal loss and gradients, bit for bit.  Returns the gradients."""
    loss, grads = recorded(Tape(), store, sample, fused)
    want_loss, want_grads = recorded(OracleTape(), store, sample, oracle)
    assert loss.tobytes() == want_loss.tobytes()
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert grads[name].shape == want.shape and grads[name].tobytes() == want.tobytes(), name
    return grads


@st.composite
def small_graphs(draw):
    """A noisy graph of 3 to 12 cameras with outliers, and a seed for the weights."""
    n = draw(st.integers(3, 12))
    cfg = synthgen.SynthConfig(n_cameras=(n, n), edge_fraction=(0.2, 0.9),
                               sigma_deg=(0.0, 20.0), outlier_fraction=(0.0, 0.3))
    seed = draw(st.integers(0, 2**32 - 1))
    return synthgen.generate_graph(cfg, np.random.default_rng(seed)), seed


class TestMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_cleannet_loss(self, case):
        g, seed = case
        assert_bit_equal(random_store(cleaning.weight_spec(CFG), seed), g,
                         fused_clean, oracle_clean)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_finenet_loss(self, case):
        g, seed = case
        # the trainer's sample: bootstrap, ground truth re-referenced at its root
        sample = trainer.prepare_refinement_sample(g, cleaning.new_weights())
        assert_bit_equal(random_store(refinement.weight_spec(CFG), seed), sample,
                         fused_refine, oracle_refine)


def identity_head(spec, name, bias=IDENTITY):
    """Random weights whose head ``name`` has zero weights and bias ``bias``:
    with the identity, every correction is the identity, exactly."""
    store = random_store(spec, 3)
    store.params[f"{name}.w"][:] = 0.0
    store.params[f"{name}.b"][:] = bias
    return store


def two_node_graph(q):
    """One edge measured as ``q``, ground truth at the identity."""
    return ViewGraph(2, [0], [1], [q], gt=np.tile(IDENTITY, (2, 1)))


class TestEdgeCases:
    def test_tie_takes_the_plus_branch(self):
        # the corrected measurement is the half turn and its ground truth the
        # identity; the plus branch pulls the correction's x towards -1/sqrt(2),
        # the minus branch would pull it towards +1/sqrt(2)
        store = identity_head(cleaning.weight_spec(CFG), "head_rect")
        grads = assert_bit_equal(store, two_node_graph(HALF_TURN), fused_clean, oracle_clean)
        np.testing.assert_allclose(grads["head_rect.b"], [0.0, -np.sqrt(0.5), 0.0, 0.0],
                                   rtol=0, atol=1e-15)

    def test_zero_distance_row_gets_a_zero_direction(self):
        store = identity_head(cleaning.weight_spec(CFG), "head_rect")
        grads = assert_bit_equal(store, two_node_graph(IDENTITY), fused_clean, oracle_clean)
        assert not np.any(grads["head_rect.b"])

    def test_finenet_tie_and_zero_distance(self):
        # the prediction is the init: node 0 sits on its ground truth, node 1
        # and the edge's relative orientation tie
        g = two_node_graph(IDENTITY)
        sample = (g, np.stack([IDENTITY, HALF_TURN]), 0)
        store = identity_head(refinement.weight_spec(CFG), "head_refine")
        grads = assert_bit_equal(store, sample, fused_refine, oracle_refine)
        assert all(np.all(np.isfinite(grad)) for grad in grads.values())

    @pytest.mark.parametrize("tape_cls, clean_loss, refine_loss",
                             [(Tape, fused_clean, fused_refine),
                              (OracleTape, oracle_clean, oracle_refine)], ids=["fused", "oracle"])
    def test_underflowing_correction_raises(self, tape_cls, clean_loss, refine_loss):
        # zero head weights and a zero bias: every correction row is zero
        g = two_node_graph(HALF_TURN)
        clean = identity_head(cleaning.weight_spec(CFG), "head_rect", bias=0.0)
        tape = tape_cls()
        with pytest.raises(AutodiffError, match="norm below 1e-12"):
            clean_loss(tape, g, clean.bind(tape))
        fine = identity_head(refinement.weight_spec(CFG), "head_refine", bias=0.0)
        tape = tape_cls()
        with pytest.raises(AutodiffError, match="norm below 1e-12"):
            refine_loss(tape, (g, np.stack([IDENTITY, HALF_TURN]), 0), fine.bind(tape))


def test_recording_steps_write_one_record_each():
    # the message passing and the network's loss, with one composed pullback
    g = synthgen.generate_graph(synthgen.SynthConfig(n_cameras=(12, 12)),
                                np.random.default_rng(0))
    tape = Tape()
    fused_clean(tape, g, cleaning.new_weights(0, CFG).bind(tape))
    assert len(tape._records) == 1
    tape = Tape()
    sample = trainer.prepare_refinement_sample(g, cleaning.new_weights())
    fused_refine(tape, sample, refinement.new_weights(0, CFG).bind(tape))
    assert len(tape._records) == 1


def test_inference_needs_no_tape(monkeypatch):
    # both forwards run on the parameter arrays: with no usable tape, the same bits
    g = synthgen.generate_graph(synthgen.SynthConfig(n_cameras=(12, 12)),
                                np.random.default_rng(0))
    clean = random_store(cleaning.weight_spec(CFG), 1)
    fine = random_store(refinement.weight_spec(CFG), 2)
    sub, init, root = trainer.prepare_refinement_sample(g, clean)

    def run():
        pred = cleaning.clean_forward(g, clean)
        return pred.rect, pred.logits, np.asarray(refinement.refine_forward(sub, init, fine, root))

    want = run()

    def unusable(*args, **kwargs):
        raise AssertionError("inference used a tape")

    monkeypatch.setattr(autodiff.Tape, "__init__", unusable)
    monkeypatch.setattr(autodiff.ParamStore, "bind", unusable)
    for got, expected in zip(run(), want):
        assert got.tobytes() == expected.tobytes()
