"""Runs that never move: ``adapt`` evaluates a policy with no gradient
layers in chunks of steps on the run axis. Its records equal a per-step
loop written here, and the moving runs of a mixed pass are unchanged."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gala import (
    Batch,
    LayerSpec,
    LossKind,
    ModelParameters,
    Network,
    NumericsError,
    OptimizerConfig,
    SelectorKind,
    adapt_step,
    baseline_policy,
    build_grouping,
)
from gala.runner import FROZEN_CHUNK_ROWS, adapt
from helpers import diverging_relu_net
from test_lockstep import mixed_net, mixed_policy_makers, stream_of


def sized_stream(sizes, seed=73, dim=3, classes=3):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(adapt_batches=[
        Batch(rng.normal(size=(n, dim)) * 1.5, rng.integers(0, classes, n)) for n in sizes])


def erm(net):
    return baseline_policy(SelectorKind("erm"), build_grouping(
        net.layer_names, [s.param_count for s in net.specs], "single_layer"))


def reference_erm(net, params, stream, loss):
    """The pretrained model, one batch at a time: a forward pass for the
    hits and the one-model loss pass for the loss."""
    hits, losses = [], []
    for batch in stream.adapt_batches:
        inputs = Batch(batch.inputs)
        hits.append(net.forward(params, inputs).argmax(axis=1) == batch.labels)
        losses.append(net.loss_and_gradients(params, inputs, loss, layers=frozenset())[0])
    return hits, losses


def assert_erm_record(record, net, params, stream, loss):
    hits, losses = reference_erm(net, params, stream, loss)
    assert [c.tobytes() for c in record.correct] == [h.tobytes() for h in hits]
    assert [c.shape for c in record.correct] == [h.shape for h in hits]
    assert record.losses == losses
    for d in record.decisions:
        assert not d.mask.any() and d.skipped and not d.first_sample
        assert (d.warmup, d.reset) == (1.0, False)
    for got, want in zip(record.final_params.layers, params.layers):
        assert got.tobytes() == want.tobytes() and not np.shares_memory(got, want)


STREAMS = {
    # batch 1: the normalization layer uses its frozen statistics
    "b1": [1] * 12,
    # batch 5 with batch statistics; each segment of 23 ends in a short batch
    "b5_short": [5, 5, 5, 5, 3] * 2,
    # more rows than one chunk holds, and a chunk boundary inside a segment
    "b5_long": ([5] * 60 + [2]) * 2,
    "b1_long": [1] * (FROZEN_CHUNK_ROWS + 40),
}


@pytest.mark.parametrize("sizes", STREAMS.values(), ids=STREAMS.keys())
@pytest.mark.parametrize("variant", ["pseudo_label", "shot_im"])
def test_frozen_run_equals_per_step_loop(sizes, variant):
    """An erm record holds the bytes of a per-step loop: hits, losses,
    decisions, warm-ups, resets, and the pretrained parameters as a copy."""
    net, params = mixed_net()
    stream = sized_stream(sizes)
    loss = LossKind(variant)
    (record,) = adapt(net, params, stream, loss, OptimizerConfig(0.5), [erm(net)])
    assert_erm_record(record, net, params, stream, loss)


@pytest.mark.parametrize("sizes", STREAMS.values(), ids=STREAMS.keys())
def test_frozen_run_takes_one_loss_pass_per_chunk(monkeypatch, sizes):
    """A frozen run's stream goes through one loss pass per chunk of
    consecutive same-size batches, at most FROZEN_CHUNK_ROWS rows each,
    with no backward and no forward pass."""
    shapes, forwards = [], []
    loss_and_gradients, forward = Network.loss_and_gradients, Network.forward

    def counted(self, params, batch, loss, update_norm_stats=False, layers=None):
        shapes.append(batch.inputs.shape[:-1])
        assert all(not w for w in layers)
        return loss_and_gradients(self, params, batch, loss, update_norm_stats, layers)

    monkeypatch.setattr(Network, "loss_and_gradients", counted)
    monkeypatch.setattr(Network, "forward", lambda *a, **k: forwards.append(1) or forward(*a, **k))
    net, params = mixed_net()
    adapt(net, params, sized_stream(sizes), LossKind("pseudo_label"), OptimizerConfig(0.5),
          [erm(net)])
    expected = []  # (steps, batch size), greedily
    for n in sizes:
        if expected and expected[-1][1] == n and (expected[-1][0] + 1) * n <= FROZEN_CHUNK_ROWS:
            expected[-1] = (expected[-1][0] + 1, n)
        else:
            expected.append((1, n))
    assert shapes == expected and not forwards


@pytest.mark.parametrize("batch_size", [1, 5])
def test_erm_in_a_mixed_pass(batch_size):
    """Among the 8 mixed policies, the erm run equals the per-step loop and
    every moving run equals its own adapt_step loop, byte for byte."""
    net, params = mixed_net()
    stream = stream_of(batch_size, steps=30)
    loss, opt = LossKind("shot_im"), OptimizerConfig(0.4)
    makers = mixed_policy_makers(net, params)
    records = adapt(net, params, stream, loss, opt, [make() for make in makers])
    frozen = [r for r, make in enumerate(makers) if not make().grad_layers]
    assert frozen == [2]
    assert_erm_record(records[2], net, params, stream, loss)
    for r, make in enumerate(makers):
        if r in frozen:
            continue
        policy = make()
        single = ModelParameters([v[None].copy() for v in params.layers], params.layer_names)
        hits, losses = [], []
        for batch in stream.adapt_batches:
            res = adapt_step(net, single, Batch(batch.inputs), loss, opt, [policy])
            hits.append(res.probs[0].argmax(axis=1) == batch.labels)
            losses.append(res.losses[0])
        assert [c.tobytes() for c in records[r].correct] == [h.tobytes() for h in hits], r
        assert records[r].losses == losses, r
        for a, b in zip(records[r].final_params.layers, single.layers):
            assert a.tobytes() == b[0].tobytes(), r


def test_frozen_policy_with_a_nonzero_scale_raises():
    net, params = mixed_net()

    class Moves:
        grouping = erm(net).grouping
        grad_layers = frozenset()

        def select(self, grads, params, lr):
            return np.ones(self.grouping.num_groups), None

    with pytest.raises(ValueError, match="run 1 has no gradient layers"):
        adapt(net, params, stream_of(1), LossKind("pseudo_label"), OptimizerConfig(0.5),
              [erm(net), Moves()])


def overflowing_relu_net():
    """The diverging relu net with every weight scaled by 1e120: its
    activations overflow on the pretrained parameters alone."""
    net, params = diverging_relu_net()
    for v in params.layers:
        v *= 1e120
    return net, params


def test_diverging_erm_run_names_its_policy_index():
    """A non-finite frozen run raises a NumericsError naming its index among
    the policies; a diverging moving run is named by its index too."""
    net, params = overflowing_relu_net()
    stream = sized_stream([4] * 6, dim=2)
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(0.1)
    all_layers = lambda: baseline_policy(SelectorKind("all_layers"), erm(net).grouping)
    with pytest.raises(NumericsError, match="non-finite activation") as info:
        adapt(net, params, stream, loss, opt, [all_layers(), erm(net)])
    assert info.value.runs == [1]
    net, params = diverging_relu_net()
    with pytest.raises(NumericsError, match="layer 1") as info:
        adapt(net, params, stream, loss, OptimizerConfig(1e305), [erm(net), all_layers()])
    assert info.value.runs == [1]


def test_frozen_run_memory_does_not_grow_with_the_stream():
    """The transient memory of an erm pass (its traced peak above what the
    records keep) is that of one chunk, however long the stream."""
    net = Network([LayerSpec("dense", 3, 64, "tanh"), LayerSpec("dense", 64, 64, "tanh"),
                   LayerSpec("dense", 64, 3)])
    params = net.init_params(5)
    loss, opt = LossKind("shot_im"), OptimizerConfig(0.5)
    steps_per_chunk = FROZEN_CHUNK_ROWS // 8

    def transient(chunks):
        stream = sized_stream([8] * (steps_per_chunk * chunks))
        tracemalloc.start()
        try:
            records = adapt(net, params, stream, loss, opt, [erm(net)])
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert records[0].num_steps == steps_per_chunk * chunks
        return peak - kept

    one_chunk_rows = FROZEN_CHUNK_ROWS * 64 * 8  # one activation of one chunk, in bytes
    short, long = transient(2), transient(16)
    assert short > one_chunk_rows
    assert long < short + one_chunk_rows / 4
