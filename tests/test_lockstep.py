"""Runs in lockstep: R runs on a run axis equal R runs alone, and the
oracle sweep equals an independent per-trial loop written here in plain
2-D numpy."""

from types import SimpleNamespace

import numpy as np
import pytest

import gala.nn
from gala import (
    Batch,
    GalaConfig,
    GalaPolicy,
    LayerSpec,
    LossKind,
    ModelParameters,
    Network,
    OptimizerConfig,
    SelectorKind,
    adapt_step,
    baseline_policy,
    build_grouping,
    oracle_sweep,
    tta_accuracy,
)
from gala.runner import _lockstep, adapt, run_selector
from helpers import _min_relu_margin, finite_difference_grads, gradient_relative_error

NORM_EPS = 1e-5
LOG_FLOOR = 1e-300
SHOT_PL_WEIGHT = 0.3


def mixed_net():
    """Dense layers and a normalization with a relu, with non-default norm
    affines and frozen statistics (used by single-sample batches)."""
    rng = np.random.default_rng(71)
    net = Network([LayerSpec("dense", 3, 6, "tanh"), LayerSpec("normalization", 6, 6, "relu"),
                   LayerSpec("dense", 6, 4, "tanh"), LayerSpec("dense", 4, 3)])
    params = net.init_params(8)
    params.layers[1] += rng.normal(scale=0.3, size=12)
    net.norm_stats[1] = (rng.normal(size=6), rng.uniform(0.5, 2.0, size=6))
    return net, params


def stream_of(batch_size, steps=12, seed=72):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(adapt_batches=[
        Batch(rng.normal(size=(batch_size, 3)) * 1.5, rng.integers(0, 3, batch_size))
        for _ in range(steps)])


def oracle_policies(grouping):
    return [baseline_policy(SelectorKind("oracle_best", fixed_group=name), grouping)
            for name in grouping.names]


# --- the reference: one trial at a time, plain 2-D numpy -------------------

def ref_act(name, z):
    return np.tanh(z) if name == "tanh" else np.maximum(z, 0.0) if name == "relu" else z


def ref_act_grad(name, z, a):
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0


def ref_forward(net, layers, x):
    """Logits and one cache per layer: the layer's affine output z, its
    activation a, and what its kind's backward needs."""
    caches = []
    for i, (spec, vec) in enumerate(zip(net.specs, layers)):
        if spec.kind == "dense":
            m = spec.output_dim * spec.input_dim
            w = vec[:m].reshape(spec.output_dim, spec.input_dim)
            z = x @ w.T + vec[m:]
            cache = (x, w)
        else:
            gamma, beta = vec[: spec.output_dim], vec[spec.output_dim:]
            if len(x) >= 2:
                inv = 1.0 / np.sqrt(x.var(axis=0) + NORM_EPS)
                xhat = (x - x.mean(axis=0)) * inv
            else:
                mean, var = net.norm_stats[i]
                inv = 1.0 / np.sqrt(var + NORM_EPS)
                xhat = (x - mean) * inv
            z = gamma * xhat + beta
            cache = (xhat, inv, gamma)
        x = ref_act(spec.activation, z)
        caches.append((z, x, cache))
    return x, caches


def ref_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ref_dlogits(p, variant):
    n = len(p)
    onehot = np.zeros(p.shape)
    onehot[np.arange(n), p.argmax(axis=1)] = 1.0
    if variant == "pseudo_label":
        return (p - onehot) / n
    logp = np.log(np.maximum(p, LOG_FLOOR))
    ent = -(p * logp).sum(axis=1)
    logpbar = np.log(np.maximum(p.mean(axis=0), LOG_FLOOR))
    d_ent = -p * (logp + ent[:, None]) / n
    d_div = p * (logpbar[None, :] - (p * logpbar[None, :]).sum(axis=1, keepdims=True)) / n
    return d_ent + d_div + SHOT_PL_WEIGHT * (p - onehot) / n


def ref_backward(net, caches, dx):
    """Every layer's parameter gradient, by a full backward pass."""
    grads = [None] * len(caches)
    for i in reversed(range(len(caches))):
        spec = net.specs[i]
        z, a, cache = caches[i]
        dx = dx * ref_act_grad(spec.activation, z, a)
        if spec.kind == "dense":
            x, w = cache
            grads[i] = np.concatenate([(dx.T @ x).ravel(), dx.sum(axis=0)])
            dx = dx @ w
        else:
            xhat, inv, gamma = cache
            grads[i] = np.concatenate([(dx * xhat).sum(axis=0), dx.sum(axis=0)])
            if len(xhat) >= 2:
                nb = len(xhat)
                dxhat = dx * gamma
                dx = inv / nb * (nb * dxhat - dxhat.sum(axis=0)
                                 - xhat * (dxhat * xhat).sum(axis=0))
            else:
                dx = dx * gamma * inv
    return grads


def reference_trial(net, params, stream, variant, lr, members):
    """SGD on the layers in ``members`` only, one batch at a time; returns
    the post-update correctness of every batch and the final layers."""
    layers = [v.copy() for v in params.layers]
    correct = []
    for batch in stream.adapt_batches:
        logits, caches = ref_forward(net, layers, batch.inputs)
        grads = ref_backward(net, caches, ref_dlogits(ref_softmax(logits), variant))
        for i in members:
            layers[i] = layers[i] + (-lr * grads[i])
        logits, _ = ref_forward(net, layers, batch.inputs)
        correct.append(ref_softmax(logits).argmax(axis=1) == batch.labels)
    return correct, layers


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("batch_size", [1, 5])
def test_normalization_applies_its_activation(activation, batch_size):
    """A normalization layer's activation acts on its output: the loss
    pass's probabilities and gradients equal the plain 2-D reference's
    bytes, and the gradients match central finite differences; batch 1
    uses frozen statistics and batch 5 batch statistics."""
    rng = np.random.default_rng(73)
    net = Network([LayerSpec("dense", 3, 6, "tanh"),
                   LayerSpec("normalization", 6, 6, activation), LayerSpec("dense", 6, 3)])
    params = net.init_params(9)
    params.layers[1] += rng.normal(scale=0.3, size=12)
    net.norm_stats[1] = (rng.normal(size=6), rng.uniform(0.5, 2.0, size=6))
    batch = Batch(rng.normal(size=(batch_size, 3)) * 1.5)
    loss = LossKind("shot_im", SHOT_PL_WEIGHT)
    _, grads, probs, _ = net.loss_and_gradients(params, batch, loss)
    logits, caches = ref_forward(net, params.layers, batch.inputs)
    p = ref_softmax(logits)
    assert probs.tobytes() == p.tobytes()
    for got, want in zip(grads, ref_backward(net, caches, ref_dlogits(p, "shot_im"))):
        assert got.tobytes() == want.tobytes()
    z, a, _ = caches[1]
    assert not np.array_equal(z, a)  # the activation changed the layer's output
    assert _min_relu_margin(net, params, batch) > 1e-3
    assert gradient_relative_error(grads, finite_difference_grads(net, params, batch, loss)) < 1e-6


@pytest.mark.parametrize("granularity", ["single_layer", "block"])
@pytest.mark.parametrize("variant", ["pseudo_label", "shot_im"])
@pytest.mark.parametrize("batch_size", [1, 5])
def test_sweep_equals_independent_per_trial_loop(granularity, variant, batch_size):
    """Each trial of the lockstep sweep has the online accuracy and the
    final parameter bytes of SGD on its group alone, computed by a plain
    2-D loop; block granularity has multi-layer groups, batch 1 frozen
    normalization statistics and batch 5 batch statistics."""
    net, params = mixed_net()
    stream = stream_of(batch_size)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              granularity, num_blocks=2)
    loss, opt = LossKind(variant, SHOT_PL_WEIGHT), OptimizerConfig(0.5)
    sweep = oracle_sweep(net, params, stream, loss, opt, grouping)
    records = adapt(net, params, stream, loss, opt, oracle_policies(grouping))
    for k, members in enumerate(grouping.members):
        correct, layers = reference_trial(net, params, stream, variant, opt.learning_rate,
                                          members)
        expected = float(np.concatenate(correct).mean() * 100.0)
        assert sweep.accuracies[k] == tta_accuracy(records[k]) == expected, k
        for got, want in zip(records[k].final_params.layers, layers):
            assert got.tobytes() == want.tobytes(), k


def mixed_policy_makers(net, params):
    """One maker per run, in an order not sorted by lowest gradient layer:
    the run axis then also carries runs a later one pulls down."""
    sizes = [s.param_count for s in net.specs]
    single = build_grouping(net.layer_names, sizes, "single_layer")
    block = build_grouping(net.layer_names, sizes, "block", num_blocks=2)
    return [
        lambda: baseline_policy(SelectorKind("oracle_best", fixed_group=single.names[-1]),
                                single),
        lambda: GalaPolicy(GalaConfig(), single),
        lambda: baseline_policy(SelectorKind("erm"), single),
        lambda: GalaPolicy(GalaConfig(granularity="block", num_blocks=2, window_size=5), block),
        lambda: baseline_policy(SelectorKind("all_layers"), single),
        lambda: baseline_policy(SelectorKind("random_block", rng_seed=3), single),
        lambda: baseline_policy(SelectorKind("auto_rgn"), single),
        lambda: baseline_policy(SelectorKind("oracle_best", fixed_group=single.names[1]),
                                single),
    ]


@pytest.mark.parametrize("batch_size", [1, 5])
def test_lockstep_runs_equal_single_runs(batch_size):
    """adapt_step with R mixed policies gives, run by run and step by step,
    the bytes of R separate one-run steps: probabilities, loss, cosines,
    mask, flags, warm-up, reset and parameters; adapt's
    records match those of R separate adapt calls."""
    net, params = mixed_net()
    stream = stream_of(batch_size, steps=30)
    loss, opt = LossKind("shot_im"), OptimizerConfig(0.4)
    makers = mixed_policy_makers(net, params)
    runs = len(makers)
    lockstep = [make() for make in makers]
    alone = [make() for make in makers]
    stacked = ModelParameters([np.repeat(v[None], runs, axis=0) for v in params.layers],
                              params.layer_names)
    singles = [ModelParameters([v[None].copy() for v in params.layers], params.layer_names)
               for _ in makers]
    for batch in stream.adapt_batches:
        batch = Batch(batch.inputs)
        res = adapt_step(net, stacked, batch, loss, opt, lockstep)
        for r in range(runs):
            one = adapt_step(net, singles[r], batch, loss, opt, [alone[r]])
            assert res.probs[r].tobytes() == one.probs[0].tobytes(), r
            assert res.losses[r] == one.losses[0], r
            got, want = res.decisions[r], one.decisions[0]
            assert got.cosines.tobytes() == want.cosines.tobytes(), r
            assert got.mask.tobytes() == want.mask.tobytes(), r
            assert ((got.first_sample, got.warmup, got.reset)
                    == (want.first_sample, want.warmup, want.reset)), r
            for a, b in zip(stacked.run(r).layers, singles[r].layers):
                assert a.tobytes() == b.tobytes(), r
    records = adapt(net, params, stream, loss, opt, [make() for make in makers])
    for make, record in zip(makers, records):
        (single,) = adapt(net, params, stream, loss, opt, [make()])
        assert [c.tobytes() for c in record.correct] == [c.tobytes() for c in single.correct]
        assert record.losses == single.losses
        assert [d.reset for d in record.decisions] == [d.reset for d in single.decisions]
        for a, b in zip(record.final_params.layers, single.final_params.layers):
            assert a.tobytes() == b.tobytes()


def test_sweep_does_no_more_layer_work_than_separate_trials(monkeypatch):
    """Per layer, a lockstep pass runs the forward and the backward for
    exactly as many (run, sample) rows as its runs do one at a time, in
    any policy order: a run's backward stops at the lowest layer it reads
    and its post-update forward restarts at the lowest layer it moved.
    Checked for the oracle sweep, for the mixed policies in their unsorted
    order, and for gala beside the sweep's trials in run_selector's one
    pass."""
    rows = {"forward": 0, "backward": 0}
    layer_forward, act_grad = Network._layer_forward, gala.nn._act_grad

    def counted_forward(self, i, x, vec, update_stats):
        rows["forward"] += x.shape[0] * x.shape[1]
        return layer_forward(self, i, x, vec, update_stats)

    def counted_act_grad(name, a):
        rows["backward"] += a.shape[0] * a.shape[1]
        return act_grad(name, a)

    def work(run):
        rows.update(forward=0, backward=0)
        run()
        return dict(rows)

    monkeypatch.setattr(Network, "_layer_forward", counted_forward)
    monkeypatch.setattr(gala.nn, "_act_grad", counted_act_grad)
    net, params = mixed_net()
    stream = stream_of(5, steps=12)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(0.5)
    trials = [lambda p=p: p for p in oracle_policies(grouping)]  # stateless
    cases = [
        (lambda: adapt(net, params, stream, loss, opt, oracle_policies(grouping)), trials),
        (lambda: adapt(net, params, stream, loss, opt,
                       [make() for make in mixed_policy_makers(net, params)]),
         mixed_policy_makers(net, params)),
        (lambda: run_selector(net, params, stream, loss, opt, GalaConfig(), 0, grouping),
         [lambda: GalaPolicy(GalaConfig(), grouping)] + trials),
    ]
    for lockstep, makers in cases:
        together = work(lockstep)
        alone = [work(lambda: adapt(net, params, stream, loss, opt, [make()]))
                 for make in makers]
        assert together == {key: sum(w[key] for w in alone) for key in rows}
        assert together["backward"] > 0


@pytest.mark.parametrize("batch_size", [1, 5])
def test_public_step_equals_the_pass_step(batch_size):
    """adapt_step, which checks everything it is given, and the pass that
    checks once and then steps through the same body give the same bytes
    step by step: R mixed policies in their unsorted order, compared on
    hits, losses, cosines, masks, flags and final parameters."""
    net, params = mixed_net()
    stream = stream_of(batch_size, steps=30)
    loss, opt = LossKind("shot_im"), OptimizerConfig(0.4)
    makers = mixed_policy_makers(net, params)
    policies = [make() for make in makers]
    stacked = ModelParameters([np.repeat(v[None], len(makers), axis=0) for v in params.layers],
                              params.layer_names)
    steps = []
    for batch in stream.adapt_batches:
        res = adapt_step(net, stacked, Batch(batch.inputs), loss, opt, policies)
        steps.append((res.probs.argmax(axis=2) == batch.labels, res.decisions, res.losses))
    records = _lockstep(net, params, stream, loss, opt, [make() for make in makers])
    for r, record in enumerate(records):
        assert [c.tobytes() for c in record.correct] == [s[0][r].tobytes() for s in steps], r
        assert record.losses == [s[2][r] for s in steps], r
        for got, (_, decisions, _) in zip(record.decisions, steps):
            want = decisions[r]
            assert got.cosines.tobytes() == want.cosines.tobytes(), r
            assert got.mask.tobytes() == want.mask.tobytes(), r
            assert ((got.first_sample, got.warmup, got.reset)
                    == (want.first_sample, want.warmup, want.reset)), r
        for a, b in zip(record.final_params.layers, stacked.run(r).layers):
            assert a.tobytes() == b.tobytes(), r


def bad_stream(shape):
    rng = np.random.default_rng(74)
    return SimpleNamespace(adapt_batches=[
        Batch(rng.normal(size=shape), rng.integers(0, 3, shape[:-1])) for _ in range(3)])


@pytest.mark.parametrize("case, error, message", [
    ("params", gala.ConfigurationError, "layer 2 expects 28 parameters, got shape ({}, 27)"),
    ("loss", ValueError, "cross_entropy requires labels"),
    ("width", gala.ConfigurationError,
     "batch input_dim 4 does not match layer 0 input_dim 3"),
    ("runs", gala.ConfigurationError, "2 batches for {} runs"),
])
def test_pass_refuses_bad_input_before_any_step(case, error, message):
    """A pass that checks once raises the error each step used to raise,
    with its message, before any policy steps: parameters of the wrong
    shape, a supervised loss (a pass strips the labels), a stream batch of
    the wrong width and per-run stream batches for another number of runs,
    through adapt (5 runs) and through run_gala (1)."""
    net, params = mixed_net()
    stream, loss = stream_of(2), LossKind("pseudo_label")
    if case == "params":
        params.layers[2] = params.layers[2][:-1]
    elif case == "loss":
        loss = LossKind("cross_entropy")
    else:
        stream = bad_stream((2, 4) if case == "width" else (2, 2, 3))
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    policies = [GalaPolicy(GalaConfig(), grouping), *oracle_policies(grouping)]
    with pytest.raises(error) as raised:
        adapt(net, params, stream, loss, OptimizerConfig(0.5), policies)
    assert str(raised.value) == message.format(len(policies))
    assert policies[0].steps == 0
    with pytest.raises(error) as raised:
        gala.run_gala(net, params, stream, loss, OptimizerConfig(0.5), GalaConfig())
    assert str(raised.value) == message.format(1)
