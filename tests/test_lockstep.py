"""Runs in lockstep: R runs on a run axis equal R runs alone, and the
oracle sweep equals an independent per-trial loop written here in plain
2-D numpy."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from helpers import (
    _min_relu_margin,
    counted_kernels,
    finite_difference_grads,
    gradient_relative_error,
)

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


def ref_loss(p, variant):
    """The loss value of probabilities p under hard pseudo-labels."""
    n = len(p)
    logp = np.log(np.maximum(p, LOG_FLOOR))
    nll = -logp[np.arange(n), p.argmax(axis=1)].mean()
    if variant == "pseudo_label":
        return nll
    pbar = p.mean(axis=0)
    ent_mean_pred = -(pbar * np.log(np.maximum(pbar, LOG_FLOOR))).sum()
    return -(p * logp).sum(axis=1).mean() - ent_mean_pred + SHOT_PL_WEIGHT * nll


def ref_dot(a, b, members):
    """The dot of two per-layer lists over a group's layers: per layer, in
    slices of at most 8192 entries, summed from the first term."""
    terms = [np.dot(a[i][s:s + 8192], b[i][s:s + 8192])
             for i in members for s in range(0, a[i].size, 8192)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def reference_gala(net, params, stream, variant, lr, cfg, members):
    """Gala, one step per batch, from the paper's rule: the proposal
    u = -lr * g from a full backward; the anchor a copy of the parameters,
    retaken every ``window_size`` steps; r = (live - anchor) + u; per group
    the cosine of u and r, nan below epsilon; every group on a window's
    first step, then the groups whose cosine clears the threshold (every
    one in multi_layer, else the highest, ties to the lowest group); the
    update scaled by the j / warmup_len ramp; hits from a full forward
    after it. A cfg of None is all_layers: every group, scale 1, every
    step. Returns hits, losses, cosines, masks and the final layers."""
    layers = [v.copy() for v in params.layers]
    hits, losses, cosines, masks = [], [], [], []
    anchor = None
    for step, batch in enumerate(stream.adapt_batches):
        window = math.inf if cfg is None else cfg.window_size
        j = step if window == math.inf else step % window
        if j == 0:
            anchor = [v.copy() for v in layers]
        logits, caches = ref_forward(net, layers, batch.inputs)
        p = ref_softmax(logits)
        losses.append(float(ref_loss(p, variant)))
        grads = ref_backward(net, caches, ref_dlogits(p, variant))
        u = [-lr * g for g in grads]
        r = [(v - a) + ui for v, a, ui in zip(layers, anchor, u)]
        cos = [math.nan] * len(members)
        passing, ramp = list(range(len(members))), 1.0
        if cfg is not None:
            for k, group in enumerate(members):
                nu = math.sqrt(ref_dot(u, u, group))
                nr = math.sqrt(ref_dot(r, r, group))
                if nu >= cfg.epsilon and nr >= cfg.epsilon:
                    cos[k] = float(np.clip(ref_dot(u, r, group) / (nu * nr), -1.0, 1.0))
            passing = [k for k, c in enumerate(cos) if j == 0 or c > cfg.threshold]
            if j and passing and cfg.granularity != "multi_layer":
                best = passing[0]
                for k in passing[1:]:
                    if cos[k] > cos[best]:
                        best = k
                passing = [best]
            if j + 1 <= cfg.warmup_len:
                ramp = (j + 1) / cfg.warmup_len
        mask = np.zeros(len(members), dtype=np.int64)
        mask[passing] = 1
        for k in passing:
            for i in members[k]:
                layers[i] = layers[i] + (mask[k] * ramp) * u[i]
        logits, _ = ref_forward(net, layers, batch.inputs)
        hits.append(ref_softmax(logits).argmax(axis=1) == batch.labels)
        cosines.append(np.array(cos))
        masks.append(mask)
    return hits, losses, cosines, masks, layers


@st.composite
def gala_cases(draw):
    """A small net of dense and normalization layers, a stream, a loss and
    a gala config drawn over every knob the criterion has."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dims = [3]
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["dense", "normalization"]))
        out = dims[-1] if kind == "normalization" else draw(st.integers(2, 5))
        specs.append(LayerSpec(kind, dims[-1], out,
                               draw(st.sampled_from(["relu", "tanh", "identity"]))))
        dims.append(out)
    classes = draw(st.integers(2, 4))
    specs.append(LayerSpec("dense", dims[-1], classes,
                           draw(st.sampled_from(["tanh", "identity"]))))
    net = Network(specs)
    params = net.init_params(int(rng.integers(100)))
    for i in net.norm_stats:
        params.layers[i] += rng.normal(scale=0.3, size=params.layers[i].size)
        d = specs[i].output_dim
        net.norm_stats[i] = (rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    batch_size = draw(st.sampled_from([1, 1, 2, 4]))
    stream = SimpleNamespace(adapt_batches=[
        Batch(rng.normal(size=(batch_size, 3)) * 1.5, rng.integers(0, classes, batch_size))
        for _ in range(draw(st.integers(1, 9)))])
    granularity = draw(st.sampled_from(["single_layer", "multi_layer", "block"]))
    cfg = GalaConfig(threshold=draw(st.sampled_from([-1.0, 0.0, 0.5, 0.9, 1.0])),
                     window_size=draw(st.sampled_from([1, 2, 3, 5, math.inf])),
                     granularity=granularity, warmup_len=draw(st.integers(0, 3)),
                     num_blocks=draw(st.integers(1, len(specs))))
    return net, params, stream, draw(st.sampled_from(["pseudo_label", "shot_im"])), cfg


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=gala_cases(), lr=st.sampled_from([0.05, 0.3, 0.8]))
def test_gala_and_all_layers_equal_the_reference_run(case, lr):
    """run_gala and run_baseline(all_layers) give the bytes of the paper's
    rule run one step at a time with full passes: hits, losses, cosines,
    masks and final parameters, over drawn nets, granularities, windows,
    thresholds, warm-ups, losses and batch sizes."""
    net, params, stream, variant, cfg = case
    loss, opt = LossKind(variant, SHOT_PL_WEIGHT), OptimizerConfig(lr)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              cfg.granularity, cfg.num_blocks)
    every = build_grouping(net.layer_names, [s.param_count for s in net.specs], "single_layer")
    runs = [(gala.run_gala(net, params, stream, loss, opt, cfg), cfg, grouping),
            (gala.run_baseline(net, params, stream, SelectorKind("all_layers"), loss, opt),
             None, every)]
    for record, rule, groups in runs:
        hits, losses, cosines, masks, layers = reference_gala(
            net, params, stream, variant, lr, rule, groups.members)
        assert [c.tobytes() for c in record.correct] == [h.tobytes() for h in hits]
        assert record.losses == losses
        assert [d.mask.tobytes() for d in record.decisions] == [m.tobytes() for m in masks]
        assert ([d.cosines.tobytes() for d in record.decisions]
                == [c.tobytes() for c in cosines])
        for got, want in zip(record.final_params.layers, layers):
            assert got.tobytes() == want.tobytes()


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
    layer_forward = Network._layer_forward

    def counted_forward(self, i, x, view, update_stats):
        rows["forward"] += x.size // x.shape[-1]  # (run, sample) rows, with a run axis or not
        return layer_forward(self, i, x, view, update_stats)

    def counted_backward(i, a):
        rows["backward"] += a.size // a.shape[-1]

    def work(run):
        rows.update(forward=0, backward=0)
        run()
        return dict(rows)

    net, params = mixed_net()
    monkeypatch.setattr(Network, "_layer_forward", counted_forward)
    monkeypatch.setattr(net, "_kernels", counted_kernels(net, counted_backward))
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
