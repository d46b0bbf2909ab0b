import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gala import (
    Batch,
    ConfigurationError,
    LayerSpec,
    LossKind,
    ModelParameters,
    Network,
    NumericsError,
    OptimizerConfig,
    TrainingError,
    accuracy,
    generate_task,
    load_checkpoint,
    load_config,
    minibatches,
    pretrain_erm,
    save_checkpoint,
)
from gala.nn import _NORM_EPS, _NORM_MOMENTUM, LAYER_KINDS
from helpers import finite_difference_grads, gradient_relative_error, loss_pass, random_small_net

QUICKSTART = Path(__file__).resolve().parent.parent / "demos" / "configs" / "quickstart.json"


def dense_params(net, w, b):
    return ModelParameters([np.concatenate([np.asarray(w).ravel(), np.asarray(b)])],
                           list(net.layer_names))


def test_forward_zero_weights_uniform():
    net = Network([LayerSpec("dense", 4, 3)])
    params = dense_params(net, np.zeros((3, 4)), np.zeros(3))
    p = net.forward(params, Batch(np.random.default_rng(0).normal(size=(5, 4))))
    assert np.array_equal(p, np.full((5, 3), 1.0 / 3.0))


def test_forward_hand_built_two_class():
    """Hand-chosen weights against an independent matrix-arithmetic oracle."""
    w = np.array([[1.0, -0.5], [-1.0, 0.5]])
    b = np.array([0.2, -0.2])
    net = Network([LayerSpec("dense", 2, 2)])
    params = dense_params(net, w, b)
    x = np.array([[2.0, 0.5], [1.5, -1.0]])
    p = net.forward(params, Batch(x))
    logits = x @ w.T + b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.allclose(p, e / e.sum(axis=1, keepdims=True), atol=1e-15)
    assert np.all(p.argmax(axis=1) == 0)


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(3)
    net = Network([LayerSpec("dense", 6, 10, "tanh"), LayerSpec("dense", 10, 4)])
    p = net.forward(net.init_params(1), Batch(rng.normal(size=(3, 6))))
    assert p.shape == (3, 4)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(p >= 0)


def test_forward_dimension_mismatch():
    net = Network([LayerSpec("dense", 4, 3)])
    with pytest.raises(ConfigurationError):
        net.forward(net.init_params(0), Batch(np.zeros((2, 5))))


def test_forward_nonfinite_names_layer():
    net = Network([LayerSpec("dense", 2, 2, "identity"), LayerSpec("dense", 2, 2)])
    params = net.init_params(0)
    params.layers[1][0] = 1e308
    with pytest.raises(NumericsError, match="layer 1"):
        net.forward(params, Batch(np.full((1, 2), 1e3)))


def test_normalization_batch_statistics():
    net = Network([LayerSpec("normalization", 3, 3)])
    params = net.init_params(0)
    rng = np.random.default_rng(7)
    x = rng.normal(loc=5.0, scale=3.0, size=(64, 3))
    # gamma=1, beta=0 at init, so outputs are just standardized features.
    *_, (_, out_logits) = net.loss_and_gradients(params, Batch(x), LossKind("pseudo_label"))
    assert np.allclose(out_logits.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out_logits.var(axis=0), 1.0, atol=1e-3)


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("runs", [(), (3,)], ids=["no-run-axis", "run-axis"])
def test_normalization_variance_has_the_bytes_of_numpy_var(scale, runs):
    """The batch variance of a normalization layer has the bytes of
    x.var(axis=-2), with and without a run axis: seen through the inverse
    standard deviation and standardized input it caches and, for one
    model, the running variance it moves."""
    rng = np.random.default_rng(59)
    net = Network([LayerSpec("normalization", 6, 6)])
    x = rng.normal(loc=10.0 * scale, scale=scale, size=runs + (9, 6))
    view = rng.normal(size=runs + (1, 6)), rng.normal(size=runs + (1, 6))
    mu = x.mean(axis=-2, keepdims=True)
    var = x.var(axis=-2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _NORM_EPS)
    running = net.norm_stats[0][1]
    _, (src, got, _) = net._layer_forward(0, x, view, update_stats=not runs)
    assert got.tobytes() == inv_std.tobytes()
    assert src.tobytes() == ((x - mu) * inv_std).tobytes()
    if not runs:
        m = _NORM_MOMENTUM
        want = (1 - m) * running + m * var.reshape(-1)
        assert net.norm_stats[0][1].tobytes() == want.tobytes()


def test_normalization_single_sample_uses_frozen_stats():
    net = Network([LayerSpec("normalization", 2, 2)])
    params = ModelParameters([np.array([2.0, 0.5, 1.0, -1.0])], list(net.layer_names))
    net.norm_stats[0] = (np.array([1.0, -1.0]), np.array([4.0, 0.25]))
    x = np.array([[3.0, 0.0]])
    *_, (_, out) = net.loss_and_gradients(params, Batch(x), LossKind("pseudo_label"))
    expected = np.array([
        2.0 * (3.0 - 1.0) / math.sqrt(4.0 + 1e-5) + 1.0,
        0.5 * (0.0 + 1.0) / math.sqrt(0.25 + 1e-5) - 1.0,
    ])
    assert np.allclose(out[0], expected, atol=1e-12)


def test_cross_entropy_exact_onehot_prediction():
    # Logit margin of 800 saturates softmax to an exact one-hot in float64.
    net = Network([LayerSpec("dense", 1, 2)])
    params = dense_params(net, np.array([[400.0], [-400.0]]), np.zeros(2))
    batch = Batch(np.array([[1.0]]), np.array([0]))
    value, grads, _, _ = net.loss_and_gradients(params, batch, LossKind("cross_entropy"))
    assert value == 0.0
    assert all(np.all(g == 0.0) for g in grads)


def test_pseudo_label_equals_cross_entropy_on_argmax():
    rng = np.random.default_rng(11)
    net = Network([LayerSpec("dense", 5, 8, "tanh"), LayerSpec("dense", 8, 3)])
    params = net.init_params(2)
    x = rng.normal(size=(6, 5))
    v_pl, g_pl, _, _ = net.loss_and_gradients(params, Batch(x), LossKind("pseudo_label"))
    y_hat = net.predict(params, Batch(x))
    v_ce, g_ce, _, _ = net.loss_and_gradients(params, Batch(x, y_hat), LossKind("cross_entropy"))
    assert v_pl == v_ce
    for a, b in zip(g_pl, g_ce):
        assert np.array_equal(a, b)


def test_pseudo_label_logit_shift_invariance():
    # Identity-logit net: per-sample constants added to the inputs shift
    # all logits of that sample equally and must not change the loss.
    net = Network([LayerSpec("dense", 3, 3)])
    params = dense_params(net, np.eye(3), np.zeros(3))
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 3))
    shifts = rng.normal(size=(5, 1)) * 10.0
    v1, _, _, _ = net.loss_and_gradients(params, Batch(x), LossKind("pseudo_label"))
    v2, _, _, _ = net.loss_and_gradients(params, Batch(x + shifts), LossKind("pseudo_label"))
    assert abs(v1 - v2) < 1e-9


def test_shot_im_zero_weight_matches_direct_recomputation():
    rng = np.random.default_rng(17)
    net = Network([LayerSpec("dense", 4, 6, "tanh"), LayerSpec("dense", 6, 3)])
    params = net.init_params(5)
    x = rng.normal(size=(8, 4))
    value, _, _, _ = net.loss_and_gradients(params, Batch(x), LossKind("shot_im", shot_pl_weight=0.0))
    p = net.forward(params, Batch(x))
    ent = -(p * np.log(p)).sum(axis=1).mean()
    pbar = p.mean(axis=0)
    assert abs(value - (ent - (-(pbar * np.log(pbar)).sum()))) < 1e-12


def test_label_requirements():
    net = Network([LayerSpec("dense", 2, 2)])
    params = net.init_params(0)
    x = np.zeros((2, 2))
    y = np.array([0, 1])
    with pytest.raises(ValueError):
        net.loss_and_gradients(params, Batch(x), LossKind("cross_entropy"))
    with pytest.raises(ValueError):
        net.loss_and_gradients(params, Batch(x, y), LossKind("pseudo_label"))
    with pytest.raises(ValueError):
        net.loss_and_gradients(params, Batch(x, y), LossKind("shot_im"))


def test_empty_batch_rejected():
    with pytest.raises(ConfigurationError):
        Batch(np.zeros((0, 3)))


@pytest.mark.parametrize("variant", ["cross_entropy", "pseudo_label", "shot_im"])
def test_gradients_match_finite_differences(variant):
    rng = np.random.default_rng(23)
    for _ in range(5):
        net, params, batch = random_small_net(rng)
        loss = LossKind(variant)
        if variant == "cross_entropy":
            batch = Batch(batch.inputs, rng.integers(0, net.num_classes, batch.size))
        _, grads, _, _ = net.loss_and_gradients(params, batch, loss)
        fd = finite_difference_grads(net, params, batch, loss)
        assert gradient_relative_error(grads, fd) < 1e-4



def mixed_net_and_params(rng):
    """Dense and normalization layers, one normalization with a relu, with
    non-default affine parameters and frozen statistics."""
    net = Network([
        LayerSpec("dense", 3, 6, "tanh"),
        LayerSpec("normalization", 6, 6, "relu"),
        LayerSpec("dense", 6, 5, "relu"),
        LayerSpec("normalization", 5, 5),
        LayerSpec("dense", 5, 4),
    ])
    params = net.init_params(3)
    for i, spec in enumerate(net.specs):
        if spec.kind == "normalization":
            params.layers[i] += rng.normal(scale=0.3, size=params.layers[i].size)
            net.norm_stats[i] = (rng.normal(size=spec.output_dim),
                                 rng.uniform(0.5, 2.0, size=spec.output_dim))
    return net, params


def _loss_batch(rng, variant, size):
    labels = rng.integers(0, 4, size) if variant == "cross_entropy" else None
    return Batch(rng.normal(size=(size, 3)), labels)


@pytest.mark.parametrize("variant", ["cross_entropy", "pseudo_label", "shot_im"])
@pytest.mark.parametrize("size", [1, 5])
def test_backward_layer_subset_matches_full_backward(variant, size):
    """For every subset of layers, a loss pass that wants only those has
    the full backward's bytes for them and None for every other layer; the
    loss, the probabilities and the layer inputs do not depend on the
    subset."""
    rng = np.random.default_rng(61)
    net, params = mixed_net_and_params(rng)
    batch = _loss_batch(rng, variant, size)
    loss = LossKind(variant)
    value, full, probs, inputs = net.loss_and_gradients(params, batch, loss)
    n = len(net.specs)
    assert np.shares_memory(inputs[0], batch.inputs) and len(inputs) == n + 1
    assert inputs[0].tobytes() == batch.inputs.tobytes()
    for bits in range(2 ** n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        (v,), (grads,), p, xs = loss_pass(net, params, batch, loss, [subset])
        assert v == value and p.tobytes() == probs.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(xs, inputs))
        for i in range(n):
            if i in subset:
                assert grads[i].tobytes() == full[i].tobytes()
            else:
                assert grads[i] is None


def restart(net, params, acts, starts):
    """``Network._restart`` of ``params``' views from per-run ``starts`` on
    a loss pass's ``acts``, inside the ``np.errstate`` a pass sets."""
    with np.errstate(over="ignore", invalid="ignore"):
        return net._restart([net._view(i, v) for i, v in enumerate(params.layers)], acts,
                            tuple(starts))


@pytest.mark.parametrize("size", [1, 5])
def test_forward_restart_matches_full_forward(size):
    """Restarting at any layer from the loss pass's input to it gives a
    full forward's bytes, also when the layers from there up changed."""
    rng = np.random.default_rng(62)
    net, params = mixed_net_and_params(rng)
    batch = _loss_batch(rng, "shot_im", size)
    _, _, probs, inputs = net.loss_and_gradients(params, batch, LossKind("shot_im"))
    for start in range(len(net.specs) + 1):
        assert restart(net, params, inputs, [start]).tobytes() == probs.tobytes()
        moved = ModelParameters(
            [v if i < start else v + rng.normal(scale=0.1, size=v.size)
             for i, v in enumerate(params.layers)], list(params.layer_names))
        assert (restart(net, moved, inputs, [start]).tobytes()
                == net.forward(moved, batch).tobytes())
    bad = [v.copy() for v in params.layers]
    bad[4][0] = np.inf
    with pytest.raises(NumericsError, match="layer 4"):
        restart(net, ModelParameters(bad, params.layer_names), inputs, [3])

@pytest.mark.parametrize("size", [1, 5])
def test_forward_per_run_starts_in_any_order(size):
    """Stacked runs restarting at layers in no particular order, each with
    the layers from its start up moved, get the bytes of a full forward of
    each run alone, and each layer runs for exactly the runs that start at
    or below it; a non-finite run is named by its index."""
    rng = np.random.default_rng(63)
    net, params = mixed_net_and_params(rng)
    batch = _loss_batch(rng, "shot_im", size)
    starts = [3, 0, 5, 1, 3, 4, 2, 0]
    runs = len(starts)
    stacked = ModelParameters([np.repeat(v[None], runs, axis=0) for v in params.layers],
                              list(params.layer_names))
    _, _, _, inputs = loss_pass(net, stacked, batch, LossKind("shot_im"), [()] * runs)
    moved = ModelParameters([v.copy() for v in stacked.layers], list(params.layer_names))
    for r, s in enumerate(starts):
        for i in range(s, len(net.specs)):
            moved.layers[i][r] += rng.normal(scale=0.1, size=moved.layers[i].shape[1])
    rows = []
    layer_forward = Network._layer_forward
    net._layer_forward = lambda i, x, vec, stats: rows.append((i, len(x))) or layer_forward(
        net, i, x, vec, stats)
    probs = restart(net, moved, inputs, starts)
    del net._layer_forward
    for i in range(len(net.specs)):
        assert sum(k for j, k in rows if j == i) == sum(s <= i for s in starts), i
    for r in range(runs):
        alone = net.forward(moved.run(r), batch)
        assert probs[r].tobytes() == alone.tobytes(), r
    moved.layers[4][6, 0] = np.inf
    with pytest.raises(NumericsError, match="layer 4") as info:
        restart(net, moved, inputs, starts)
    assert info.value.runs == [6]


def separable_blobs(rng, n=400):
    half = n // 2
    x = np.concatenate([
        rng.normal(loc=(-1.5, 0.0), scale=0.3, size=(half, 2)),
        rng.normal(loc=(1.5, 0.0), scale=0.3, size=(half, 2)),
    ])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    order = rng.permutation(n)
    return Batch(x[order], y[order])


def test_pretrain_separable_blobs():
    """SGD should approach what the closed-form midpoint separator achieves."""
    rng = np.random.default_rng(29)
    train = separable_blobs(rng)
    val = separable_blobs(rng, n=200)
    # Oracle: classify by sign of w.(x - midpoint) with w the mean difference.
    w = np.array([3.0, 0.0])
    oracle_acc = np.mean((val.inputs @ w > 0).astype(int) == val.labels) * 100.0
    assert oracle_acc > 95.0
    specs = [LayerSpec("dense", 2, 8, "tanh"), LayerSpec("dense", 8, 2)]
    result = pretrain_erm(specs, minibatches(train, 32, 500, seed=1), val,
                          OptimizerConfig(0.1), seed=3)
    assert result.num_steps == 500
    assert result.val_accuracy > 95.0


def test_pretrain_zero_steps_returns_initialization():
    val = separable_blobs(np.random.default_rng(31), n=50)
    specs = [LayerSpec("dense", 2, 4, "tanh"), LayerSpec("dense", 4, 2)]
    result = pretrain_erm(specs, iter([]), val, OptimizerConfig(0.1), seed=7)
    init = Network(specs).init_params(7)
    for a, b in zip(result.params.layers, init.layers):
        assert np.array_equal(a, b)


def test_pretrain_deterministic():
    rng_a = np.random.default_rng(37)
    rng_b = np.random.default_rng(37)
    specs = [LayerSpec("dense", 2, 6, "relu"), LayerSpec("dense", 6, 2)]
    res_a = pretrain_erm(specs, minibatches(separable_blobs(rng_a), 16, 50, seed=2),
                         separable_blobs(rng_a, 50), OptimizerConfig(0.05), seed=9)
    res_b = pretrain_erm(specs, minibatches(separable_blobs(rng_b), 16, 50, seed=2),
                         separable_blobs(rng_b, 50), OptimizerConfig(0.05), seed=9)
    for a, b in zip(res_a.params.layers, res_b.params.layers):
        assert np.array_equal(a, b)
    assert res_a.val_accuracy == res_b.val_accuracy


def test_pretrain_divergence_reports_step():
    # Unlearnable random labels keep gradients alive while an absurd
    # learning rate multiplies the weights into overflow.
    rng = np.random.default_rng(41)
    train = Batch(rng.normal(size=(64, 2)), rng.integers(0, 2, 64))
    val = Batch(rng.normal(size=(20, 2)), rng.integers(0, 2, 20))
    specs = [LayerSpec("dense", 2, 16), LayerSpec("dense", 16, 2)]
    with pytest.raises(TrainingError, match="step"):
        pretrain_erm(specs, minibatches(train, 64, 200, seed=1), val,
                     OptimizerConfig(1e12), seed=1)


def reference_pretrain(specs, batches, lr, seed):
    """Pretraining through the public entry, one checked call per batch:
    ``loss_and_gradients``, then ``vec -= lr * g``, and each normalization
    layer's running statistics moved here, from the input the call saw,
    by momentum 0.1. Every batch holds two samples or more, so the
    statistics never feed a forward pass."""
    net = Network(specs)
    params = net.init_params(seed)
    m = 0.1
    for batch in batches:
        assert batch.size >= 2
        _, grads, _, acts = net.loss_and_gradients(params, batch, LossKind("cross_entropy"))
        for i, (mean, var) in net.norm_stats.items():
            net.norm_stats[i] = ((1 - m) * mean + m * acts[i].mean(axis=0),
                                 (1 - m) * var + m * acts[i].var(axis=0))
        for vec, g in zip(params.layers, grads):
            vec -= lr * g
    return net, params


def norm_net_case(batch_size):
    rng = np.random.default_rng(61)
    specs = [LayerSpec("dense", 4, 10, "tanh"), LayerSpec("normalization", 10, 10, "relu"),
             LayerSpec("dense", 10, 10, "tanh"), LayerSpec("normalization", 10, 10),
             LayerSpec("dense", 10, 3)]
    data = Batch(rng.normal(size=(120, 4)), rng.integers(0, 3, size=120))
    return specs, data, batch_size, 60, 0.2, 3


def quickstart_case():
    cfg = load_config(QUICKSTART)
    pre = cfg.pretrain
    return (cfg.model, generate_task(cfg.task).train, pre.batch_size, pre.steps,
            pre.learning_rate, pre.seed)


@pytest.mark.parametrize("case", ["norm-b2", "norm-b16", "quickstart"])
def test_pretrain_equals_the_public_entry_per_batch(case):
    """pretrain_erm's parameters, running statistics and step count equal
    the checked public entry called once per batch, with the statistics
    moved by the test, byte for byte: on a net with normalization layers
    at batch sizes of two and more, and on the quickstart net."""
    specs, data, batch_size, steps, lr, seed = (
        quickstart_case() if case == "quickstart" else norm_net_case(int(case[6:])))
    val = Batch(data.inputs[:20], data.labels[:20])
    result = pretrain_erm(specs, minibatches(data, batch_size, steps, seed=5), val,
                          OptimizerConfig(lr), seed=seed)
    net, params = reference_pretrain(specs, minibatches(data, batch_size, steps, seed=5),
                                     lr, seed)
    assert result.num_steps == steps
    for got, want in zip(result.params.layers, params.layers):
        assert got.tobytes() == want.tobytes()
    assert result.network.norm_stats.keys() == net.norm_stats.keys()
    for i, (mean, var) in net.norm_stats.items():
        got_mean, got_var = result.network.norm_stats[i]
        assert got_mean.tobytes() == mean.tobytes() and got_var.tobytes() == var.tobytes()
    if case != "quickstart":
        assert any(not np.array_equal(var, np.ones(10)) for _, var in net.norm_stats.values())
    assert result.val_accuracy == accuracy(net, params, val)


def pretrain_on(batches, lr=0.1, specs=None):
    """pretrain_erm over ``batches``, with any RuntimeWarning an error."""
    specs = specs or [LayerSpec("dense", 2, 4, "tanh"), LayerSpec("dense", 4, 2)]
    val = Batch(np.zeros((2, 2)), np.zeros(2, dtype=int))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return pretrain_erm(specs, iter(batches), val, OptimizerConfig(lr), seed=1)


def test_pretrain_checks_every_batch():
    """A bad batch after good ones raises what the public entry raises,
    with no RuntimeWarning: an unlabeled batch raises ValueError, a wrong
    input_dim raises ConfigurationError. No batch holds one batch per run:
    Batch refuses (R, B, d) inputs, and labels other than one per sample."""
    rng = np.random.default_rng(67)
    good = Batch(rng.normal(size=(5, 2)), rng.integers(0, 2, size=5))
    with pytest.raises(ValueError, match="labeled"):
        pretrain_on([good, Batch(good.inputs)])
    with pytest.raises(ConfigurationError, match="input_dim 3"):
        pretrain_on([good, good, Batch(rng.normal(size=(5, 3)), good.labels)])
    with pytest.raises(ConfigurationError, match="must be 2-D"):
        Batch(np.stack([good.inputs] * 2), np.stack([good.labels] * 2))
    with pytest.raises(ConfigurationError, match="match batch size"):
        Batch(good.inputs, np.stack([good.labels] * 2))
    assert pretrain_on([good, good]).num_steps == 2


def test_pretrain_divergence_names_the_step():
    """A non-finite activation, and parameters that overflow in the update
    itself, raise a TrainingError that names their step, with no
    RuntimeWarning."""
    specs = [LayerSpec("dense", 2, 2)]
    labels = np.array([0, 1])
    # zero inputs with one sample per class: uniform predictions, and a
    # gradient of exactly zero, so the parameters stay as they were
    still = Batch(np.zeros((2, 2)), labels)
    good = Batch(np.array([[0.5, -1.0], [1.0, 0.25]]), labels)
    huge = Batch(np.full((2, 2), 1e120), labels)
    # step 1 moves the weights to about 1e199: step 2's logits overflow
    with pytest.raises(TrainingError, match="pretraining diverged at step 2: non-finite "
                                            "activation at layer 0"):
        pretrain_on([still, good, huge, good], lr=1e200, specs=specs)
    # finite logits of about 1e120, but lr * g of about 1e320
    with pytest.raises(TrainingError, match="parameters diverged at step 2"):
        pretrain_on([still, still, huge, good], lr=1e200, specs=specs)
    assert pretrain_on([still, still], lr=1e200, specs=specs).num_steps == 2


def test_init_params_bounds():
    specs = [LayerSpec("dense", 10, 20, "tanh"), LayerSpec("normalization", 20, 20),
             LayerSpec("dense", 20, 3)]
    net = Network(specs)
    params = net.init_params(11)
    limit = math.sqrt(6.0 / 30.0)
    w = params.layers[0][:200]
    assert np.all(np.abs(w) <= limit)
    assert np.all(params.layers[0][200:] == 0.0)
    assert np.array_equal(params.layers[1], np.concatenate([np.ones(20), np.zeros(20)]))


def test_layer_spec_validation():
    assert LAYER_KINDS == ("dense", "normalization")
    for kind in ("conv", "activation"):  # every layer has parameters
        with pytest.raises(ConfigurationError, match="unknown layer kind"):
            LayerSpec(kind, 3, 3)
    with pytest.raises(ConfigurationError):
        LayerSpec("normalization", 3, 4)
    with pytest.raises(ConfigurationError):
        Network([LayerSpec("dense", 2, 3), LayerSpec("dense", 4, 2)])


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    specs = [LayerSpec("dense", 3, 8, "relu"), LayerSpec("normalization", 8, 8),
             LayerSpec("dense", 8, 4)]
    net = Network(specs)
    params = net.init_params(13)
    net.norm_stats[1] = (rng.normal(size=8), rng.uniform(0.5, 2.0, size=8))
    path = tmp_path / "model.json"
    save_checkpoint(path, net, params, seed=13, metadata={"val_accuracy": 97.5, "train_steps": 40})
    net2, params2, seed2, meta2 = load_checkpoint(path)
    assert seed2 == 13
    assert meta2 == {"val_accuracy": 97.5, "train_steps": 40}
    assert [s.kind for s in net2.specs] == [s.kind for s in specs]
    for a, b in zip(params.layers, params2.layers):
        assert np.array_equal(a, b)
    for (m1, v1), (m2, v2) in [(net.norm_stats[1], net2.norm_stats[1])]:
        assert np.array_equal(m1, m2) and np.array_equal(v1, v2)


def test_checkpoint_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigurationError, match="nope.json"):
        load_checkpoint(missing)


def test_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_accuracy_helper():
    net = Network([LayerSpec("dense", 2, 2)])
    params = dense_params(net, np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
    batch = Batch(np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]]),
                  np.array([0, 1, 0, 0]))
    assert accuracy(net, params, batch) == 75.0


def test_public_entries_refuse_stacked_parameters():
    """forward, predict, loss_and_gradients and accuracy take one model:
    (R, P_i) layers raise one ConfigurationError that names their shape.
    Stacked runs are the passes' (see test_lockstep)."""
    rng = np.random.default_rng(83)
    net = Network([LayerSpec("dense", 4, 6, "tanh"), LayerSpec("dense", 6, 3)])
    runs = [net.init_params(seed).layers for seed in (1, 2)]
    stacked = ModelParameters([np.stack(vs) for vs in zip(*runs)], net.layer_names)
    batch = Batch(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
    entries = [lambda: net.forward(stacked, batch), lambda: net.predict(stacked, batch),
               lambda: net.loss_and_gradients(stacked, batch, LossKind("cross_entropy")),
               lambda: accuracy(net, stacked, batch)]
    for entry in entries:
        with pytest.raises(ConfigurationError, match=r"^expected 1-D layers, got shape \(2, 30\)"):
            entry()


def test_minibatches_deterministic_and_sized():
    data = separable_blobs(np.random.default_rng(47), n=100)
    a = [b.inputs.copy() for b in minibatches(data, 16, 12, seed=5)]
    b = [b.inputs.copy() for b in minibatches(data, 16, 12, seed=5)]
    assert len(a) == 12
    assert all(x.shape == (16, 2) for x in a)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
