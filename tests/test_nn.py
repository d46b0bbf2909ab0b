import json
import math

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
    load_checkpoint,
    minibatches,
    pretrain_erm,
    save_checkpoint,
)
from gala.nn import LAYER_KINDS
from helpers import finite_difference_grads, gradient_relative_error, random_small_net


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
    *_, (_, out_logits) = net.loss_and_gradients(params, Batch(x), LossKind("pseudo_label"),
                                                 layers=())
    assert np.allclose(out_logits.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out_logits.var(axis=0), 1.0, atol=1e-3)


def test_normalization_single_sample_uses_frozen_stats():
    net = Network([LayerSpec("normalization", 2, 2)])
    params = ModelParameters([np.array([2.0, 0.5, 1.0, -1.0])], list(net.layer_names))
    net.norm_stats[0] = (np.array([1.0, -1.0]), np.array([4.0, 0.25]))
    x = np.array([[3.0, 0.0]])
    *_, (_, out) = net.loss_and_gradients(params, Batch(x), LossKind("pseudo_label"), layers=())
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
    """For every subset of layers, the requested gradients are the full
    backward's bytes and every other entry is None; the loss, the
    probabilities and the layer inputs do not depend on the subset."""
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
        v, grads, p, xs = net.loss_and_gradients(params, batch, loss, layers=subset)
        assert v == value and p.tobytes() == probs.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(xs, inputs))
        for i in range(n):
            if i in subset:
                assert grads[i].tobytes() == full[i].tobytes()
            else:
                assert grads[i] is None


@pytest.mark.parametrize("size", [1, 5])
def test_forward_restart_matches_full_forward(size):
    """Restarting at any layer from the loss pass's input to it gives a
    full forward's bytes, also when the layers from there up changed."""
    rng = np.random.default_rng(62)
    net, params = mixed_net_and_params(rng)
    batch = _loss_batch(rng, "shot_im", size)
    _, _, probs, inputs = net.loss_and_gradients(params, batch, LossKind("shot_im"))
    for start in range(len(net.specs) + 1):
        assert net.forward(params, batch, start, inputs).tobytes() == probs.tobytes()
        moved = ModelParameters(
            [v if i < start else v + rng.normal(scale=0.1, size=v.size)
             for i, v in enumerate(params.layers)], list(params.layer_names))
        assert (net.forward(moved, batch, start, inputs).tobytes()
                == net.forward(moved, batch).tobytes())
    with pytest.raises(ValueError, match="layer 3"):
        net.forward(params, batch, 3)
    with pytest.raises(ConfigurationError, match="layer 3"):
        net.forward(params, batch, 3, inputs[:3] + [inputs[3][:, :4]] + inputs[4:])
    with pytest.raises(ConfigurationError, match="layer 4 expects"):
        net.forward(ModelParameters(params.layers[:4] + [np.zeros(3)], params.layer_names),
                    batch, 5, inputs)
    bad = [v.copy() for v in params.layers]
    bad[4][0] = np.inf
    with pytest.raises(NumericsError, match="layer 4"):
        net.forward(ModelParameters(bad, params.layer_names), batch, 3, inputs)

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
    _, _, _, inputs = net.loss_and_gradients(stacked, batch, LossKind("shot_im"),
                                             layers=[frozenset()] * runs)
    moved = ModelParameters([v.copy() for v in stacked.layers], list(params.layer_names))
    for r, s in enumerate(starts):
        for i in range(s, len(net.specs)):
            moved.layers[i][r] += rng.normal(scale=0.1, size=moved.layers[i].shape[1])
    rows = []
    layer_forward = Network._layer_forward
    net._layer_forward = lambda i, x, vec, stats: rows.append((i, len(x))) or layer_forward(
        net, i, x, vec, stats)
    probs = net.forward(moved, batch, starts, inputs)
    del net._layer_forward
    for i in range(len(net.specs)):
        assert sum(k for j, k in rows if j == i) == sum(s <= i for s in starts), i
    for r in range(runs):
        alone = net.forward(moved.run(r), batch)
        assert probs[r].tobytes() == alone.tobytes(), r
    moved.layers[4][6, 0] = np.inf
    with pytest.raises(NumericsError, match="layer 4") as info:
        net.forward(moved, batch, starts, inputs)
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


def test_minibatches_deterministic_and_sized():
    data = separable_blobs(np.random.default_rng(47), n=100)
    a = [b.inputs.copy() for b in minibatches(data, 16, 12, seed=5)]
    b = [b.inputs.copy() for b in minibatches(data, 16, 12, seed=5)]
    assert len(a) == 12
    assert all(x.shape == (16, 2) for x in a)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("variant", ["cross_entropy", "shot_im"])
@pytest.mark.parametrize("batch_size", [1, 4])
def test_per_run_batches_equal_runs_alone(variant, batch_size):
    """With (R, B, d) inputs, run r sees batch r: for R stacked models and
    for one model shared by every run, the probabilities, loss values and
    gradients of each run equal its own batch through its own model alone,
    byte for byte."""
    rng = np.random.default_rng(31)
    net = Network([LayerSpec("dense", 3, 5, "tanh"), LayerSpec("normalization", 5, 5),
                   LayerSpec("dense", 5, 4)])
    net.norm_stats[1] = (rng.normal(size=5), rng.uniform(0.5, 2.0, size=5))
    runs = 3
    one = net.init_params(2)
    stacked = ModelParameters([np.stack([v + rng.normal(scale=0.1, size=v.shape)
                                         for _ in range(runs)]) for v in one.layers],
                              one.layer_names)
    x = rng.normal(size=(runs, batch_size, 3))
    labels = rng.integers(0, 4, size=(runs, batch_size)) if variant == "cross_entropy" else None
    loss = LossKind(variant)
    for params in (one, stacked):
        batch = Batch(x, labels)
        values, grads, probs, _ = net.loss_and_gradients(params, batch, loss)
        forward = net.forward(params, batch)
        for r in range(runs):
            alone = params if params is one else params.run(r)
            batch_r = Batch(x[r], None if labels is None else labels[r])
            value, grad, p, _ = net.loss_and_gradients(alone, batch_r, loss)
            assert values[r] == value
            assert probs[r].tobytes() == p.tobytes() == forward[r].tobytes()
            for got, want in zip(grads[r], grad):
                assert got.tobytes() == want.tobytes()
    with pytest.raises(ConfigurationError, match="2 batches for 3 runs"):
        net.forward(stacked, Batch(x[:2]))
    with pytest.raises(ConfigurationError, match="leading axes"):
        Batch(x, np.zeros(runs * batch_size, dtype=int))
