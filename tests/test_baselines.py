"""Comparison selectors: no-update control, all-layers SGD, random and
norm-scaled selection, and the brute-force single-group oracle."""

import math

import numpy as np
import pytest

from gala import (
    Batch,
    ConfigurationError,
    GalaConfig,
    LayerSpec,
    LossKind,
    ModelParameters,
    Network,
    NumericsError,
    OptimizerConfig,
    ParameterGrouping,
    SelectorKind,
    ShiftSpec,
    TaskSpec,
    baseline_policy,
    build_grouping,
    build_stream,
    generate_task,
    minibatches,
    oracle_sweep,
    pretrain_erm,
    run_baseline,
    run_gala,
    tta_accuracy,
)
from gala.runner import adapt
from helpers import diverging_relu_net, single_step


def small_setup(seed=5):
    spec = TaskSpec(num_classes=3, input_dim=2, samples_per_domain=150, seed=seed)
    data = generate_task(spec)
    specs = [LayerSpec("dense", 2, 8, "relu"), LayerSpec("dense", 8, 3)]
    pre = pretrain_erm(specs, minibatches(data.train, 20, 300, seed=seed),
                       data.source_holdout, OptimizerConfig(0.1), seed=seed)
    stream = build_stream(spec, [ShiftSpec("rotation", 2)], batch_size=10, seed=seed)
    return Network(specs), pre.params, stream


def head_scenario(seed=11, margin=0.2, scale=4.0):
    """Shift fixable by the output layer alone, with a saturated trunk.

    Class 0 moves onto a feature corner the pretrained head never uses,
    arriving with a slim wrong-way margin while class 1 stays confident.
    The entropy-balancing term can then flip the displaced cluster, but
    tanh saturation starves the trunk of gradient, so only the head
    trial can act within the stream.
    """
    net = Network([LayerSpec("dense", 2, 2, "tanh"), LayerSpec("dense", 2, 2)])
    trunk = np.concatenate([np.array([[scale, 0.0], [0.0, scale]]).ravel(),
                            [0.0, -3.0 * scale]])
    # head rows solving: logit gap 'margin' at the displaced corner
    # (0.96, 1), gap 3.0 at the intact corner (1, -1)
    a = (margin + 3.0) / 1.96
    c = margin - 0.96 * a
    head = np.concatenate([np.array([[-a / 2, -c / 2], [a / 2, c / 2]]).ravel(), [0.0, 0.0]])
    params = ModelParameters([trunk, head], list(net.layer_names))
    rng = np.random.default_rng(seed)
    inputs, labels = [], []
    for _ in range(150):
        inputs.append(rng.normal((1.0, 6.0), (0.25, 0.3)))
        labels.append(0)
        inputs.append(rng.normal((4.0, 0.0), (0.4, 0.4)))
        labels.append(1)
    inputs, labels = np.asarray(inputs), np.asarray(labels)
    order = rng.permutation(len(labels))

    class Stub:
        adapt_batches = [Batch(inputs[order][i:i + 10], labels[order][i:i + 10])
                         for i in range(0, len(labels), 10)]

    return net, params, Stub()


def test_erm_never_updates():
    net, params, stream = small_setup()
    record = run_baseline(net, params, stream, SelectorKind("erm"),
                          LossKind("pseudo_label"), OptimizerConfig(0.5),
                          granularity="single_layer")
    for before, after in zip(params.layers, record.final_params.layers):
        assert np.array_equal(before, after)
    for d in record.decisions:
        assert d.skipped and not d.mask.any()


def test_erm_correctness_matches_plain_forward():
    net, params, stream = small_setup()
    record = run_baseline(net, params, stream, SelectorKind("erm"),
                          LossKind("pseudo_label"), OptimizerConfig(0.5),
                          granularity="single_layer")
    for got, batch in zip(record.correct, stream.adapt_batches):
        want = net.predict(params, Batch(batch.inputs)) == batch.labels
        assert np.array_equal(got, want)


def test_erm_records_finite_losses():
    net, params, stream = small_setup()
    record = run_baseline(net, params, stream, SelectorKind("erm"),
                          LossKind("shot_im"), OptimizerConfig(0.5),
                          granularity="single_layer")
    assert all(math.isfinite(v) for v in record.losses)


def test_all_layers_equals_degenerate_threshold():
    """All-layers SGD and the selector with an always-pass threshold must
    produce bit-identical trajectories."""
    net, params, stream = small_setup()
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(0.2)
    base = run_baseline(net, params, stream, SelectorKind("all_layers"), loss, opt,
                        granularity="multi_layer")
    cfg = GalaConfig(threshold=-1.0, window_size=math.inf, granularity="multi_layer",
                     warmup_len=0)
    aligned = run_gala(net, params, stream, loss, opt, cfg)
    for a, b in zip(base.final_params.layers, aligned.final_params.layers):
        assert np.array_equal(a, b)
    for ca, cb in zip(base.correct, aligned.correct):
        assert np.array_equal(ca, cb)
    for da, db in zip(base.decisions, aligned.decisions):
        assert np.array_equal(da.mask, db.mask)


def test_all_layers_first_step_flags_fresh_anchor():
    """Every step updates every group; no decision measures alignment or
    starts a window."""
    net, params, stream = small_setup()
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(0.2)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "multi_layer")
    policy = baseline_policy(SelectorKind("all_layers"), grouping)
    for batch in stream.adapt_batches:
        res = single_step(net, params, Batch(batch.inputs), loss, opt, policy)
        d = res.decision
        assert d.mask.all() and not d.skipped and not d.first_sample
        assert np.isnan(d.cosines).all()
        for before, after in zip(params.layers, res.params.layers):
            assert not np.array_equal(before, after)
        params = res.params


def test_random_block_long_run_frequencies():
    """Picks are uniform over groups: 10k draws land within 2 points of 1/4."""
    net = Network([LayerSpec("dense", 2, 4, "relu"), LayerSpec("activation", 4, 4, "tanh"),
                   LayerSpec("dense", 4, 4, "relu"), LayerSpec("dense", 4, 2)])
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "block", num_blocks=4)
    policy = baseline_policy(SelectorKind("random_block", rng_seed=3), grouping)
    params = net.init_params(seed=0)
    batch = Batch(np.array([[0.3, -0.2], [-0.5, 0.9]]))
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(1e-6)
    counts = np.zeros(4)
    for _ in range(10000):
        res = single_step(net, params, batch, loss, opt, policy)
        counts[np.argmax(res.decision.mask)] += 1
        assert res.decision.mask.sum() == 1
    freqs = counts / 10000
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_random_block_seeded_reproducibly():
    net, params, stream = small_setup()
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(0.05)
    one = run_baseline(net, params, stream, SelectorKind("random_block", rng_seed=9),
                       loss, opt, granularity="single_layer")
    two = run_baseline(net, params, stream, SelectorKind("random_block", rng_seed=9),
                       loss, opt, granularity="single_layer")
    other = run_baseline(net, params, stream, SelectorKind("random_block", rng_seed=10),
                         loss, opt, granularity="single_layer")
    picks = lambda rec: [int(np.argmax(d.mask)) for d in rec.decisions]
    assert picks(one) == picks(two)
    assert picks(one) != picks(other)
    for a, b in zip(one.final_params.layers, two.final_params.layers):
        assert np.array_equal(a, b)


def rgn_ratios(grouping, grads, layers):
    """Each group's gradient-to-weight norm ratio, its norms summed from
    per-layer sums of squares."""
    def norm(vectors, members):
        return math.sqrt(sum(float(np.sum(vectors[i] ** 2)) for i in members))
    return np.array([norm(grads, m) / (norm(layers, m) + 1e-12) for m in grouping.members])


def test_auto_rgn_first_step_delta():
    """First step scales each group's SGD update by its gradient-to-weight
    norm ratio over the largest ratio."""
    net, params, stream = small_setup()
    batch = Batch(stream.adapt_batches[0].inputs)
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(0.3)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    _, grads, _, _ = net.loss_and_gradients(params, batch, loss)
    ratios = rgn_ratios(grouping, grads, params.layers)
    scales = ratios / ratios.max()
    res = single_step(net, params, batch, loss, opt,
                      baseline_policy(SelectorKind("auto_rgn"), grouping))
    for (i,), s in zip(grouping.members, scales):
        np.testing.assert_allclose(res.params.layers[i],
                                   params.layers[i] - opt.learning_rate * s * grads[i],
                                   rtol=0, atol=1e-12)


def test_auto_rgn_block_ratios_sum_over_layers():
    """A block's ratio takes its norms over all its layers, and its scale
    moves each of them."""
    rng = np.random.default_rng(9)
    net = Network([LayerSpec("dense", 3, 6, "tanh"), LayerSpec("dense", 6, 5, "tanh"),
                   LayerSpec("dense", 5, 4)])
    params = net.init_params(4)
    batch = Batch(rng.normal(size=(7, 3)))
    loss, opt = LossKind("shot_im"), OptimizerConfig(0.2)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs], "block",
                              num_blocks=2)
    assert grouping.members == [[0, 1], [2]]
    _, grads, _, _ = net.loss_and_gradients(params, batch, loss)
    ratios = rgn_ratios(grouping, grads, params.layers)
    policy = baseline_policy(SelectorKind("auto_rgn"), grouping)
    res = single_step(net, params, batch, loss, opt, policy)
    np.testing.assert_allclose(policy.ema, ratios, rtol=1e-13, atol=0)
    for members, s in zip(grouping.members, policy.ema / policy.ema.max()):
        for i in members:
            np.testing.assert_allclose(res.params.layers[i],
                                       params.layers[i] - opt.learning_rate * s * grads[i],
                                       rtol=0, atol=1e-12)


def test_auto_rgn_ema_tracks_ratio_history():
    """Seeds the average with the first ratios, then blends 9:1."""
    net, params, stream = small_setup()
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(0.3)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    policy = baseline_policy(SelectorKind("auto_rgn"), grouping)
    batch1 = Batch(stream.adapt_batches[0].inputs)
    batch2 = Batch(stream.adapt_batches[1].inputs)

    def ratios_at(p, b):
        _, grads, _, _ = net.loss_and_gradients(p, b, loss)
        return rgn_ratios(grouping, grads, p.layers)

    r1 = ratios_at(params, batch1)
    res1 = single_step(net, params, batch1, loss, opt, policy)
    np.testing.assert_allclose(policy.ema, r1, rtol=0, atol=1e-15)
    r2 = ratios_at(res1.params, batch2)
    single_step(net, res1.params, batch2, loss, opt, policy)
    np.testing.assert_allclose(policy.ema, 0.9 * r1 + 0.1 * r2, rtol=0, atol=1e-15)


def test_auto_rgn_updates_every_group():
    net, params, stream = small_setup()
    record = run_baseline(net, params, stream, SelectorKind("auto_rgn"),
                          LossKind("pseudo_label"), OptimizerConfig(0.3),
                          granularity="single_layer")
    assert all(d.mask.all() for d in record.decisions)
    for before, after in zip(params.layers, record.final_params.layers):
        assert not np.array_equal(before, after)


def test_selector_kind_validation():
    with pytest.raises(ConfigurationError):
        SelectorKind("momentum_select")
    grouping = build_grouping(["L0_dense", "L1_dense"], [6, 6], "single_layer")
    with pytest.raises(ConfigurationError, match="fixed_group"):
        baseline_policy(SelectorKind("oracle_best"), grouping)
    with pytest.raises(ConfigurationError, match="L9"):
        baseline_policy(SelectorKind("oracle_worst", fixed_group="L9"), grouping)


def test_run_baseline_grouping_arguments_override_the_kind_as_given():
    """A num_blocks of 0 is passed on, not swapped for the kind's 4, so the
    error names the 0 blocks asked for."""
    net, params, stream = small_setup()
    with pytest.raises(ConfigurationError, match="cannot split 2 layers into 0 blocks"):
        run_baseline(net, params, stream, SelectorKind("all_layers", granularity="block"),
                     LossKind("pseudo_label"), OptimizerConfig(0.2), num_blocks=0)


def test_oracle_replay_touches_only_pinned_group():
    net, params, stream = small_setup()
    record = run_baseline(net, params, stream,
                          SelectorKind("oracle_best", fixed_group="L1_dense"),
                          LossKind("pseudo_label"), OptimizerConfig(0.2),
                          granularity="single_layer")
    assert np.array_equal(params.layers[0], record.final_params.layers[0])
    assert not np.array_equal(params.layers[1], record.final_params.layers[1])
    for d in record.decisions:
        assert d.mask.tolist() == [0, 1]


def test_oracle_sweep_needs_two_groups():
    net, params, stream = head_scenario()
    grouping = ParameterGrouping(["all"], [[0, 1]],
                                 [s.param_count for s in net.specs])
    with pytest.raises(ConfigurationError, match="2 groups"):
        oracle_sweep(net, params, stream, LossKind("shot_im"), OptimizerConfig(1.0),
                     grouping)


def test_oracle_sweep_covers_groups_and_orders_extremes():
    net, params, stream = small_setup()
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    sweep = oracle_sweep(net, params, stream, LossKind("pseudo_label"),
                         OptimizerConfig(0.2), grouping)
    assert sweep.group_names == grouping.names
    assert len(sweep.accuracies) == grouping.num_groups
    best = sweep.accuracies[grouping.names.index(sweep.best_group)]
    worst = sweep.accuracies[grouping.names.index(sweep.worst_group)]
    assert best == max(sweep.accuracies)
    assert worst == min(sweep.accuracies)
    assert best >= worst


def test_oracle_sweep_deterministic():
    net, params, stream = head_scenario()
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    first = oracle_sweep(net, params, stream, LossKind("shot_im"), OptimizerConfig(1.0),
                         grouping)
    second = oracle_sweep(net, params, stream, LossKind("shot_im"), OptimizerConfig(1.0),
                          grouping)
    assert first.accuracies == second.accuracies
    assert first.best_group == second.best_group


def test_oracle_sweep_divergence_names_the_group():
    """When one trial of the lockstep sweep goes non-finite, the pass
    raises a NumericsError naming that trial's group; run alone, every
    other trial stays finite."""
    net, params = diverging_relu_net()
    task = TaskSpec(num_classes=3, input_dim=2, samples_per_domain=40, seed=4)
    stream = build_stream(task, [ShiftSpec("rotation", 2)], "single", 4, seed=0)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    loss, opt = LossKind("pseudo_label"), OptimizerConfig(1e305)
    with pytest.raises(NumericsError, match="oracle trial on L1_dense diverged: "
                                           "non-finite activation at layer 1") as info:
        oracle_sweep(net, params, stream, loss, opt, grouping)
    assert info.value.runs == [1]
    for k, name in enumerate(grouping.names):
        policy = baseline_policy(SelectorKind("oracle_best", fixed_group=name), grouping)
        if k == 1:
            with pytest.raises(NumericsError, match="layer 1"):
                adapt(net, params, stream, loss, opt, [policy])
        else:
            (record,) = adapt(net, params, stream, loss, opt, [policy])
            assert record.final_params.allfinite()


def test_head_only_shift_analytically_fixable():
    """A hand-written output layer fixes the stream at 100% accuracy with
    the trunk untouched, so the shift needs no feature change."""
    net, params, stream = head_scenario()
    fixed = params.copy()
    fixed.layers[1] = np.concatenate([np.array([[-1.0, 2.0], [1.0, -2.0]]).ravel(),
                                      [0.0, 0.0]])
    correct = [net.predict(fixed, Batch(b.inputs)) == b.labels
               for b in stream.adapt_batches]
    assert float(np.concatenate(correct).mean()) == 1.0
    # the unadapted model starts at chance
    base = [net.predict(params, Batch(b.inputs)) == b.labels
            for b in stream.adapt_batches]
    assert float(np.concatenate(base).mean()) == pytest.approx(0.5, abs=0.02)


def test_head_only_shift_ranks_last_group_best():
    """On the head-fixable stream the sweep must rank the output layer
    first: the saturated trunk cannot move within the stream budget."""
    net, params, stream = head_scenario()
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    sweep = oracle_sweep(net, params, stream, LossKind("shot_im"), OptimizerConfig(1.0),
                         grouping)
    assert sweep.best_group == "L1_dense"
    assert sweep.worst_group == "L0_dense"
    head_acc = sweep.accuracies[1]
    trunk_acc = sweep.accuracies[0]
    assert head_acc > 85.0
    assert trunk_acc < 80.0
    assert head_acc - trunk_acc > 15.0


def test_run_baseline_autosweeps_unpinned_oracle():
    net, params, stream = head_scenario()
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    sweep = oracle_sweep(net, params, stream, LossKind("shot_im"), OptimizerConfig(1.0),
                         grouping)
    best = run_baseline(net, params, stream, SelectorKind("oracle_best"),
                        LossKind("shot_im"), OptimizerConfig(1.0),
                        granularity="single_layer")
    worst = run_baseline(net, params, stream, SelectorKind("oracle_worst"),
                         LossKind("shot_im"), OptimizerConfig(1.0),
                         granularity="single_layer")
    assert tta_accuracy(best) == pytest.approx(max(sweep.accuracies), abs=1e-9)
    assert tta_accuracy(worst) == pytest.approx(min(sweep.accuracies), abs=1e-9)
    best_mask = [int(name == sweep.best_group) for name in best.group_names]
    assert all(d.mask.tolist() == best_mask for d in best.decisions)


def test_baseline_runs_are_deterministic():
    net, params, stream = small_setup()
    for variant in ("erm", "all_layers", "random_block", "auto_rgn"):
        one = run_baseline(net, params, stream, SelectorKind(variant),
                           LossKind("pseudo_label"), OptimizerConfig(0.1),
                           granularity="single_layer")
        two = run_baseline(net, params, stream, SelectorKind(variant),
                           LossKind("pseudo_label"), OptimizerConfig(0.1),
                           granularity="single_layer")
        assert tta_accuracy(one) == tta_accuracy(two)
        for a, b in zip(one.final_params.layers, two.final_params.layers):
            assert np.array_equal(a, b)
