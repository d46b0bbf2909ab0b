import numpy as np
import pytest

from gala import (
    Batch,
    ConfigurationError,
    LayerSpec,
    OptimizerConfig,
    accuracy,
    minibatches,
    pretrain_erm,
)
from gala.shiftbench import (
    ShiftSpec,
    TaskSpec,
    _effective_shift,
    _sample,
    apply_shift,
    build_stream,
    generate_task,
)


def test_generate_task_deterministic():
    spec = TaskSpec(num_classes=2, input_dim=4, seed=5)
    a = generate_task(spec)
    b = generate_task(spec)
    assert np.array_equal(a.train.inputs, b.train.inputs)
    assert np.array_equal(a.train.labels, b.train.labels)
    assert np.array_equal(a.source_holdout.inputs, b.source_holdout.inputs)


def test_generate_task_balanced_classes():
    for k, n in ((2, 501), (3, 500), (5, 503)):
        spec = TaskSpec(num_classes=k, input_dim=3, samples_per_domain=n, seed=1)
        counts = np.bincount(generate_task(spec).train.labels, minlength=k)
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1


def test_generate_task_train_holdout_disjoint():
    spec = TaskSpec(num_classes=2, input_dim=2, samples_per_domain=400, seed=9)
    data = generate_task(spec)
    train_rows = {tuple(r) for r in data.train.inputs}
    holdout_rows = {tuple(r) for r in data.source_holdout.inputs}
    assert not train_rows & holdout_rows


def test_moons_identity_shift_matches_source_statistically():
    """Identity-angle rotation leaves the target distribution equal to the
    source; the two-sample mean gap stays within 4 standard errors."""
    task = TaskSpec(num_classes=2, input_dim=2, class_geometry="moons",
                    samples_per_domain=2000, seed=3)
    stream = build_stream(task, [ShiftSpec("rotation", 1, {"angle_deg": 0.0})],
                          mode="single", batch_size=40, seed=1)
    source = generate_task(task).train
    target = np.concatenate([b.inputs for b in stream.adapt_batches])
    gap = np.abs(source.inputs.mean(axis=0) - target.mean(axis=0))
    se = source.inputs.std(axis=0) * np.sqrt(1.0 / len(source.inputs) + 1.0 / len(target))
    assert np.all(gap < 4.0 * se)


def test_rotation_inverse_recovers_inputs():
    rng = np.random.default_rng(11)
    batch = Batch(rng.normal(size=(50, 3)), rng.integers(0, 2, 50))
    for severity in (1, 3, 5):
        rotated = apply_shift(batch, ShiftSpec("rotation", severity))
        back = apply_shift(rotated, ShiftSpec("rotation", severity,
                                              {"angle_deg": -15.0 * severity}))
        assert np.all(np.abs(back.inputs - batch.inputs) < 1e-9)
        assert np.array_equal(back.labels, batch.labels)


def test_rotation_identity_params_unchanged():
    rng = np.random.default_rng(13)
    batch = Batch(rng.normal(size=(20, 2)))
    out = apply_shift(batch, ShiftSpec("rotation", 4, {"angle_deg": 0.0}))
    assert np.array_equal(out.inputs, batch.inputs)


def test_additive_noise_variance_increases_with_severity():
    rng = np.random.default_rng(17)
    batch = Batch(rng.normal(size=(800, 4)))
    var1 = apply_shift(batch, ShiftSpec("additive_noise", 1)).inputs.var()
    var5 = apply_shift(batch, ShiftSpec("additive_noise", 5)).inputs.var()
    assert var5 > var1 > batch.inputs.var() - 1e-12


def test_translation_exact_offset():
    rng = np.random.default_rng(19)
    batch = Batch(rng.normal(size=(30, 5)))
    for severity in (1, 4):
        out = apply_shift(batch, ShiftSpec("translation", severity))
        delta = out.inputs - batch.inputs
        assert np.allclose(delta, delta[0], atol=1e-12)
        assert abs(np.linalg.norm(delta[0]) - 0.5 * severity) < 1e-9


def test_feature_scale_alternating_dims():
    rng = np.random.default_rng(23)
    batch = Batch(rng.normal(size=(10, 4)))
    out = apply_shift(batch, ShiftSpec("feature_scale", 2))
    f = 1.5
    assert np.array_equal(out.inputs[:, 0], batch.inputs[:, 0] * f)
    assert np.array_equal(out.inputs[:, 2], batch.inputs[:, 2] * f)
    assert np.array_equal(out.inputs[:, 1], batch.inputs[:, 1] / f)


def test_covariate_shifts_preserve_labels():
    rng = np.random.default_rng(29)
    batch = Batch(rng.normal(size=(40, 3)), rng.integers(0, 3, 40))
    for kind in ("rotation", "translation", "feature_scale", "additive_noise"):
        out = apply_shift(batch, ShiftSpec(kind, 3))
        assert np.array_equal(out.labels, batch.labels)


def test_label_conditional_noise_moves_only_target_class():
    rng = np.random.default_rng(31)
    batch = Batch(rng.normal(size=(60, 3)), rng.integers(0, 2, 60))
    out = apply_shift(batch, ShiftSpec("label_conditional_noise", 3,
                                       {"target_class": 0, "toward_class": 1}))
    moved = batch.labels == 0
    assert np.array_equal(out.inputs[~moved], batch.inputs[~moved])
    assert np.all(np.any(out.inputs[moved] != batch.inputs[moved], axis=1))
    with pytest.raises(ValueError):
        apply_shift(Batch(batch.inputs), ShiftSpec("label_conditional_noise", 1))


def test_shift_spec_validation():
    with pytest.raises(ConfigurationError):
        ShiftSpec("blur", 1)
    with pytest.raises(ConfigurationError):
        ShiftSpec("rotation", 0)
    with pytest.raises(ConfigurationError):
        ShiftSpec("rotation", 6)
    with pytest.raises(ConfigurationError):
        ShiftSpec("rotation", 2, {"sigma": 1.0})


def test_task_spec_validation():
    with pytest.raises(ConfigurationError):
        TaskSpec(num_classes=3, input_dim=2, class_geometry="moons")
    with pytest.raises(ConfigurationError):
        TaskSpec(num_classes=1, input_dim=2)
    with pytest.raises(ConfigurationError):
        TaskSpec(num_classes=2, input_dim=1)
    with pytest.raises(ConfigurationError):
        TaskSpec(num_classes=2, input_dim=2, class_geometry="spirals")


def test_stream_split_arithmetic():
    task = TaskSpec(num_classes=2, input_dim=2, samples_per_domain=100, seed=2)
    shifts = [ShiftSpec("rotation", 1), ShiftSpec("additive_noise", 2),
              ShiftSpec("translation", 3)]
    stream = build_stream(task, shifts, mode="continual", batch_size=16, seed=4)
    assert sum(b.size for b in stream.adapt_batches) == 240
    assert stream.target_holdout.size == 60
    assert len(stream.adapt_batches) == 15
    assert stream.segment_of_batch == [0] * 5 + [1] * 5 + [2] * 5


def test_stream_deterministic():
    task = TaskSpec(num_classes=3, input_dim=4, samples_per_domain=120, seed=6)
    shifts = [ShiftSpec("additive_noise", 2), ShiftSpec("rotation", 3)]
    a = build_stream(task, shifts, mode="continual", batch_size=12, seed=7)
    b = build_stream(task, shifts, mode="continual", batch_size=12, seed=7)
    for ba, bb in zip(a.adapt_batches, b.adapt_batches):
        assert np.array_equal(ba.inputs, bb.inputs)
        assert np.array_equal(ba.labels, bb.labels)
    assert np.array_equal(a.target_holdout.inputs, b.target_holdout.inputs)


def test_stream_adapt_holdout_disjoint():
    task = TaskSpec(num_classes=2, input_dim=3, samples_per_domain=150, seed=8)
    stream = build_stream(task, [ShiftSpec("rotation", 2)], batch_size=10, seed=9)
    adapt_rows = {tuple(r) for b in stream.adapt_batches for r in b.inputs}
    holdout_rows = {tuple(r) for r in stream.target_holdout.inputs}
    assert not adapt_rows & holdout_rows


def reference_stream(task, shifts, batch_size, seed):
    """build_stream's construction with every batch a checked Batch(...):
    per segment, a fresh source draw corrupted whole, shuffled, cut into
    adaptation batches (the last one partial) and a pooled target
    holdout; the source holdout is generate_task's, whole."""
    n, n_adapt = task.samples_per_domain, task.adapt_samples
    batches, segments, held = [], [], []
    for i, shift in enumerate(shifts):
        rng = np.random.default_rng([task.seed, seed, i])
        base = _sample(task, n, rng)
        shifted = apply_shift(base, _effective_shift(shift, task.seed, seed, i))
        order = rng.permutation(n)
        x, y = shifted.inputs[order], shifted.labels[order]
        for start in range(0, n_adapt, batch_size):
            stop = min(start + batch_size, n_adapt)
            batches.append(Batch(x[start:stop], y[start:stop]))
            segments.append(i)
        held.append(Batch(x[n_adapt:], y[n_adapt:]))
    target = Batch(np.concatenate([b.inputs for b in held]),
                   np.concatenate([b.labels for b in held]))
    return batches, segments, target, generate_task(task).source_holdout


def same_batch(a, b):
    return (a.inputs.dtype == b.inputs.dtype and a.labels.dtype == b.labels.dtype
            and a.inputs.tobytes() == b.inputs.tobytes() and a.inputs.shape == b.inputs.shape
            and a.labels.tobytes() == b.labels.tobytes() and a.labels.shape == b.labels.shape)


@pytest.mark.parametrize("mode", ["single", "continual"])
@pytest.mark.parametrize("batch_size", [1, 8, 64])
def test_stream_equals_checked_batches(mode, batch_size):
    """build_stream's adaptation batches, segments and both holdouts equal
    a reference built from checked Batch(...) slices, byte for byte, and
    every adaptation batch holds float64 inputs and int64 labels. 140
    adaptation samples per segment leave a partial last batch at sizes 8
    and 64."""
    task = TaskSpec(num_classes=3, input_dim=4, samples_per_domain=175, seed=12)
    shifts = [ShiftSpec("additive_noise", 2), ShiftSpec("rotation", 4),
              ShiftSpec("label_conditional_noise", 3, {"target_class": 2, "toward_class": 0})]
    shifts = shifts[:1] if mode == "single" else shifts
    stream = build_stream(task, shifts, mode=mode, batch_size=batch_size, seed=3)
    batches, segments, target, source = reference_stream(task, shifts, batch_size, seed=3)
    assert len(stream.adapt_batches) == len(batches) == len(shifts) * -(-140 // batch_size)
    for got, want in zip(stream.adapt_batches, batches):
        assert got.inputs.dtype == np.float64 and got.labels.dtype == np.int64
        assert same_batch(got, want)
    assert stream.segment_of_batch == segments
    assert same_batch(stream.target_holdout, target)
    assert same_batch(stream.source_holdout, source)


def test_stream_mode_and_size_validation():
    task = TaskSpec(num_classes=2, input_dim=2, samples_per_domain=100, seed=1)
    with pytest.raises(ConfigurationError):
        build_stream(task, [], mode="single")
    with pytest.raises(ConfigurationError):
        build_stream(task, [ShiftSpec("rotation", 1), ShiftSpec("rotation", 2)], mode="single")
    with pytest.raises(ConfigurationError):
        build_stream(task, [ShiftSpec("rotation", 1)], batch_size=81)
    with pytest.raises(ConfigurationError):
        build_stream(task, [ShiftSpec("rotation", 1)], mode="mixed")


def test_severity_monotonicity_for_erm():
    """Higher severities should not help a frozen source model, up to one
    inversion per run from sampling noise."""
    for seed in range(5):
        task = TaskSpec(num_classes=3, input_dim=2, samples_per_domain=600, seed=seed)
        data = generate_task(task)
        specs = [LayerSpec("dense", 2, 16, "tanh"), LayerSpec("dense", 16, 3)]
        result = pretrain_erm(specs, minibatches(data.train, 32, 300, seed=seed),
                              data.source_holdout, OptimizerConfig(0.1), seed=seed)
        for kind in ("rotation", "additive_noise"):
            accs = []
            for severity in range(1, 6):
                shifted = apply_shift(data.source_holdout, ShiftSpec(kind, severity))
                accs.append(accuracy(result.network, result.params, shifted))
            inversions = sum(1 for a, b in zip(accs, accs[1:]) if b > a)
            assert inversions <= 1, (kind, seed, accs)
