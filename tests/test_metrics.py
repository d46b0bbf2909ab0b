"""Evaluation metrics, the criterion geometry table, and report files."""

import csv
import json
import math
import re

import numpy as np
import pytest

from gala import (
    Batch,
    ConfigurationError,
    GalaConfig,
    LayerSpec,
    LossKind,
    MetricsSummary,
    ModelParameters,
    Network,
    OptimizerConfig,
    RunRecord,
    SelectionDecision,
    SelectorKind,
    ShiftSpec,
    TaskSpec,
    build_stream,
    config_fingerprint,
    export_geometry_grid,
    forgetting,
    generalization,
    generate_task,
    geometry_grid,
    minibatches,
    parse_summary,
    parse_trace,
    pretrain_erm,
    run_baseline,
    run_gala,
    selection_frequency,
    spearman_rank_correlation,
    summarize,
    tta_accuracy,
    write_aggregate_csv,
    write_summary,
    write_trace,
)


def tiny_params():
    return ModelParameters([np.zeros(6)], ["L0_dense"])


def decision(mask, first_sample=False, cosines=None):
    mask = np.asarray(mask, dtype=np.int64)
    if cosines is None:
        cosines = np.full(mask.size, 0.5)
    return SelectionDecision(np.asarray(cosines, dtype=float), mask, first_sample)


def record_from(correct, decisions, groups=("G0", "G1")):
    n = len(correct)
    return RunRecord(list(groups), [np.asarray(c, dtype=bool) for c in correct],
                     decisions, [0.1] * n, tiny_params())


def control_setup(seed=21):
    """Well-trained model plus an identity-shift (source-distribution) stream."""
    spec = TaskSpec(num_classes=3, input_dim=2, samples_per_domain=600, seed=seed)
    data = generate_task(spec)
    specs = [LayerSpec("dense", 2, 16, "relu"), LayerSpec("dense", 16, 3)]
    pre = pretrain_erm(specs, minibatches(data.train, 32, 600, seed=2),
                       data.source_holdout, OptimizerConfig(0.1), seed=2)
    stream = build_stream(spec, [ShiftSpec("rotation", 1, {"angle_deg": 0.0})],
                          batch_size=16, seed=3)
    return Network(specs), pre, data, stream


def test_tta_accuracy_all_correct():
    rec = record_from([[True, True], [True]], [decision([1, 1])] * 2)
    assert tta_accuracy(rec) == 100.0


def test_tta_accuracy_alternating():
    rec = record_from([[True, False]] * 4, [decision([1, 0])] * 4)
    assert tta_accuracy(rec) == 50.0


def test_tta_accuracy_pools_samples_across_batch_sizes():
    """3 of 4 samples are right: 75%, where a mean of per-step means reads 50%."""
    rec = record_from([[True, True, True], [False]], [decision([1, 0])] * 2)
    assert tta_accuracy(rec) == 75.0


def test_tta_accuracy_empty_record_rejected():
    rec = RunRecord(["G0"], [], [], [], tiny_params())
    with pytest.raises(ConfigurationError):
        tta_accuracy(rec)


def test_tta_accuracy_control_matches_val():
    """With no shift and no updates, online accuracy sits within two
    points of the pretraining validation accuracy."""
    net, pre, data, stream = control_setup()
    rec = run_baseline(net, pre.params, stream, SelectorKind("erm"),
                       LossKind("pseudo_label"), OptimizerConfig(0.1),
                       granularity="single_layer")
    assert abs(tta_accuracy(rec) - pre.val_accuracy) <= 2.0


def test_generalization_consistency_with_val():
    net, pre, data, stream = control_setup()
    assert generalization(net, pre.params, data.source_holdout) == pre.val_accuracy


def test_generalization_empty_holdout_rejected():
    with pytest.raises(ConfigurationError):
        Batch(np.empty((0, 2)), np.empty(0, dtype=int))


def test_generalization_frozen_model_stable():
    net, pre, data, stream = control_setup()
    a = generalization(net, pre.params, stream.target_holdout)
    b = generalization(net, pre.params, stream.target_holdout)
    assert a == b


def test_forgetting_identity_is_zero():
    net, pre, data, stream = control_setup()
    assert forgetting(net, pre.params, pre.params, data.source_holdout) == 0.0


def test_forgetting_constant_predictor_arithmetic():
    """A model collapsed to one class scores 100/k on a balanced holdout."""
    net, pre, data, stream = control_setup()
    collapsed = pre.params.copy()
    w = np.zeros((3, 16))
    b = np.array([10.0, 0.0, 0.0])
    collapsed.layers[1] = np.concatenate([w.ravel(), b])
    holdout = data.source_holdout
    base = generalization(net, pre.params, holdout)
    expected = base - 100.0 * np.mean(holdout.labels == 0)
    assert forgetting(net, pre.params, collapsed, holdout) == pytest.approx(expected, abs=1e-12)


def test_forgetting_erm_run_exactly_zero():
    net, pre, data, stream = control_setup()
    rec = run_baseline(net, pre.params, stream, SelectorKind("erm"),
                       LossKind("pseudo_label"), OptimizerConfig(0.1),
                       granularity="single_layer")
    assert forgetting(net, pre.params, rec.final_params, data.source_holdout) == 0.0


def test_spearman_identical_orderings():
    assert spearman_rank_correlation([3.0, 1.0, 4.0, 1.5], [3.0, 1.0, 4.0, 1.5]) == pytest.approx(1.0)


def test_spearman_reversed_orderings():
    x = [5.0, 2.0, 9.0, 1.0]
    assert spearman_rank_correlation(x, [-v for v in x]) == pytest.approx(-1.0)


def test_spearman_hand_computed_case():
    # d = (-1, 1, -1, 1): rho = 1 - 6*4/(4*15) = 0.6
    assert spearman_rank_correlation([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)


def test_spearman_average_ranks_for_ties():
    # ranks (1.5, 1.5, 3) vs (1, 2, 3): rho = sqrt(3)/2
    got = spearman_rank_correlation([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert got == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_spearman_undefined_cases_are_nan():
    assert math.isnan(spearman_rank_correlation([1.0, 2.0], [1.0]))
    assert math.isnan(spearman_rank_correlation([1.0], [2.0]))
    assert math.isnan(spearman_rank_correlation([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]))
    assert math.isnan(spearman_rank_correlation([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))
    assert math.isnan(spearman_rank_correlation([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))


def test_spearman_ties_match_counted_ranks():
    """Against ranks counted directly: #smaller + (#equal + 1) / 2."""
    rng = np.random.default_rng(8)

    def ranks(v):
        return np.array([np.sum(v < x) + (np.sum(v == x) + 1) / 2 for x in v])

    for _ in range(200):
        a, b = rng.integers(0, 4, size=(2, int(rng.integers(2, 9)))).astype(float)
        ra, rb = ranks(a), ranks(b)
        got = spearman_rank_correlation(a, b)
        if ra.var() == 0.0 or rb.var() == 0.0:
            assert math.isnan(got)
        else:
            want = ((ra - ra.mean()) * (rb - rb.mean())).mean() / math.sqrt(ra.var() * rb.var())
            assert abs(got - want) <= 1e-12


def test_spearman_monotone_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.normal(size=8)
        while len(set(x)) < len(x):
            x = rng.normal(size=8)
        assert spearman_rank_correlation(x, np.exp(x)) == pytest.approx(1.0)
        assert spearman_rank_correlation(x, -np.exp(x)) == pytest.approx(-1.0)


def test_selection_frequency_all_layers():
    decs = [decision([1, 1], first_sample=True)] + [decision([1, 1])] * 7
    rec = record_from([[True]] * 8, decs)
    assert selection_frequency(rec) == {"G0": 1.0, "G1": 1.0}


def test_selection_frequency_all_skipped():
    decs = [decision([0, 0])] * 5
    rec = record_from([[True]] * 5, decs)
    assert selection_frequency(rec) == {"G0": 0.0, "G1": 0.0}


def test_selection_frequency_counts_skips_in_denominator():
    decs = [decision([1, 1], first_sample=True),
            decision([1, 0]), decision([0, 0]), decision([1, 0]),
            decision([0, 1])]
    rec = record_from([[True]] * 5, decs)
    freqs = selection_frequency(rec)
    assert freqs == {"G0": 0.5, "G1": 0.25}
    assert sum(freqs.values()) <= 1.0 + 1e-12


def test_selection_frequency_only_first_samples():
    decs = [decision([1, 1], first_sample=True)] * 3
    rec = record_from([[True]] * 3, decs)
    assert selection_frequency(rec) == {"G0": 0.0, "G1": 0.0}


def test_geometry_grid_perfect_alignment_row():
    grid = geometry_grid([0.5, 1.0, 7.0], [0.1, 1.0], [0.0])
    assert np.allclose(grid[:, :, 0], 1.0)


def test_geometry_grid_displacement_dominates():
    grid = geometry_grid([100.0], [0.01], [math.pi / 3])
    assert abs(grid[0, 0, 0] - 0.5) < 1e-3


def test_geometry_grid_update_dominates_despite_misalignment():
    # (0.01*(-1) + 100)/sqrt((0.01 - 100)^2) = 1: opposite-direction
    # displacement still yields the maximal criterion value
    grid = geometry_grid([0.01], [100.0], [math.pi])
    assert grid[0, 0, 0] == pytest.approx(1.0, abs=1e-9)


def test_geometry_grid_monotone_in_displacement():
    """For any fixed obtuse angle the criterion falls as the displacement
    grows against a unit update, crossing thresholds from above."""
    t_axis = np.linspace(0.01, 30.0, 120)
    grid = geometry_grid(t_axis, [1.0], [2.0])
    row = grid[:, 0, 0]
    assert np.all(np.diff(row) < 0)
    assert row[0] > 0.75 > row[-1]


def test_geometry_grid_undefined_cells_are_nan():
    grid = geometry_grid([0.0], [0.0], [1.0])
    assert math.isnan(grid[0, 0, 0])


def test_geometry_grid_rejects_empty_axis():
    with pytest.raises(ConfigurationError):
        geometry_grid([], [1.0], [1.0])


def test_export_geometry_grid_round_trip(tmp_path):
    path = tmp_path / "grid.tsv"
    t_axis, u_axis, b_axis = [0.0, 0.5, 2.0], [0.5, 1.0], [0.0, 2.0, math.pi]
    grid = export_geometry_grid(path, t_axis, u_axis, b_axis)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split("\t") == ["td_norm", "u_norm", "beta", "cos"]
    assert len(lines) == 1 + grid.size
    back = np.array([float(l.split("\t")[3]) for l in lines[1:]]).reshape(grid.shape)
    assert np.array_equal(np.isnan(back), np.isnan(grid))
    assert np.allclose(back[~np.isnan(grid)], grid[~np.isnan(grid)], rtol=0, atol=0)


def gala_run_with_resets(seed=5):
    spec = TaskSpec(num_classes=3, input_dim=2, samples_per_domain=150, seed=seed)
    data = generate_task(spec)
    specs = [LayerSpec("dense", 2, 8, "relu"), LayerSpec("dense", 8, 3)]
    pre = pretrain_erm(specs, minibatches(data.train, 20, 300, seed=seed),
                       data.source_holdout, OptimizerConfig(0.1), seed=seed)
    net = Network(specs)
    stream = build_stream(spec, [ShiftSpec("rotation", 2)], batch_size=10, seed=seed)
    cfg = GalaConfig(threshold=0.5, window_size=3, granularity="single_layer",
                     warmup_len=2)
    return net, pre, data, stream, run_gala(net, pre.params, stream,
                                            LossKind("pseudo_label"),
                                            OptimizerConfig(0.1), cfg)


def test_trace_round_trip(tmp_path):
    """parse_trace gives back the record's group names and decisions:
    cosines and masks bit for bit, warm-up, reset and first sample."""
    net, pre, data, stream, rec = gala_run_with_resets()
    path = tmp_path / "trace.tsv"
    write_trace(path, rec)
    groups, decisions = parse_trace(path)
    assert groups == rec.group_names
    assert len(decisions) == rec.num_steps
    for got, want in zip(decisions, rec.decisions):
        assert got.cosines.tobytes() == want.cosines.tobytes()
        assert got.mask.tobytes() == want.mask.tobytes()
        assert ((got.first_sample, got.warmup, got.reset, got.skipped)
                == (want.first_sample, want.warmup, want.reset, want.skipped))


def test_trace_derives_first_sample_after_resets(tmp_path):
    """Window size 3 resets at steps 3, 6, ... so steps 1, 4, 7 start
    fresh windows."""
    net, pre, data, stream, rec = gala_run_with_resets()
    path = tmp_path / "trace.tsv"
    write_trace(path, rec)
    _, decisions = parse_trace(path)
    steps = range(1, len(decisions) + 1)
    assert [s for s, d in zip(steps, decisions) if d.reset] == [s for s in steps if s % 3 == 0]
    assert [s for s, d in zip(steps, decisions) if d.first_sample] == [
        s for s in steps if s % 3 == 1]


def test_parse_trace_rejects_other_files(tmp_path):
    p = tmp_path / "other.tsv"
    p.write_text("a\tb\n1\t2\n")
    with pytest.raises(ConfigurationError):
        parse_trace(p)
    with pytest.raises(ConfigurationError, match="missing.tsv"):
        parse_trace(tmp_path / "missing.tsv")


_TRACE_HEADER = "step\tskipped\twarmup_scale\treset\tcos:L0\tmask:L0"
_TRACE_ROW = ["1", "0", "1.0", "0", "0.5", "1"]
_NEXT_ROW = ["2", "0", "1.0", "0", "0.5", "1"]


@pytest.mark.parametrize("column,cell", [
    (0, "x"),  # step: an integer
    (0, "3"),  # step: the row's number
    (1, "no"),  # skipped: an integer flag
    (1, "1"),  # skipped: what the mask says
    (2, "1,5"),  # warmup_scale: a float
    (3, "0.5"),  # reset: an integer flag
    (4, "cos"),  # a group's cosine: a float
    (5, ""),  # a group's mask: an integer
    (6, None),  # a row short of the header's columns
], ids=["step", "step_number", "skipped", "skipped_vs_mask", "warmup_scale", "reset", "cosine",
        "mask", "short_row"])
def test_parse_trace_malformed_row_names_path_and_line(tmp_path, column, cell):
    """A bad cell of any kind raises a ConfigurationError naming the trace
    and the line of the row, not a raw ValueError."""
    bad = list(_NEXT_ROW)
    if cell is None:
        bad.pop()
    else:
        bad[column] = cell
    path = tmp_path / "trace.tsv"
    path.write_text("\n".join([_TRACE_HEADER, "\t".join(_TRACE_ROW), "\t".join(bad)]) + "\n")
    with pytest.raises(ConfigurationError, match=re.escape(f"trace {path} line 3 is malformed")):
        parse_trace(path)
    path.write_text("\n".join([_TRACE_HEADER, "\t".join(_TRACE_ROW)]) + "\n")
    assert parse_trace(path)[1][0].mask.tolist() == [1]


def test_summary_round_trip(tmp_path):
    summary = MetricsSummary(tta_acc=87.5, generalization=90.0, forgetting=-1.25,
                             selection_frequency={"G0": 0.5, "G1": 0.25})
    path = tmp_path / "summary.json"
    write_summary(path, summary, fingerprint="ab" * 8, seed=3)
    back, payload = parse_summary(path)
    assert back == summary
    assert payload["format_version"] == 2
    assert payload["config_fingerprint"] == "ab" * 8
    assert payload["seed"] == 3
    assert set(payload) == {"format", "format_version", "config_fingerprint", "seed", "metrics"}
    assert set(payload["metrics"]) == {"tta_acc", "generalization", "forgetting",
                                       "selection_frequency"}


def test_parse_summary_reads_version_1(tmp_path):
    """A version 1 summary, with its rank_correlation and extra keys, still
    parses, so ``gala report`` works on runs written before version 2."""
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({
        "format": "gala-run-summary", "format_version": 1,
        "config_fingerprint": "61fd84317263d053", "seed": 0,
        "metrics": {"tta_acc": 87.5, "generalization": 90.0, "forgetting": -1.25,
                    "rank_correlation": None, "selection_frequency": {"L0_dense": 0.5}},
        "extra": {}}))
    back, _ = parse_summary(path)
    assert back == MetricsSummary(tta_acc=87.5, generalization=90.0, forgetting=-1.25,
                                  selection_frequency={"L0_dense": 0.5})


def test_parse_summary_rejects_other_files(tmp_path):
    p = tmp_path / "foreign.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(ConfigurationError):
        parse_summary(p)
    with pytest.raises(ConfigurationError, match="nope.json"):
        parse_summary(tmp_path / "nope.json")


def test_summarize_composes_on_control_run():
    net, pre, data, stream = control_setup()
    rec = run_baseline(net, pre.params, stream, SelectorKind("erm"),
                       LossKind("pseudo_label"), OptimizerConfig(0.1),
                       granularity="single_layer")
    summary = summarize(net, pre.params, rec, stream.target_holdout,
                        data.source_holdout)
    assert summary.tta_acc == tta_accuracy(rec)
    assert summary.generalization == generalization(net, rec.final_params,
                                                    stream.target_holdout)
    assert summary.forgetting == 0.0
    assert set(summary.selection_frequency) == set(rec.group_names)


def test_aggregate_csv_appends_mean_and_std(tmp_path):
    rows = [{"seed": 0, "tta_acc": 80.0, "forgetting": 1.0},
            {"seed": 1, "tta_acc": 90.0, "forgetting": 3.0}]
    path = tmp_path / "agg.csv"
    write_aggregate_csv(path, rows)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == 4
    assert got[2]["seed"] == "mean"
    assert float(got[2]["tta_acc"]) == 85.0
    assert float(got[2]["forgetting"]) == 2.0
    assert got[3]["seed"] == "std"
    assert float(got[3]["tta_acc"]) == 5.0
    assert float(got[3]["forgetting"]) == 1.0


def test_aggregate_csv_rejects_empty():
    with pytest.raises(ConfigurationError):
        write_aggregate_csv("/tmp/never-written.csv", [])


def test_config_fingerprint_stable_and_distinct():
    a = config_fingerprint({"lr": 0.1, "threshold": 0.75})
    b = config_fingerprint({"threshold": 0.75, "lr": 0.1})
    c = config_fingerprint({"lr": 0.2, "threshold": 0.75})
    assert a == b
    assert a != c
    assert len(a) == 16 and all(ch in "0123456789abcdef" for ch in a)


def test_run_record_length_validation():
    with pytest.raises(ConfigurationError, match="losses"):
        RunRecord(["G0"], [np.array([True])], [decision([1])], [], tiny_params())


def test_metrics_summary_range_validation():
    with pytest.raises(ConfigurationError):
        MetricsSummary(tta_acc=101.0, generalization=50.0, forgetting=0.0)
    with pytest.raises(ConfigurationError):
        MetricsSummary(tta_acc=50.0, generalization=50.0, forgetting=0.0,
                       selection_frequency={"G0": 1.5})
