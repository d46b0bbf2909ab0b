"""Release gate: ten end-to-end checks over the whole package.

Each test prints exactly one ``[criterion NN] PASS/FAIL`` line with
capture suspended so the verdicts stay visible in any pytest
invocation. Scenario constants live in ``scenarios``; the randomized
invariant suites are shared with ``test_properties``.
"""

import math
import time

import numpy as np
import pytest

import scenarios
import test_properties as properties
from helpers import finite_difference_grads, gradient_relative_error, random_small_net

from gala import (
    Batch,
    GalaConfig,
    LayerSpec,
    LossKind,
    Network,
    OptimizerConfig,
    SelectorKind,
    ShiftSpec,
    TaskSpec,
    build_grouping,
    build_stream,
    cosine_alignment,
    cosine_via_decomposition,
    forgetting,
    generate_task,
    minibatches,
    oracle_sweep,
    pretrain_erm,
    run_baseline,
    run_gala,
    selection_frequency,
    spearman_rank_correlation,
    tta_accuracy,
    vector_angle,
)


@pytest.fixture
def verdict(capsys):
    """Report one criterion outcome on the live terminal, then assert it."""
    def _report(num: int, passed: bool, detail: str):
        tag = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {tag}: {detail}", flush=True)
        assert passed, f"criterion {num:02d}: {detail}"
    return _report


def test_criterion_01_cosine_routes_agree(verdict):
    """Direct vector cosine vs the norm-angle decomposition, 100k pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    total = 0
    ok = True
    for dim, count in ((2, 45_000), (10, 45_000), (10_000, 10_000)):
        done = 0
        while done < count:
            m = min(1000, count - done)
            us = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-2, 2, size=(m, 1))
            tds = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-2, 2, size=(m, 1))
            for u, td in zip(us, tds):
                direct = cosine_alignment(u, td, 1e-12)
                via = cosine_via_decomposition(
                    float(np.linalg.norm(td)), float(np.linalg.norm(u)),
                    vector_angle(u, td))
                if math.isnan(direct) or math.isnan(via):
                    ok = ok and math.isnan(direct) and math.isnan(via)
                else:
                    dev = abs(direct - via)
                    worst = max(worst, dev)
                    ok = ok and dev <= 1e-9 * max(1.0, abs(direct), abs(via))
                total += 1
            done += m
    elapsed = time.perf_counter() - start
    ok = ok and total == 100_000 and elapsed < 30.0
    verdict(1, ok, f"max deviation {worst:.2e} over {total} pairs "
                   f"in dims 2/10/10000 ({elapsed:.1f} s)")


def test_criterion_02_analytic_gradients_match_finite_differences(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    losses = [LossKind("cross_entropy"), LossKind("pseudo_label"), LossKind("shot_im")]
    worst = 0.0
    ok = True
    for _ in range(100):
        net, params, batch = random_small_net(rng)
        ok = ok and params.total_count <= 2000
        k = net.specs[-1].output_dim
        n = batch.inputs.shape[0]
        for loss in losses:
            b = (Batch(batch.inputs, rng.integers(k, size=n))
                 if loss.supervised else Batch(batch.inputs))
            _, analytic, _, _ = net.loss_and_gradients(params, b, loss)
            numeric = finite_difference_grads(net, params, b, loss)
            rel = gradient_relative_error(analytic, numeric)
            worst = max(worst, rel)
            ok = ok and rel < 1e-4
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    verdict(2, ok, f"worst relative error {worst:.2e} over 100 nets x 3 losses "
                   f"({elapsed:.1f} s)")


def test_criterion_03_threshold_minus_one_is_plain_sgd(verdict):
    """threshold -1, no warm-up, no resets, multi-layer: bit-identical to
    the always-update baseline, and both to a plain SGD loop written here,
    across 10 stream seeds."""
    task = TaskSpec(num_classes=3, input_dim=2, samples_per_domain=150, seed=5)
    data = generate_task(task)
    specs = [LayerSpec("dense", 2, 8, "relu"), LayerSpec("dense", 8, 3)]
    pre = pretrain_erm(specs, minibatches(data.train, 20, 300, seed=1),
                       data.source_holdout, OptimizerConfig(0.1), seed=1)
    net = Network(specs)
    loss = LossKind("pseudo_label")
    opt = OptimizerConfig(0.05)
    cfg = GalaConfig(threshold=-1.0, window_size=math.inf,
                     granularity="multi_layer", warmup_len=0)
    ok = True
    for seed in range(10):
        stream = build_stream(task, [ShiftSpec("rotation", 2, {"angle_deg": 30.0})],
                              mode="single", batch_size=10, seed=seed)
        a = run_baseline(net, pre.params, stream, SelectorKind("all_layers"), loss,
                         opt, granularity="multi_layer", seed=seed)
        g = run_gala(net, pre.params, stream, loss, opt, cfg, seed=seed)
        for la, lb in zip(a.final_params.layers, g.final_params.layers):
            ok = ok and np.array_equal(la, lb)
        ok = ok and all(np.array_equal(da.mask, dg.mask)
                        for da, dg in zip(a.decisions, g.decisions))
        ok = ok and np.array_equal(np.concatenate(a.correct),
                                   np.concatenate(g.correct))
        # an independent plain-SGD loop, sharing only the network's gradients
        sgd = pre.params.copy()
        sgd_correct = []
        for batch in stream.adapt_batches:
            inputs = Batch(batch.inputs)
            _, grads, _, _ = net.loss_and_gradients(sgd, inputs, loss)
            for vec, grad in zip(sgd.layers, grads):
                vec -= opt.learning_rate * grad
            sgd_correct.append(np.argmax(net.forward(sgd, inputs), axis=1) == batch.labels)
        for la, lb in zip(a.final_params.layers, sgd.layers):
            ok = ok and np.array_equal(la, lb)
        ok = ok and np.array_equal(np.concatenate(a.correct), np.concatenate(sgd_correct))
    verdict(3, ok, "degenerate configuration and all-layers SGD reproduce a plain "
                   "SGD loop bit for bit on 10 stream seeds")


@pytest.fixture(scope="module")
def collapse_runs():
    start = time.perf_counter()
    recs = {m: [scenarios.run_collapse(m, s) for s in range(10)]
            for m in ("erm", "all_layers", "gala")}
    return recs, time.perf_counter() - start


def test_criterion_04_aligned_selection_survives_collapse(collapse_runs, verdict):
    recs, elapsed = collapse_runs
    med = {m: float(np.median([tta_accuracy(r) for r in rs]))
           for m, rs in recs.items()}
    ok = (med["all_layers"] <= med["erm"] - 20.0
          and med["gala"] >= med["erm"] - 5.0
          and elapsed < 600.0)
    verdict(4, ok, f"median stream accuracy erm {med['erm']:.1f} "
                   f"all-layers {med['all_layers']:.1f} gala {med['gala']:.1f} "
                   f"({elapsed:.0f} s)")


def test_criterion_05_aligned_selection_limits_forgetting(collapse_runs, verdict):
    recs, _ = collapse_runs
    net, pre_params, data = scenarios.collapse_setup()
    fmed = {m: float(np.median([
        forgetting(net, pre_params, r.final_params, data.source_holdout)
        for r in recs[m]])) for m in ("all_layers", "gala")}
    ok = fmed["gala"] < fmed["all_layers"]
    verdict(5, ok, f"median forgetting gala {fmed['gala']:.1f} < "
                   f"all-layers {fmed['all_layers']:.1f}")


def test_criterion_06_rank_correlation_fixtures(verdict):
    cases = [
        ([3.0, 1.0, 4.0, 1.5], [3.0, 1.0, 4.0, 1.5], 1.0),
        ([5.0, 2.0, 9.0, 1.0], [-5.0, -2.0, -9.0, -1.0], -1.0),
        ([1, 2, 3, 4], [2, 1, 4, 3], 0.6),
        ([1, 2, 3, 4], [1, 3, 2, 4], 0.8),
        ([1.0, 1.0, 2.0], [1.0, 2.0, 3.0], math.sqrt(3) / 2),
        ([1.0, 1.0, 2.0, 3.0], [2.0, 2.0, 1.0, 1.0], -2.0 * math.sqrt(2) / 3),
        ([1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 1.0, 2.0], 0.0),
    ]
    worst = 0.0
    ok = True
    for a, b, want in cases:
        got = spearman_rank_correlation(a, b)
        worst = max(worst, abs(got - want))
        ok = ok and abs(got - want) <= 1e-12
    verdict(6, ok, f"{len(cases)} fixtures (3 with ties) exact to 1e-12, "
                   f"worst deviation {worst:.1e}")


def test_criterion_07_selection_frequency_tracks_oracle_ranking(verdict):
    net, params, _ = scenarios.oracle_setup()
    grouping = build_grouping(net.layer_names,
                              [s.param_count for s in net.specs], "single_layer")
    opt = OptimizerConfig(scenarios.ORACLE_LR)
    gala_corr, rand_corr = [], []
    for seed in range(10):
        stream = scenarios.oracle_stream(seed)
        sweep = oracle_sweep(net, params, stream, scenarios.PL, opt, grouping)
        grec = run_gala(net, params, stream, scenarios.PL, opt, GalaConfig())
        gf = selection_frequency(grec)
        gala_corr.append(spearman_rank_correlation(
            sweep.accuracies, [gf[x] for x in sweep.group_names]))
        rrec = run_baseline(net, params, stream,
                            SelectorKind("random_block", rng_seed=seed),
                            scenarios.PL, opt, granularity="single_layer",
                            seed=seed)
        rf = selection_frequency(rrec)
        rand_corr.append(spearman_rank_correlation(
            sweep.accuracies, [rf[x] for x in sweep.group_names]))
    gm = float(np.nanmean(gala_corr))
    rm = float(np.nanmean(rand_corr))
    ok = gm > rm
    verdict(7, ok, f"mean rank correlation with oracle sweep: gala {gm:.3f} "
                   f"vs random {rm:.3f}, 10 seeds")


def test_criterion_08_resets_help_when_shift_reverses(verdict):
    windowed = float(np.mean([tta_accuracy(scenarios.run_reset(20, s))
                              for s in range(10)]))
    unbounded = float(np.mean([tta_accuracy(scenarios.run_reset(math.inf, s))
                               for s in range(10)]))
    ok = windowed >= unbounded
    verdict(8, ok, f"mean stream accuracy window=20 {windowed:.1f} >= "
                   f"window=inf {unbounded:.1f} on a reversing stream")


def test_criterion_09_single_sample_batches_survive(collapse_runs, verdict):
    del collapse_runs  # ordering only: reuse the warm pretrain cache
    meds = {}
    for m in ("all_layers", "gala"):
        meds[m] = float(np.median([
            tta_accuracy(scenarios.run_collapse(m, s, batch_size=1))
            for s in range(10)]))
    gap = meds["gala"] - meds["all_layers"]
    ok = gap >= 10.0
    verdict(9, ok, f"batch size 1 median accuracy gala {meds['gala']:.1f} vs "
                   f"all-layers {meds['all_layers']:.1f} (gap {gap:+.1f})")


def test_criterion_10_randomized_invariants_hold(verdict):
    suites = [
        properties.test_cosine_scale_invariance_thousand_cases,
        properties.test_mask_exclusivity_thousand_cases,
        properties.test_selection_monotone_in_threshold_thousand_cases,
        properties.test_anchor_and_displacement_consistency_thousand_steps,
        properties.test_trajectory_determinism_thousand_steps,
    ]
    failed = []
    for suite in suites:
        try:
            suite()
        except AssertionError:
            failed.append(suite.__name__)
    ok = not failed
    detail = ("five invariant suites, >= 1000 random cases each"
              if ok else f"failing suites: {', '.join(failed)}")
    verdict(10, ok, detail)
