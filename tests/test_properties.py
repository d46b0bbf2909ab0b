"""Randomized invariant checks for the selection machinery.

Each property runs over at least a thousand seeded random cases; the
generators avoid the documented undefined regions (norms near the
epsilon guard) except where a case deliberately probes them.
"""

import math

import numpy as np

from gala import (
    Batch,
    GalaConfig,
    GalaPolicy,
    LayerSpec,
    LossKind,
    Network,
    OptimizerConfig,
    build_grouping,
    cosine_alignment,
)
from helpers import decide, single_step

EPS = 1e-12


def test_cosine_scale_invariance_thousand_cases():
    """Scaling the update and displacement together never moves the
    criterion by more than 1e-9."""
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 21))
        u = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        td = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        # near-cancelling u + td amplifies rounding beyond the tolerance
        if np.linalg.norm(u) < 1e-6:
            continue
        if np.linalg.norm(u + td) < 1e-3 * (np.linalg.norm(u) + np.linalg.norm(td)):
            continue
        base = cosine_alignment(u, td, EPS)
        scale = 10.0 ** rng.uniform(-5, 5)
        scaled = cosine_alignment(scale * u, scale * td, EPS)
        assert abs(base - scaled) <= 1e-9
        checked += 1
    assert checked == 1000


def _random_geometry(rng):
    """A synthetic multi-group selection state with known displacements,
    one layer per group."""
    k = int(rng.integers(2, 7))
    dims = [int(rng.integers(1, 6)) for _ in range(k)]
    anchor_groups = [rng.normal(size=d) for d in dims]
    tds = [rng.normal(size=d) * 10.0 ** rng.uniform(-2, 2) for d in dims]
    us = []
    for d in dims:
        if rng.random() < 0.1:
            us.append(np.zeros(d))  # degenerate: undefined cosine
        else:
            us.append(rng.normal(size=d) * 10.0 ** rng.uniform(-2, 2))
    live = [a + t for a, t in zip(anchor_groups, tds)]
    return us, live, anchor_groups, [[i] for i in range(k)]


def test_mask_exclusivity_thousand_cases():
    """Argmax granularities select at most one group; the multi-layer
    mask is exactly the set of defined cosines above threshold."""
    rng = np.random.default_rng(202)
    for _ in range(1000):
        proposal, live, anchor, members = _random_geometry(rng)
        lam = float(rng.uniform(-1, 1))
        pick = rng.random()
        granularity = ("single_layer" if pick < 0.4 else
                       "block" if pick < 0.7 else "multi_layer")
        cfg = GalaConfig(threshold=lam, granularity=granularity,
                         warmup_len=0)
        d = decide(proposal, live, anchor, members, False, cfg)
        assert not d.first_sample
        defined = ~np.isnan(d.cosines)
        assert not d.mask[~defined].any()
        if granularity == "multi_layer":
            expect = defined & (d.cosines > lam)
            assert np.array_equal(d.mask.astype(bool), expect)
            assert d.skipped == (not expect.any())
        else:
            assert d.mask.sum() <= 1
            assert d.skipped == (d.mask.sum() == 0)
            if not d.skipped:
                chosen = int(np.argmax(d.mask))
                assert d.cosines[chosen] > lam
                assert d.cosines[chosen] == np.nanmax(d.cosines)


def test_selection_monotone_in_threshold_thousand_cases():
    """Raising the threshold never adds a selected group, and a skip at a
    low threshold stays a skip at any higher one."""
    rng = np.random.default_rng(303)
    for _ in range(1000):
        proposal, live, anchor, members = _random_geometry(rng)
        lo, hi = sorted(rng.uniform(-1, 1, size=2))
        granularity = "multi_layer" if rng.random() < 0.5 else "single_layer"
        base = dict(granularity=granularity, warmup_len=0)
        d_lo = decide(proposal, live, anchor, members, False, GalaConfig(threshold=lo, **base))
        d_hi = decide(proposal, live, anchor, members, False, GalaConfig(threshold=hi, **base))
        assert np.all(d_lo.mask >= d_hi.mask)
        if d_lo.skipped:
            assert d_hi.skipped


def _random_net(rng):
    hidden = int(rng.integers(2, 7))
    din = int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    act = ["tanh", "relu", "identity"][int(rng.integers(3))]
    specs = [LayerSpec("dense", din, hidden, act),
             LayerSpec("dense", hidden, k)]
    return Network(specs), din, k


def _random_loss(rng, k):
    variant = ["cross_entropy", "pseudo_label", "shot_im"][int(rng.integers(3))]
    return LossKind(variant)


def test_anchor_and_displacement_consistency_thousand_steps():
    """Across 200 random runs of 5 steps: the anchor a step compares
    against always equals the parameters after the most recent reset
    step (the initial ones before any), displacement is
    live-minus-anchor, and every reported cosine is reproducible from
    those quantities to 1e-9."""
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(200):
        net, din, k = _random_net(rng)
        loss = _random_loss(rng, k)
        window = [2, 3, math.inf][int(rng.integers(3))]
        cfg = GalaConfig(threshold=float(rng.uniform(-1, 1)),
                         window_size=window, granularity="single_layer",
                         warmup_len=2)
        grouping = build_grouping(net.layer_names,
                                  [s.param_count for s in net.specs],
                                  "single_layer")
        params = net.init_params(seed=int(rng.integers(1 << 16)))
        policy = GalaPolicy(cfg, grouping)
        snapshot = [v.copy() for v in params.layers]
        opt = OptimizerConfig(10.0 ** rng.uniform(-2, 0))
        expect_first = True
        for _step in range(5):
            n = int(rng.integers(1, 6))
            batch = Batch(rng.normal(size=(n, din)),
                          rng.integers(k, size=n) if loss.supervised else None)
            pre_params = params.copy()
            _, grads, _, _ = net.loss_and_gradients(pre_params, batch, loss)
            expect_u = [-opt.learning_rate * g for g in grads]
            res = single_step(net, params, batch, loss, opt, policy)
            assert res.decision.first_sample == expect_first
            # single_layer: group gi is layer gi
            tds = [g - s for g, s in zip(pre_params.layers, snapshot)]
            for gi in range(grouping.num_groups):
                if not res.decision.first_sample:
                    want = cosine_alignment(expect_u[gi], tds[gi], cfg.epsilon)
                    got = res.decision.cosines[gi]
                    if math.isnan(want):
                        assert math.isnan(got)
                    else:
                        assert abs(got - want) <= 1e-9
                checked += 1
            for a, s in zip(policy.anchor, snapshot):
                assert np.array_equal(a, s)
            if res.decision.reset:
                snapshot = [v.copy() for v in res.params.layers]
            params = res.params
            expect_first = res.decision.reset
    assert checked >= 1000


def test_trajectory_determinism_thousand_steps():
    """200 random configurations, replayed twice for 5 steps each: the
    two trajectories agree bit for bit."""
    rng = np.random.default_rng(505)
    compared = 0
    for _ in range(200):
        net, din, k = _random_net(rng)
        loss = _random_loss(rng, k)
        granularity = ["single_layer", "multi_layer"][int(rng.integers(2))]
        cfg = GalaConfig(threshold=float(rng.uniform(-1, 1)),
                         window_size=[3, math.inf][int(rng.integers(2))],
                         granularity=granularity,
                         warmup_len=int(rng.integers(0, 4)))
        grouping = build_grouping(net.layer_names,
                                  [s.param_count for s in net.specs],
                                  granularity)
        init = net.init_params(seed=int(rng.integers(1 << 16)))
        opt = OptimizerConfig(10.0 ** rng.uniform(-2, 0))
        batches = []
        for _step in range(5):
            n = int(rng.integers(1, 6))
            batches.append(Batch(rng.normal(size=(n, din)),
                                 rng.integers(k, size=n) if loss.supervised
                                 else None))

        def replay():
            params, policy = init.copy(), GalaPolicy(cfg, grouping)
            out = []
            for b in batches:
                res = single_step(net, params, b, loss, opt, policy)
                params = res.params
                out.append(res)
            return out

        for ra, rb in zip(replay(), replay()):
            for la, lb in zip(ra.params.layers, rb.params.layers):
                assert np.array_equal(la, lb)
            assert np.array_equal(ra.decision.mask, rb.decision.mask)
            cos_a, cos_b = ra.decision.cosines, rb.decision.cosines
            assert np.array_equal(np.isnan(cos_a), np.isnan(cos_b))
            assert np.array_equal(cos_a[~np.isnan(cos_a)], cos_b[~np.isnan(cos_b)])
            assert ra.loss == rb.loss
            compared += 1
    assert compared >= 1000
