import math

import numpy as np
import pytest

import gala.nn
import scenarios
from gala import (
    Batch,
    ConfigurationError,
    GalaConfig,
    LayerSpec,
    LossKind,
    ModelParameters,
    Network,
    OptimizerConfig,
    GalaPolicy,
    ParameterGrouping,
    SelectionDecision,
    SelectorKind,
    baseline_policy,
    build_grouping,
    build_stream,
    cosine_alignment,
    cosine_via_decomposition,
    decide,
    vector_angle,
)
from gala.engine import DOT_CHUNK, group_dot
from helpers import counted_kernels, single_step

EPS = 1e-12


def forced_cosine_group(c):
    """Return (u, td) in the plane with cosine_alignment(u, td) == c."""
    u = np.array([1.0, 0.0])
    td = np.array([c - 1.0, math.sqrt(max(0.0, 1.0 - c * c))])
    return u, td


def test_cosine_alignment_exact_values():
    assert cosine_alignment(np.array([1.0, 0.0]), np.array([0.0, 0.0]), EPS) == 1.0
    c = cosine_alignment(np.array([1.0, 0.0]), np.array([0.0, 1.0]), EPS)
    assert abs(c - 1.0 / math.sqrt(2.0)) < 1e-9
    assert round(c, 5) == 0.70711
    c = cosine_alignment(np.array([2.0, 0.0]), np.array([0.0, 1.0]), EPS)
    assert abs(c - 2.0 / math.sqrt(5.0)) < 1e-9
    assert round(c, 5) == 0.89443
    assert math.isnan(cosine_alignment(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), EPS))
    assert math.isnan(cosine_alignment(np.zeros(2), np.array([1.0, 0.0]), EPS))
    assert math.isnan(cosine_alignment(np.zeros(0), np.zeros(0), EPS))


def test_cosine_via_decomposition_values():
    assert abs(cosine_via_decomposition(1.0, 1.0, math.pi / 2) - 1.0 / math.sqrt(2.0)) < 1e-12
    # Vanishing update: criterion reduces to cos(beta).
    for beta in (0.0, 0.3, 1.2, math.pi):
        assert abs(cosine_via_decomposition(2.5, 0.0, beta) - math.cos(beta)) < 1e-12
    assert cosine_via_decomposition(0.0, 3.0, 1.0) == 1.0
    assert math.isnan(cosine_via_decomposition(0.0, 0.0, 0.5))
    # Near-cancellation (T = u, beta ~ pi) approaches the limit value 0;
    # float sin(pi) is not exactly zero so the denominator survives.
    assert abs(cosine_via_decomposition(1.0, 1.0, math.pi)) < 1e-9


def test_cosine_formulations_agree_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(500):
        dim = int(rng.choice([2, 10, 100]))
        u = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        td = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        direct = cosine_alignment(u, td, EPS)
        decomposed = cosine_via_decomposition(
            float(np.linalg.norm(td)), float(np.linalg.norm(u)), vector_angle(u, td)
        )
        assert abs(direct - decomposed) <= 1e-9 * max(1.0, abs(direct), abs(decomposed))


def test_cosine_scale_invariance_spot():
    rng = np.random.default_rng(9)
    u = rng.normal(size=6)
    td = rng.normal(size=6)
    base = cosine_alignment(u, td, EPS)
    for s in (1e-6, 0.5, 3.0, 1e6):
        assert abs(cosine_alignment(s * u, s * td, EPS) - base) < 1e-12


def decision_for(cosines, cfg, first=False):
    groups = [forced_cosine_group(c) for c in cosines]
    proposal = [u for u, _ in groups]
    live = [td for _, td in groups]
    return decide(proposal, live, [np.zeros(2) for _ in cosines],
                  [[k] for k in range(len(cosines))], first, cfg)


def test_decide_single_layer_argmax():
    d = decision_for([0.9, 0.8, 0.2], GalaConfig(threshold=0.75))
    assert np.array_equal(d.mask, [1, 0, 0])
    assert not d.skipped and not d.first_sample


def test_decide_single_layer_all_below_threshold_skips():
    d = decision_for([0.5, 0.6], GalaConfig(threshold=0.75))
    assert d.skipped
    assert np.array_equal(d.mask, [0, 0])


def test_decide_multi_layer_thresholding():
    d = decision_for([0.9, 0.8, 0.2], GalaConfig(threshold=0.75, granularity="multi_layer"))
    assert np.array_equal(d.mask, [1, 1, 0])


def test_decide_first_sample_selects_everything():
    for gran in ("single_layer", "multi_layer", "block"):
        d = decision_for([0.1, -0.5], GalaConfig(threshold=0.75, granularity=gran), first=True)
        assert d.first_sample
        assert np.array_equal(d.mask, [1, 1])
        assert not d.skipped


def test_decide_argmax_tie_lowest_index():
    d = decision_for([0.9, 0.9, 0.9], GalaConfig(threshold=0.75))
    assert np.array_equal(d.mask, [1, 0, 0])


def test_decide_undefined_cosines_never_selected():
    cfg = GalaConfig(threshold=-1.0, granularity="multi_layer")
    proposal = [np.zeros(2), np.array([1.0, 0.0])]
    live = [np.array([1.0, 1.0]), np.array([0.0, 1.0])]
    d = decide(proposal, live, [np.zeros(2), np.zeros(2)], [[0], [1]], False, cfg)
    assert math.isnan(d.cosines[0]) and not math.isnan(d.cosines[1])
    assert np.array_equal(d.mask, [0, 1])
    all_zero = [np.zeros(2), np.zeros(2)]
    d = decide(all_zero, live, [np.zeros(2), np.zeros(2)], [[0], [1]], False, cfg)
    assert d.skipped


def test_decide_mask_implies_threshold_outside_first_sample():
    rng = np.random.default_rng(13)
    cfg = GalaConfig(threshold=0.4, granularity="multi_layer")
    for _ in range(50):
        cosines = rng.uniform(-1, 1, size=4)
        d = decision_for(list(cosines), cfg)
        for c, m in zip(d.cosines, d.mask):
            if m:
                assert c > cfg.threshold


class FixedScalePolicy:
    """A stub policy that applies the given per-group scales."""

    def __init__(self, grouping, scales):
        self.grouping = grouping
        self.grad_layers = grouping.all_layers
        self.scales = np.asarray(scales, dtype=float)

    def select(self, grads, params, lr):
        mask = (self.scales != 0).astype(np.int64)
        return self.scales, SelectionDecision(np.zeros(mask.size), mask, False)


def test_apply_masked_update_semantics():
    """The step moves each layer of a scaled group by scale * u and hands
    every other layer's array through untouched."""
    net = Network([LayerSpec("dense", 2, 2, "tanh"), LayerSpec("dense", 2, 1)])
    params = net.init_params(15)
    live = params.layers
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs], "single_layer")
    batch, loss, opt = Batch(np.array([[0.3, -0.8]])), LossKind("shot_im"), OptimizerConfig(0.7)
    _, grads, _, _ = net.loss_and_gradients(params, batch, loss)
    u = [-opt.learning_rate * g for g in grads]
    unchanged = single_step(net, params, batch, loss, opt, FixedScalePolicy(grouping, [0, 0]))
    for a, b in zip(unchanged.params.layers, live):
        assert np.array_equal(a, b)
    out = single_step(net, params, batch, loss, opt, FixedScalePolicy(grouping, [1, 0])).params
    assert np.array_equal(out.layers[0], live[0] + u[0])
    assert np.array_equal(out.layers[1], live[1])
    assert np.shares_memory(out.layers[1], live[1])
    halved = single_step(net, params, batch, loss, opt, FixedScalePolicy(grouping, [0.5, 0]))
    assert np.array_equal(halved.params.layers[0], live[0] + 0.5 * u[0])


def _select_steps(cfg, steps):
    """Decisions of ``steps`` selects on a one-layer net whose parameters
    move by one after every step, with the anchor each one compared to."""
    grouping = build_grouping(["L0_dense"], [2], "single_layer")
    policy = GalaPolicy(cfg, grouping)
    live = ModelParameters([np.array([5.0, 6.0])], ["L0_dense"])
    out = []
    for _ in range(steps):
        _, decision = policy.select([np.array([0.5, -0.25])], live, 0.1)
        out.append((decision, policy.anchor[0].copy()))
        live = ModelParameters([live.layers[0] + 1.0], live.layer_names)
    return out


def test_select_window_reset_first_sample_and_warmup():
    """Window 3, warm-up 2, 7 steps: steps 3 and 6 end a window, steps 1,
    4 and 7 start one with warm-up 1/2 then 1, and each window's anchor is
    the parameters after the previous window's last step."""
    steps = _select_steps(GalaConfig(window_size=3, warmup_len=2), 7)
    assert [d.reset for d, _ in steps] == [False, False, True, False, False, True, False]
    assert [d.first_sample for d, _ in steps] == [True, False, False, True, False, False, True]
    assert [d.warmup for d, _ in steps] == [0.5, 1.0, 1.0, 0.5, 1.0, 1.0, 0.5]
    # live moves by one per step from [5, 6]; the anchor is taken at steps 1, 4, 7
    for k, (_, anchor) in enumerate(steps):
        assert np.array_equal(anchor, [5.0 + k // 3 * 3, 6.0 + k // 3 * 3]), k
    endless = _select_steps(GalaConfig(window_size=math.inf, warmup_len=2), 7)
    assert [d.reset for d, _ in endless] == [False] * 7
    assert [d.first_sample for d, _ in endless] == [True] + [False] * 6
    assert [d.warmup for d, _ in endless] == [0.5] + [1.0] * 6
    assert all(np.array_equal(anchor, [5.0, 6.0]) for _, anchor in endless)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        GalaConfig(threshold=1.5)
    with pytest.raises(ConfigurationError):
        GalaConfig(threshold=-1.2)
    GalaConfig(threshold=-1.0)  # degenerate but allowed: selects everything
    with pytest.raises(ConfigurationError):
        GalaConfig(window_size=0)
    with pytest.raises(ConfigurationError):
        GalaConfig(window_size=2.5)
    with pytest.raises(ConfigurationError):
        GalaConfig(granularity="layerwise")
    with pytest.raises(ConfigurationError):
        GalaConfig(warmup_len=-1)
    with pytest.raises(ConfigurationError):
        GalaConfig(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        GalaConfig(num_blocks=0)


def test_build_grouping_modes():
    names = [f"L{i}_dense" for i in range(10)]
    sizes = [3] * 10
    single = build_grouping(names, sizes, "single_layer")
    assert single.names == names
    assert single.members == [[i] for i in range(10)]
    block = build_grouping(names, sizes, "block", num_blocks=4)
    assert block.names == ["B0", "B1", "B2", "B3"]
    assert block.members == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    with pytest.raises(ConfigurationError):
        build_grouping(names[:3], sizes[:3], "block", num_blocks=4)


@pytest.mark.parametrize("num_blocks", [0, -1])
def test_build_grouping_rejects_nonpositive_block_counts(num_blocks):
    with pytest.raises(ConfigurationError, match="blocks"):
        build_grouping(["L0_dense", "L1_dense"], [3, 3], "block", num_blocks=num_blocks)


def test_grouping_partition_validation():
    with pytest.raises(ConfigurationError):
        ParameterGrouping(["a", "b"], [[0], [0]], [2, 2])
    with pytest.raises(ConfigurationError):
        ParameterGrouping(["a"], [[0]], [2, 2])
    with pytest.raises(ConfigurationError):
        ParameterGrouping(["a"], [[0], [1]], [2, 2])


def linear_pair_net():
    net = Network([LayerSpec("dense", 2, 2)])
    params = net.init_params(0)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs], "single_layer")
    return net, params, grouping


def test_gala_step_zero_gradient_skips_after_first_sample():
    # A saturated prediction makes the pseudo-label gradient exactly zero.
    net = Network([LayerSpec("dense", 1, 2)])
    params = ModelParameters([np.array([400.0, -400.0, 0.0, 0.0])], list(net.layer_names))
    grouping = build_grouping(net.layer_names, [4], "single_layer")
    policy = GalaPolicy(GalaConfig(warmup_len=0), grouping)
    opt = OptimizerConfig(0.5)
    batch = Batch(np.array([[1.0]]))
    r1 = single_step(net, params, batch, LossKind("pseudo_label"), opt, policy)
    assert r1.decision.first_sample and not r1.decision.skipped
    assert np.array_equal(r1.params.layers[0], params.layers[0])
    r2 = single_step(net, r1.params, batch, LossKind("pseudo_label"), opt, policy)
    assert math.isnan(r2.decision.cosines[0])
    assert r2.decision.skipped
    assert np.array_equal(r2.params.layers[0], params.layers[0])


def test_gala_step_degenerate_threshold_matches_plain_sgd():
    """threshold -1, multi_layer, no warm-up is bit-identical to SGD."""
    rng = np.random.default_rng(19)
    net = Network([LayerSpec("dense", 3, 8, "tanh"), LayerSpec("normalization", 8, 8),
                   LayerSpec("dense", 8, 3)])
    params = net.init_params(4)
    sgd = params.copy()
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs], "multi_layer")
    cfg = GalaConfig(threshold=-1.0, granularity="multi_layer", warmup_len=0, window_size=5)
    opt = OptimizerConfig(0.05)
    loss = LossKind("pseudo_label")
    policy = GalaPolicy(cfg, grouping)
    for _ in range(12):
        batch = Batch(rng.normal(size=(4, 3)))
        params = single_step(net, params, batch, loss, opt, policy).params
        _, grads, _, _ = net.loss_and_gradients(sgd, batch, loss)
        for vec, g in zip(sgd.layers, grads):
            vec -= opt.learning_rate * g
        for a, b in zip(params.layers, sgd.layers):
            assert np.array_equal(a, b)


def test_gala_step_parallel_updates_give_cosine_one():
    """Same single sample twice: the second proposal is parallel to the
    accumulated displacement, so its cosine is exactly aligned."""
    net, params, grouping = linear_pair_net()
    cfg = GalaConfig(threshold=0.75, warmup_len=0)
    opt = OptimizerConfig(0.1)
    batch = Batch(np.array([[1.0, 2.0]]))
    policy = GalaPolicy(cfg, grouping)
    r1 = single_step(net, params, batch, LossKind("pseudo_label"), opt, policy)
    assert r1.decision.first_sample
    r2 = single_step(net, r1.params, batch, LossKind("pseudo_label"), opt, policy)
    assert abs(r2.decision.cosines[0] - 1.0) < 1e-9
    assert np.array_equal(r2.decision.mask, [1])


def test_gala_step_predictions_use_post_update_parameters():
    net, params, grouping = linear_pair_net()
    cfg = GalaConfig(warmup_len=0)
    opt = OptimizerConfig(1.0)
    batch = Batch(np.array([[0.7, -0.4], [0.1, 0.9]]))
    res = single_step(net, params, batch, LossKind("pseudo_label"), opt,
                      GalaPolicy(cfg, grouping))
    assert np.array_equal(res.probs, net.forward(res.params, batch))
    assert not np.array_equal(res.probs, net.forward(params, batch))


def test_skipped_step_reuses_loss_pass_predictions(monkeypatch):
    """A step that moves no layer reports the loss pass's probabilities,
    bit for bit, and runs no second forward; a step that moves one runs
    exactly one. The step runs the network's internal bodies, so those
    are what is counted: the loss pass and the restarted forward."""
    net, params, _ = scenarios.collapse_setup()
    stream = build_stream(scenarios.COLLAPSE_TASK, scenarios.COLLAPSE_SHIFTS,
                          mode="continual", batch_size=1, seed=0)
    loss_pass, restart, forward = Network._loss_pass, Network._restart, Network.forward
    loss_probs, forward_calls = [], []

    def counted_loss_pass(self, *args, **kwargs):
        out = loss_pass(self, *args, **kwargs)
        loss_probs.append(out[2][0].copy())
        return out

    def counted_restart(self, *args, **kwargs):
        forward_calls.append(1)
        return restart(self, *args, **kwargs)

    monkeypatch.setattr(Network, "_loss_pass", counted_loss_pass)
    monkeypatch.setattr(Network, "_restart", counted_restart)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs], "single_layer")
    policy = GalaPolicy(GalaConfig(), grouping)
    opt = OptimizerConfig(scenarios.COLLAPSE_LR)
    moved_steps = skipped_steps = 0
    for step in stream.adapt_batches:
        batch = Batch(step.inputs)
        calls_before = len(forward_calls)
        res = single_step(net, params, batch, scenarios.PL, opt, policy)
        moved = any(not np.shares_memory(new, old)
                    for new, old in zip(res.params.layers, params.layers))
        assert len(forward_calls) - calls_before == int(moved)
        if moved:
            moved_steps += 1
        else:
            skipped_steps += 1
            assert res.probs.tobytes() == loss_probs[-1].tobytes()
            assert res.probs.tobytes() == forward(net, params, batch).tobytes()
        params = res.params
    assert moved_steps > 0 and skipped_steps > 0



def _reference_step(net, params, batch, loss, opt, policy):
    """The step with nothing skipped: a full loss pass and backward, and
    a full forward after any move."""
    value, grads, probs, _ = net.loss_and_gradients(params, batch, loss)
    scales, decision = policy.select(grads, params, opt.learning_rate)
    layers = list(params.layers)
    for members, s in zip(policy.grouping.members, scales):
        if s:
            for i in members:
                layers[i] = layers[i] + s * (-opt.learning_rate * grads[i])
    new_params = ModelParameters(layers, params.layer_names)
    if any(scales):
        probs = net.forward(new_params, batch)
    return new_params, decision, probs, value


def _collapse_policies(net, params):
    sizes = [s.param_count for s in net.specs]
    single = build_grouping(net.layer_names, sizes, "single_layer")
    block = build_grouping(net.layer_names, sizes, "block", num_blocks=2)
    policies = {
        "gala_single": lambda: GalaPolicy(GalaConfig(), single),
        "gala_block": lambda: GalaPolicy(GalaConfig(granularity="block", num_blocks=2), block),
        "auto_rgn": lambda: baseline_policy(SelectorKind("auto_rgn"), single),
    }
    for variant in ("erm", "all_layers", "random_block"):
        policies[variant] = lambda v=variant: baseline_policy(SelectorKind(v, rng_seed=3), single)
    for name in single.names:
        policies[f"oracle_{name}"] = lambda g=name: baseline_policy(
            SelectorKind("oracle_best", fixed_group=g), single)
    return policies


@pytest.mark.parametrize("batch_size", [1, 4])
def test_adapt_step_matches_full_passes_reference(batch_size):
    """Every field of every step equals a reference loop that runs the full
    backward and a full forward after any move, for every selector."""
    net, params, _ = scenarios.collapse_setup()
    stream = build_stream(scenarios.COLLAPSE_TASK, scenarios.COLLAPSE_SHIFTS,
                          mode="continual", batch_size=batch_size, seed=2)
    opt = OptimizerConfig(scenarios.COLLAPSE_LR)
    for name, make in _collapse_policies(net, params).items():
        policy, ref_policy = make(), make()
        live, ref = params, params
        for step in stream.adapt_batches[:60]:
            batch = Batch(step.inputs)
            res = single_step(net, live, batch, scenarios.PL, opt, policy)
            ref, decision, probs, value = _reference_step(
                net, ref, batch, scenarios.PL, opt, ref_policy)
            assert res.probs.tobytes() == probs.tobytes(), name
            assert res.loss == value, name
            assert res.decision.cosines.tobytes() == decision.cosines.tobytes(), name
            assert res.decision.mask.tobytes() == decision.mask.tobytes(), name
            assert ((res.decision.first_sample, res.decision.warmup, res.decision.reset)
                    == (decision.first_sample, decision.warmup, decision.reset)), name
            for a, b in zip(res.params.layers, ref.layers):
                assert a.tobytes() == b.tobytes(), name
            live = res.params


def test_backward_stops_at_lowest_layer_the_policy_moves(monkeypatch):
    """erm runs no backward at all; an oracle trial backpropagates only
    down to its group; gala reads every layer."""
    calls = []
    net, params, _ = scenarios.collapse_setup()
    monkeypatch.setattr(net, "_kernels", counted_kernels(net, lambda i, a: calls.append(1)))
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                              "single_layer")
    batch = Batch(np.array([[0.5, -1.0], [1.5, 0.2]]))
    opt = OptimizerConfig(scenarios.COLLAPSE_LR)
    expected = {"erm": 0, "all_layers": 3, "random_block": 3, "auto_rgn": 3}
    for variant, dense_layers in expected.items():
        calls.clear()
        single_step(net, params, batch, scenarios.PL, opt,
                    baseline_policy(SelectorKind(variant), grouping))
        assert len(calls) == dense_layers, variant
    for k, name in enumerate(grouping.names):
        calls.clear()
        res = single_step(net, params, batch, scenarios.PL, opt,
                          baseline_policy(SelectorKind("oracle_best", fixed_group=name), grouping))
        assert len(calls) == 3 - k, name
        assert all(np.shares_memory(new, old)
                   for new, old in zip(res.params.layers[:k], params.layers[:k]))
    calls.clear()
    single_step(net, params, batch, scenarios.PL, opt,
                GalaPolicy(GalaConfig(), grouping))
    assert len(calls) == 3

def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_decide_cosines_equal_reference_thousand_cases():
    """decide's cosines are cosine_alignment(u_k, live_k - a_k, eps),
    exactly, including undefined (nan) ones."""
    rng = np.random.default_rng(47)
    cfg = GalaConfig(threshold=0.5, granularity="multi_layer")
    eps = cfg.epsilon
    cases = 0
    while cases < 1200:
        k = int(rng.integers(1, 6))
        u, live, anchors = [], [], []
        for _ in range(k):
            dim = int(rng.integers(0, 40))
            a = rng.normal(size=dim) * 10.0 ** rng.uniform(-2, 2)
            ug = rng.normal(size=dim) * 10.0 ** rng.uniform(-4, 2)
            g = a + rng.normal(size=dim) * 10.0 ** rng.uniform(-4, 2)
            kind = int(rng.integers(7)) if dim else 0
            if kind == 1:  # zero proposal
                ug = np.zeros(dim)
            elif kind == 2:  # no displacement
                g = a.copy()
            elif kind == 3:  # exact cancellation u = -td
                ug = -(g - a)
            elif kind == 4:  # ||u|| just below or above eps
                ug = _unit(rng, dim) * eps * (1.0 + rng.choice([-1e-6, 1e-6]))
            elif kind == 5:  # ||u + td|| just below or above eps
                ug = -(g - a) + _unit(rng, dim) * eps * (1.0 + rng.choice([-1e-3, 1e-3]))
            u.append(ug)
            live.append(g)
            anchors.append(a)
            cases += 1
        d = decide(u, live, anchors, [[i] for i in range(k)], False, cfg)
        want = [cosine_alignment(ug, g - a, eps) for ug, g, a in zip(u, live, anchors)]
        for got, ref in zip(d.cosines, want):
            assert (math.isnan(got) and math.isnan(ref)) or got == ref
    assert cases >= 1000


def test_group_dot_fixed_order_over_layers_and_slices():
    """group_dot sums one ndarray.dot per slice of at most DOT_CHUNK
    entries, layer by layer and left to right from the first term: a
    short layer gets its one-call dot, a lone -0.0 survives and a group
    with no entries gives 0.0."""
    rng = np.random.default_rng(61)
    for _ in range(10):  # one draw's whole-layer dot often rounds like the slices
        a = [rng.normal(size=n) for n in (DOT_CHUNK, 0, 2 * DOT_CHUNK + 5, 3)]
        b = [rng.normal(size=v.size) for v in a]
        assert group_dot(a, b, [0]) == a[0].dot(b[0])
        want = a[0].dot(b[0])
        for s in (0, DOT_CHUNK, 2 * DOT_CHUNK):
            want += a[2][s:s + DOT_CHUNK].dot(b[2][s:s + DOT_CHUNK])
        want += a[3].dot(b[3])
        got = group_dot(a, b, [0, 1, 2, 3])
        assert got == want
        assert abs(got - sum(float(np.sum(x * y)) for x, y in zip(a, b))) < 1e-10
    assert math.copysign(1.0, group_dot([np.array([-0.0])], [np.array([1.0])], [0])) == -1.0
    assert group_dot(a, b, [1]) == 0.0 and group_dot(a, b, []) == 0.0


@pytest.mark.parametrize("size", [0, 272, 65_792])
def test_decide_equals_cosine_alignment_on_one_layer_groups(size):
    """On a one-layer group of any size, decide's cosine is
    cosine_alignment's bit for bit: both take their dots by group_dot."""
    rng = np.random.default_rng(size)
    cfg = GalaConfig()
    live, anchor = [rng.normal(size=size) for _ in range(2)]
    for u in (rng.normal(size=size) * 1e-3, anchor - live, np.zeros(size)):
        d = decide([u], [live], [anchor], [[0]], False, cfg)
        want = cosine_alignment(u, live - anchor, cfg.epsilon)
        assert (math.isnan(want) and math.isnan(d.cosines[0])) or d.cosines[0] == want


def test_decide_multi_layer_group_matches_concatenation():
    """A block's cosine is cosine_alignment of its layers concatenated,
    to 1e-12: only the order of the sums differs."""
    rng = np.random.default_rng(67)
    sizes = (40, 0, 9000, 272)
    cfg = GalaConfig(granularity="block")
    members = [[0, 1, 2], [3]]
    for _ in range(20):
        u = [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 0) for n in sizes]
        anchor = [rng.normal(size=n) for n in sizes]
        live = [a + rng.normal(size=a.size) * 10.0 ** rng.uniform(-3, 0) for a in anchor]
        d = decide(u, live, anchor, members, False, cfg)
        for k, group in enumerate(members):
            want = cosine_alignment(np.concatenate([u[i] for i in group]),
                                    np.concatenate([live[i] - anchor[i] for i in group]),
                                    cfg.epsilon)
            assert abs(d.cosines[k] - want) <= 1e-12


def test_anchor_owns_its_data():
    """Writing to a live layer array in place never moves the anchor,
    whether it was taken on the first step or after a reset."""
    net = Network([LayerSpec("dense", 2, 3, "tanh"), LayerSpec("dense", 3, 2)])
    params = net.init_params(6)
    grads = [np.ones_like(v) for v in params.layers]
    for gran in ("single_layer", "block"):
        grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs], gran,
                                  num_blocks=1)
        live = params.copy()
        policy = GalaPolicy(GalaConfig(window_size=1, granularity=gran, num_blocks=1),
                            grouping)
        for change in (1.0, 2.0):
            _, decision = policy.select(grads, live, 0.1)
            assert decision.first_sample and decision.reset
            before = [a.copy() for a in policy.anchor]
            for vec in live.layers:
                vec += change
            for a, b in zip(policy.anchor, before):
                assert np.array_equal(a, b)


def test_anchor_consistency_and_reset_within_run():
    """A window's anchor is the previous step's post-update parameters,
    and within the window the displacement is the sum of applied updates."""
    rng = np.random.default_rng(23)
    net = Network([LayerSpec("dense", 2, 6, "tanh"), LayerSpec("dense", 6, 2)])
    params = net.init_params(8)
    grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs], "multi_layer")
    cfg = GalaConfig(threshold=-1.0, granularity="multi_layer", window_size=7)
    opt = OptimizerConfig(0.1)
    policy = GalaPolicy(cfg, grouping)
    for step in range(1, 16):
        batch = Batch(rng.normal(size=(3, 2)))
        res = single_step(net, params, batch, LossKind("shot_im"), opt, policy)
        new_layers, old_layers = res.params.layers, params.layers
        assert res.decision.first_sample == (step % 7 == 1)
        assert res.decision.reset == (step % 7 == 0)
        if res.decision.first_sample:
            for a, g in zip(policy.anchor, old_layers):
                assert np.array_equal(a, g)
            applied = [np.zeros_like(g) for g in old_layers]
        for acc, new, old in zip(applied, new_layers, old_layers):
            acc += new - old
        for g, a, acc in zip(new_layers, policy.anchor, applied):
            assert np.all(np.abs(g - a - acc) < 1e-9)
        params = res.params


def test_trajectory_determinism():
    def run():
        rng = np.random.default_rng(31)
        net = Network([LayerSpec("dense", 3, 5, "relu"), LayerSpec("dense", 5, 3)])
        params = net.init_params(2)
        grouping = build_grouping(net.layer_names, [s.param_count for s in net.specs],
                                  "single_layer")
        policy = GalaPolicy(GalaConfig(window_size=4), grouping)
        opt = OptimizerConfig(0.2)
        out = []
        for _ in range(10):
            batch = Batch(rng.normal(size=(2, 3)))
            params = single_step(net, params, batch, LossKind("shot_im"), opt, policy).params
            out.append(np.concatenate([v for v in params.layers]))
        return np.concatenate(out)

    assert np.array_equal(run(), run())
