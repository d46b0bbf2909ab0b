"""The online adaptation step and loop, shared by every selector.

A selector is a scale policy over a parameter grouping (``grouping``).
``grad_layers``, fixed at construction, holds the indices of the layers
whose gradients the policy can read or move; the step computes no
other gradient. ``select(grads, params, lr)`` gets a step's per-layer
gradients (None outside ``grad_layers``) and the pre-update parameters
and returns one scale per group, the step's SelectionDecision and its
warm-up factor; ``after_update(params)`` gets the post-update
parameters and reports whether the policy reset. The step moves each
layer of a group with a nonzero scale s by s * (-lr * grad) and leaves
every other layer's array as it is.

Labels ride along in the stream for evaluation; the loop strips them
before the loss sees a batch, so unsupervised adaptation cannot leak
label information (the losses additionally refuse labeled batches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import BASELINE_GRANULARITY, ORACLE_VARIANTS, SelectorKind, baseline_policy
from .engine import (
    GalaConfig,
    GalaPolicy,
    ParameterGrouping,
    SelectionDecision,
    build_grouping,
)
from .errors import ConfigurationError
from .metrics import RunRecord, config_fingerprint, tta_accuracy
from .nn import Batch, LossKind, ModelParameters, Network, OptimizerConfig
from .shiftbench import ShiftStream


@dataclass
class StepResult:
    params: ModelParameters
    decision: SelectionDecision
    probs: np.ndarray
    loss: float
    warmup: float
    reset: bool


def adapt_step(network: Network, params: ModelParameters, batch: Batch, loss: LossKind,
               opt: OptimizerConfig, policy) -> StepResult:
    """One online adaptation step: propose, scale, update, predict.

    The loss pass backpropagates only down to the lowest layer in
    ``policy.grad_layers``, the layers whose gradients the policy can
    read or move; the other gradients are None. Predictions come from
    the post-update parameters: the step reruns the forward pass from
    the lowest layer that moved, on the input the loss pass fed that
    layer, since the layers below hold the same parameters on the same
    batch. When no group moves, it reports the loss pass's
    probabilities and runs no second forward pass. Either way the
    results match a full backward and a full forward bit for bit.
    """
    loss_value, grads, probs, inputs = network.loss_and_gradients(
        params, batch, loss, layers=policy.grad_layers)
    scales, decision, warmup = policy.select(grads, params, opt.learning_rate)
    layers = list(params.layers)
    start = len(layers)
    for members, s in zip(policy.grouping.members, scales):
        if s:
            for i in members:
                layers[i] = layers[i] + s * (-opt.learning_rate * grads[i])
                start = min(start, i)
    new_params = ModelParameters(layers, params.layer_names)
    reset = policy.after_update(new_params)
    if start < len(layers):
        probs = network.forward(new_params, batch, start, inputs[start])
    return StepResult(new_params, decision, probs, loss_value, warmup, reset)


def adapt(network: Network, pretrained: ModelParameters, stream: ShiftStream, loss: LossKind,
          opt: OptimizerConfig, policy, fingerprint: str, seed: int) -> RunRecord:
    """Adapt a copy of ``pretrained`` over one stream, one step per batch."""
    params = pretrained.copy()
    correct, decisions, losses, warmups, resets = [], [], [], [], []
    for batch in stream.adapt_batches:
        res = adapt_step(network, params, Batch(batch.inputs), loss, opt, policy)
        params = res.params
        correct.append(np.argmax(res.probs, axis=1) == batch.labels)
        decisions.append(res.decision)
        losses.append(res.loss)
        warmups.append(res.warmup)
        resets.append(res.reset)
    return RunRecord(list(policy.grouping.names), correct, decisions, losses, warmups, resets,
                     params, fingerprint, seed)


@dataclass
class OracleSweepResult:
    group_names: list[str]
    accuracies: list[float]
    best_group: str
    worst_group: str


def oracle_sweep(
    network: Network,
    pretrained: ModelParameters,
    stream,
    loss: LossKind,
    opt: OptimizerConfig,
    grouping: ParameterGrouping,
) -> OracleSweepResult:
    """Brute-force single-group adaptation quality.

    Restarts from the pretrained parameters once per group, adapts only
    that group on every stream sample, and scores online accuracy.
    Labels are read for scoring only; the loss path never sees them.
    """
    if grouping.num_groups < 2:
        raise ConfigurationError("oracle sweep needs at least 2 groups")
    accuracies = []
    for name in grouping.names:
        policy = baseline_policy(SelectorKind("oracle_best", fixed_group=name), grouping)
        # a trial is scored, not reported, so its record carries no fingerprint
        accuracies.append(tta_accuracy(adapt(network, pretrained, stream, loss, opt, policy,
                                             "", 0)))
    best = int(np.argmax(accuracies))
    worst = int(np.argmin(accuracies))
    return OracleSweepResult(list(grouping.names), accuracies,
                             grouping.names[best], grouping.names[worst])


def run_selector(
    network: Network,
    pretrained: ModelParameters,
    stream: ShiftStream,
    loss: LossKind,
    opt: OptimizerConfig,
    selector: GalaConfig | SelectorKind,
    granularity: str,
    num_blocks: int,
    seed: int,
    sweep: OracleSweepResult | None,
) -> RunRecord:
    """Adapt with gala or a baseline over one stream.

    ``granularity`` and ``num_blocks`` build the grouping the selector
    scales. An oracle kind without a pinned group replays the best or
    worst group of ``sweep``, a sweep of the same stream and grouping;
    when that is None the sweep runs here.
    """
    grouping = build_grouping(network.layer_names, [s.param_count for s in network.specs],
                              granularity, num_blocks)
    if isinstance(selector, GalaConfig):
        policy = GalaPolicy(selector, grouping, pretrained)
        method, settings = "gala", {
            "threshold": selector.threshold,
            "window_size": "inf" if selector.window_size == math.inf else selector.window_size,
            "warmup_len": selector.warmup_len,
            "warmup_mode": selector.warmup_mode,
        }
    else:
        if selector.variant in ORACLE_VARIANTS and selector.fixed_group is None:
            if sweep is None:
                sweep = oracle_sweep(network, pretrained, stream, loss, opt, grouping)
            selector = replace(selector, fixed_group=sweep.best_group
                               if selector.variant == "oracle_best" else sweep.worst_group)
        policy = baseline_policy(selector, grouping)
        method, settings = selector.variant, {"rng_seed": selector.rng_seed,
                                              "fixed_group": selector.fixed_group}
    fingerprint = config_fingerprint({
        "method": method,
        "loss": {"variant": loss.variant, "shot_pl_weight": loss.shot_pl_weight},
        "opt": {"learning_rate": opt.learning_rate, "kind": opt.kind},
        "seed": seed,
        "granularity": granularity,
        "num_blocks": num_blocks,
        **settings,
    })
    return adapt(network, pretrained, stream, loss, opt, policy, fingerprint, seed)


def run_gala(
    network: Network,
    pretrained: ModelParameters,
    stream: ShiftStream,
    loss: LossKind,
    opt: OptimizerConfig,
    cfg: GalaConfig,
    seed: int = 0,
) -> RunRecord:
    """Adapt with aligned layer selection over one stream."""
    return run_selector(network, pretrained, stream, loss, opt, cfg, cfg.granularity,
                        cfg.num_blocks, seed, None)


def run_baseline(
    network: Network,
    pretrained: ModelParameters,
    stream: ShiftStream,
    kind: SelectorKind,
    loss: LossKind,
    opt: OptimizerConfig,
    granularity: str = BASELINE_GRANULARITY,
    num_blocks: int = 4,
    seed: int = 0,
) -> RunRecord:
    """Adapt with a comparison selector over one stream.

    Oracle variants without a pinned group first run the brute-force
    sweep on the same stream to find it.
    """
    return run_selector(network, pretrained, stream, loss, opt, kind, granularity, num_blocks,
                        seed, None)
