"""The online adaptation step and loop, shared by every selector.

A selector is a scale policy over a parameter grouping (``grouping``).
``grad_layers``, fixed at construction, holds the indices of the layers
whose gradients the policy can read or move; the step computes no
other gradient. ``select(grads, params, lr)`` gets a step's per-layer
gradients (None outside ``grad_layers``) and the pre-update parameters
and returns one scale per group and the step's SelectionDecision. That
is the whole protocol: ``select`` is called once per step, in step
order, and a step's pre-update parameters are the previous step's
post-update ones, so a policy that keeps them (gala's anchor) takes
them there. The step moves each layer of a group with a nonzero scale s
by s * (-lr * grad) and leaves every other layer's array as it is.

The step and the loop advance R runs in lockstep over the same batches,
one policy per run. Each run's parameters are one row of the (R, P_i)
layer arrays, and a policy sees only its own run's gradients and
parameters. The loop steps a single run with no run axis: 1-D layer
vectors and (B, d) activations, through the same code. A run whose
policy has no ``grad_layers`` never moves, so the loop evaluates its
stream in chunks instead, each chunk's batches stacked on a leading steps
axis of one loss pass with no backward.

Labels ride along in the stream for evaluation; the loop strips them
before the loss sees a batch, so unsupervised adaptation cannot leak
label information (the losses additionally refuse labeled batches).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .baselines import ORACLE_VARIANTS, SelectorKind, baseline_policy
from .engine import (
    GalaConfig,
    GalaPolicy,
    ParameterGrouping,
    SelectionDecision,
    build_grouping,
)
from .errors import ConfigurationError, NumericsError
from .metrics import RunRecord, tta_accuracy
from .nn import LossKind, ModelParameters, Network, OptimizerConfig
from .shiftbench import ShiftStream

# The most rows (steps x batch size) a frozen run's loss pass holds: the
# 4 x 64 rows of a four-trial oracle sweep at batch 64.
FROZEN_CHUNK_ROWS = 256


def _step(network: Network, params: ModelParameters, views: list, x: np.ndarray, labels,
          loss: LossKind, opt: OptimizerConfig, policies,
          plan: tuple) -> tuple[list[SelectionDecision], np.ndarray, list[float]]:
    """One adaptation step of R runs, inside the caller's ``np.errstate``, on
    inputs x, each layer's ``Network._view`` and the plan of ``Network._checked``:
    each run's decision, the post-update probabilities ((R, B, C), or (B, C)
    with no run axis) and each run's loss. A run backpropagates only down to
    its lowest ``grad_layers`` layer. A moved layer's copy replaces its array
    and views, so no array given is written and a pass keeps them for its next
    step. A run's forward restarts at the lowest layer it moved; with no move
    the loss pass's probabilities stand. Either way a run's results are those
    of a full backward and a full forward of that run alone, bit for bit."""
    lr = opt.learning_rate
    losses, grads, probs, acts = network._loss_pass(views, x, labels, loss, plan)
    n = len(views)
    copied: set[int] = set()
    starts, decisions = [], []
    for r, (policy, g) in enumerate(zip(policies, grads)):
        run = params.run(r)
        scales, decision = policy.select(g, run, lr)
        start = n
        for members, s in zip(policy.grouping.members, scales):
            if s:
                for i in members:
                    if i not in copied:
                        probs = None  # the restarted forward replaces them
                        v = params.layers[i].copy()
                        run.layers[i] = v.reshape(len(policies), -1)[r]
                        params.layers[i], views[i] = v, network._view(i, v)
                        copied.add(i)
                    row = run.layers[i]
                    row += -lr * g[i] if s == 1.0 else s * (-lr * g[i])  # 1.0 * u is u
                    if i < start:
                        start = i
        starts.append(start)
        decisions.append(decision)
    if copied:
        probs = network._restart(views, acts, tuple(starts))
    return decisions, probs, losses


def adapt(network: Network, pretrained: ModelParameters, stream: ShiftStream, loss: LossKind,
          opt: OptimizerConfig, policies) -> list[RunRecord]:
    """Adapt one copy of ``pretrained`` per policy over one stream, one step
    per batch; one record per run, in policy order.

    The runs that can move step in lockstep, ordered stably by the lowest
    layer of their ``grad_layers``: then they share each layer's backward
    work without any run doing more than it would alone, whatever order
    the policies come in. A run with no ``grad_layers`` never moves, so no
    batch depends on the one before: it is evaluated first, in chunks (see
    ``_frozen_record``), and its record equals that of stepping it. A
    NumericsError names the runs by their index in ``policies``. The stepping
    runs, and each frozen run, are checked once, with
    ``Network.loss_and_gradients``' errors. Each run adapts a copy of
    ``pretrained``, which is never written and shares no memory with any
    record's final parameters.
    """
    moving = sorted((r for r, policy in enumerate(policies) if policy.grad_layers),
                    key=lambda r: min(policies[r].grad_layers))
    records = [None if policy.grad_layers else
               _frozen_record(network, pretrained, stream, loss, opt, policy, r)
               for r, policy in enumerate(policies)]
    if moving:
        try:
            stepped = _lockstep(network, pretrained, stream, loss, opt,
                                [policies[r] for r in moving])
        except NumericsError as e:
            e.runs = [moving[i] for i in e.runs]
            raise
        for r, record in zip(moving, stepped):
            records[r] = record
    return records


def _lockstep(network: Network, pretrained: ModelParameters, stream: ShiftStream,
              loss: LossKind, opt: OptimizerConfig, policies) -> list[RunRecord]:
    """``adapt`` for runs that step: ``Network._checked`` once, for
    unlabeled shared batches, then ``_step`` once per batch, checking only
    the batch's inputs, on parameter views taken once; one ``np.errstate``
    covers the pass. One run keeps no run axis."""
    params = ModelParameters([np.repeat(v[None], len(policies), axis=0)
                              for v in pretrained.layers], list(pretrained.layer_names))
    lead, plan = network._checked(params, None, loss,
                                  [policy.grad_layers for policy in policies])
    if lead == (1,):  # one run: the row of the checked copy, with no run axis
        params.layers, lead = [v[0] for v in params.layers], ()
    views = [network._view(i, v) for i, v in enumerate(params.layers)]
    hits, decisions, losses = [], [], []  # per step, each by run
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in stream.adapt_batches:
            decided, probs, values = _step(network, params, views,
                                           network._inputs(batch.inputs, lead), None, loss,
                                           opt, policies, plan)
            hits.append(probs.argmax(axis=-1) == batch.labels)
            decisions.append(decided)
            losses.append(values)
    # one run keeps its hit arrays whole: a row view each would outweigh them
    return [RunRecord(list(policy.grouping.names), [h[r] if lead else h for h in hits],
                      [d[r] for d in decisions], [v[r] for v in losses], params.run(r))
            for r, policy in enumerate(policies)]


def _chunks(batches):
    """Consecutive batches of one size, at most FROZEN_CHUNK_ROWS rows and
    at least one batch per chunk."""
    for size, group in groupby(batches, key=lambda batch: batch.size):
        group = list(group)
        steps = max(1, FROZEN_CHUNK_ROWS // size)
        for i in range(0, len(group), steps):
            yield group[i:i + steps]


def _frozen_record(network: Network, pretrained: ModelParameters, stream: ShiftStream,
                   loss: LossKind, opt: OptimizerConfig, policy, r: int) -> RunRecord:
    """The record of run r, whose policy has no ``grad_layers``.

    Checked once, like ``_lockstep``; then each chunk of the stream is one
    ``Network._loss_pass`` over the chunk's batches stacked as (steps, B, d)
    inputs, each reduced on its own, with views of a copy of ``pretrained``
    taken once and an empty backward plan. The pass's
    probabilities are the post-update ones, since nothing moves. The
    policy's ``select`` is called once per step, in step order, with no
    gradients; a nonzero scale raises a ValueError.
    """
    params = pretrained.copy()
    plan = network._checked(params, None, loss, [()])[1]
    views = [network._view(i, v) for i, v in enumerate(params.layers)]
    no_grads = [None] * len(params.layers)
    hits, decisions, losses = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _chunks(stream.adapt_batches):
            x = network._inputs(np.stack([b.inputs for b in chunk]), ())
            try:
                values, _, probs, _ = network._loss_pass(views, x, None, loss, plan)
            except NumericsError as e:
                e.runs = [r]
                raise
            hits.extend(probs.argmax(axis=-1) == np.stack([b.labels for b in chunk]))
            losses.extend(values)
            for _ in chunk:
                scales, decision = policy.select(no_grads, params, opt.learning_rate)
                if np.count_nonzero(scales):
                    raise ValueError(f"run {r} has no gradient layers but scales {list(scales)}")
                decisions.append(decision)
    return RunRecord(list(policy.grouping.names), hits, decisions, losses, params)


@dataclass
class OracleSweepResult:
    """One trial per group, in group order: its online accuracy."""

    group_names: list[str]
    accuracies: list[float]
    best_group: str
    worst_group: str


def oracle_sweep(network: Network, pretrained: ModelParameters, stream, loss: LossKind,
                 opt: OptimizerConfig, grouping: ParameterGrouping) -> OracleSweepResult:
    """Brute-force single-group adaptation quality.

    One trial per group adapts only that group from the pretrained
    parameters on every stream sample and is scored by its online
    accuracy; the trials run in lockstep, one pass over the stream. This
    is ``run_selector``'s pass with no selector. Labels are read for
    scoring only; the loss path never sees them. A trial that goes
    non-finite stops the pass with a NumericsError naming its group.
    """
    return run_selector(network, pretrained, stream, loss, opt, None, 0, grouping)[1]


def run_selector(network: Network, pretrained: ModelParameters, stream: ShiftStream,
                 loss: LossKind, opt: OptimizerConfig, selector: GalaConfig | SelectorKind | None,
                 seed: int, trials: ParameterGrouping | None,
                 ) -> tuple[RunRecord | None, OracleSweepResult | None]:
    """Adapt with gala or a baseline over one stream, and with ``trials``
    sweep its groups, in one pass: the selector's record, which carries
    ``seed``, the stream's seed, and the oracle sweep over ``trials``.

    The selector's ``granularity`` and ``num_blocks`` build the grouping
    it scales. With ``trials``, one oracle trial per group of it steps
    beside the selector's run in one ``adapt`` call; the records equal
    those of separate passes. An oracle kind without a pinned group adds
    no run: it takes the record of the best or worst trial of ``trials``,
    or, when that is None, of a sweep over its own grouping, run here. A
    ``selector`` of None runs the sweep alone and gives no record (see
    ``oracle_sweep``). A run that goes non-finite stops the pass with a
    NumericsError naming the selector's run, the trials' groups, or both.
    """
    policies, name = [], None
    if selector is not None:
        grouping = build_grouping(network.layer_names,
                                  [s.param_count for s in network.specs],
                                  selector.granularity, selector.num_blocks)
        if isinstance(selector, GalaConfig):
            policies, name = [GalaPolicy(selector, grouping)], "gala"
        elif selector.variant not in ORACLE_VARIANTS or selector.fixed_group is not None:
            policies, name = [baseline_policy(selector, grouping)], selector.variant
        elif trials is None:
            trials = grouping
    first = len(policies)  # the trials' runs follow the selector's
    if trials is not None:
        if trials.num_groups < 2:
            raise ConfigurationError("oracle sweep needs at least 2 groups")
        policies += [baseline_policy(SelectorKind("oracle_best", fixed_group=group), trials)
                     for group in trials.names]
    try:
        records = adapt(network, pretrained, stream, loss, opt, policies)
    except NumericsError as e:
        what = [f"{name} run"] if 0 in e.runs and first else []
        groups = [trials.names[r - first] for r in e.runs if r >= first]
        if groups:
            what.append(f"oracle trial on {', '.join(groups)}")
        raise NumericsError(f"{' and '.join(what)} diverged: {e}", e.runs) from e
    sweep = None
    if trials is not None:
        accuracies = [tta_accuracy(record) for record in records[first:]]
        best = trials.names[int(np.argmax(accuracies))]
        worst = trials.names[int(np.argmin(accuracies))]
        sweep = OracleSweepResult(list(trials.names), accuracies, best, worst)
    if selector is None:
        return None, sweep
    if name is None:  # an unpinned oracle, which adds no run: its trial's record
        group = sweep.best_group if selector.variant == "oracle_best" else sweep.worst_group
        record = records[sweep.group_names.index(group)]
    else:
        record = records[0]
    return replace(record, seed=seed), sweep


def run_gala(network: Network, pretrained: ModelParameters, stream: ShiftStream,
             loss: LossKind, opt: OptimizerConfig, cfg: GalaConfig, seed: int = 0) -> RunRecord:
    """Adapt with aligned layer selection over one stream."""
    return run_selector(network, pretrained, stream, loss, opt, cfg, seed, None)[0]


def run_baseline(network: Network, pretrained: ModelParameters, stream: ShiftStream,
                 kind: SelectorKind, loss: LossKind, opt: OptimizerConfig,
                 granularity: str | None = None, num_blocks: int | None = None,
                 seed: int = 0) -> RunRecord:
    """Adapt with a comparison selector over one stream.

    ``granularity`` and ``num_blocks``, when given, replace the kind's.
    Oracle variants without a pinned group first run the brute-force
    sweep on the same stream to find it.
    """
    kind = replace(kind, granularity=kind.granularity if granularity is None else granularity,
                   num_blocks=kind.num_blocks if num_blocks is None else num_blocks)
    return run_selector(network, pretrained, stream, loss, opt, kind, seed, None)[0]
