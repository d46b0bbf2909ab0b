"""Comparison selectors as scale policies for the adaptation step.

Each policy maps a step's gradients to one scale per parameter group,
like gala's: erm scales every group by zero (it never updates);
all_layers by one (plain SGD); random_block picks one uniformly drawn
group per sample; oracle selectors replay the single best or worst
group found by a brute-force sweep; auto_rgn scales every group's
learning rate by its smoothed relative gradient norm. Their decisions
carry nan cosines, as no alignment is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ParameterGrouping, SelectionDecision
from .errors import ConfigurationError
from .nn import ModelParameters

SELECTOR_VARIANTS = ("erm", "all_layers", "random_block", "oracle_best", "oracle_worst",
                     "auto_rgn")
ORACLE_VARIANTS = ("oracle_best", "oracle_worst")
_RGN_EPS = 1e-12
_RGN_DECAY = 0.9


@dataclass(frozen=True)
class SelectorKind:
    """Which baseline to run, over which grouping.

    ``rng_seed`` feeds random_block's draws; ``fixed_group`` pins the
    group an oracle selector replays (filled in from a sweep when left
    unset). ``granularity`` and ``num_blocks`` build the grouping the
    baseline scales, as gala's do; the default one works on every
    network, however few layers it has.
    """

    variant: str
    rng_seed: int = 0
    fixed_group: str | None = None
    granularity: str = "single_layer"
    num_blocks: int = 4

    def __post_init__(self):
        if self.variant not in SELECTOR_VARIANTS:
            raise ConfigurationError(f"unknown selector variant {self.variant!r}")


def _decision(mask: np.ndarray) -> SelectionDecision:
    return SelectionDecision(np.full(mask.size, math.nan), mask, False)


class FixedScales:
    """The same scales and decision on every step: erm, all_layers, oracle."""

    def __init__(self, grouping: ParameterGrouping, mask: np.ndarray):
        self.grouping = grouping
        # only the layers it moves: none for erm, one group for an oracle
        self.grad_layers = frozenset(i for group, m in zip(grouping.members, mask) if m
                                     for i in group)
        self.scales = mask.astype(float)
        self.decision = _decision(mask)

    def select(self, grads, params, lr):
        return self.scales, self.decision


class RandomBlock:
    """One uniformly drawn group per step."""

    def __init__(self, grouping: ParameterGrouping, rng_seed: int):
        self.grouping = grouping
        # the draw happens in select, after the backward pass
        self.grad_layers = grouping.all_layers
        self.rng = np.random.default_rng(rng_seed)
        self.picks = [FixedScales(grouping, row)
                      for row in np.eye(grouping.num_groups, dtype=np.int64)]

    def select(self, grads, params, lr):
        return self.picks[int(self.rng.integers(self.grouping.num_groups))].select(
            grads, params, lr)


class AutoRGN:
    """Every group, scaled by its EMA gradient-to-weight norm ratio over
    the largest one."""

    def __init__(self, grouping: ParameterGrouping):
        self.grouping = grouping
        self.grad_layers = grouping.all_layers
        self.decision = _decision(np.ones(grouping.num_groups, dtype=np.int64))
        self.ema: np.ndarray | None = None

    def select(self, grads, params: ModelParameters, lr):
        ratios = np.array([
            np.linalg.norm(g) / (np.linalg.norm(p) + _RGN_EPS)
            for g, p in zip(self.grouping.gather(grads), self.grouping.gather(params.layers))
        ])
        self.ema = ratios if self.ema is None else (
            _RGN_DECAY * self.ema + (1.0 - _RGN_DECAY) * ratios
        )
        top = self.ema.max()
        scales = self.ema / top if top > 0 else np.zeros(self.grouping.num_groups)
        return scales, self.decision


def baseline_policy(kind: SelectorKind, grouping: ParameterGrouping):
    """A fresh scale policy for one adaptation pass of a baseline."""
    n = grouping.num_groups
    if kind.variant == "random_block":
        return RandomBlock(grouping, kind.rng_seed)
    if kind.variant == "auto_rgn":
        return AutoRGN(grouping)
    if kind.variant in ORACLE_VARIANTS:
        if kind.fixed_group is None:
            raise ConfigurationError(f"{kind.variant} needs fixed_group; run oracle_sweep first")
        if kind.fixed_group not in grouping.names:
            raise ConfigurationError(f"unknown group {kind.fixed_group!r}")
        mask = np.zeros(n, dtype=np.int64)
        mask[grouping.names.index(kind.fixed_group)] = 1
        return FixedScales(grouping, mask)
    return FixedScales(grouping, np.full(n, int(kind.variant == "all_layers"), dtype=np.int64))
