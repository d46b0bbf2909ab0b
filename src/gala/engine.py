"""Gradient-aligned layer selection for online test-time adaptation.

Each adaptation step proposes a plain SGD update u = -lr * grad per
parameter group, then measures how well u agrees with the direction the
group has been moving since its anchor was last reset. The agreement
score for a group with accumulated displacement TD is

    cos = u . (u + TD) / (||u|| ||u + TD||)

i.e. the cosine between the proposed step and the total displacement the
group would have after taking it. Groups whose cosine clears a threshold
are updated; the rest are frozen for this sample. Anchors are refreshed
every ``window_size`` steps so the displacement reference does not go
stale, and the first sample after a reset updates every group
unconditionally (there is no displacement to align with yet).

``GalaPolicy`` packages the criterion as a scale policy for the
adaptation step in ``runner``: per group, the binary mask times the
warm-up factor. It counts its steps and copies the anchor per layer
from the parameters it is shown on the first step of each window: a
step's pre-update parameters are the previous step's post-update ones.
Every dot is summed as ``group_dot`` sums it, in one order at any thread
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .nn import ModelParameters

GRANULARITIES = ("single_layer", "multi_layer", "block")
# OpenBLAS runs a ddot of up to 10,000 entries on one thread
DOT_CHUNK = 8192


@dataclass(frozen=True)
class GalaConfig:
    """Selection hyperparameters.

    ``window_size`` may be ``math.inf`` for no-reset operation. The
    threshold accepts the degenerate value -1, which makes every defined
    cosine pass and (in multi_layer mode with ``warmup_len`` 0) reduces the
    method to plain all-layers SGD.
    """

    threshold: float = 0.75
    window_size: int | float = 20
    granularity: str = "single_layer"
    warmup_len: int = 3
    epsilon: float = 1e-12
    num_blocks: int = 4

    def __post_init__(self):
        if not (-1.0 <= self.threshold <= 1.0):
            raise ConfigurationError("threshold must lie in [-1, 1]")
        if self.window_size != math.inf:
            if not (isinstance(self.window_size, (int, np.integer)) and self.window_size >= 1):
                raise ConfigurationError("window_size must be a positive integer or infinite")
        if self.granularity not in GRANULARITIES:
            raise ConfigurationError(f"unknown granularity {self.granularity!r}")
        if not (isinstance(self.warmup_len, (int, np.integer)) and self.warmup_len >= 0):
            raise ConfigurationError("warmup_len must be a nonnegative integer")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigurationError("epsilon must be a small positive real")
        if not (isinstance(self.num_blocks, (int, np.integer)) and self.num_blocks >= 1):
            raise ConfigurationError("num_blocks must be a positive integer")


@dataclass
class ParameterGrouping:
    """Ordered partition of layer indices into named groups.

    ``members[k]`` lists group k's layers in order and ``layer_sizes``
    each layer's flat length; ``group_dot`` reads a group's layers in place.
    """

    names: list[str]
    members: list[list[int]]
    layer_sizes: list[int]

    def __post_init__(self):
        if len(self.names) != len(self.members):
            raise ConfigurationError("one name per group required")
        seen = sorted(i for group in self.members for i in group)
        if seen != list(range(len(self.layer_sizes))):
            raise ConfigurationError("groups must cover all layers exactly once")

    @property
    def num_groups(self) -> int:
        return len(self.names)

    @property
    def all_layers(self) -> frozenset[int]:
        return frozenset(range(len(self.layer_sizes)))


def build_grouping(
    layer_names: list[str], layer_sizes: list[int], granularity: str, num_blocks: int = 4
) -> ParameterGrouping:
    """Build the parameter grouping for a granularity mode.

    single_layer and multi_layer give one group per layer (named after
    the layer); block gives ``num_blocks`` contiguous near-equal blocks
    named B0..B{k-1}.
    """
    n = len(layer_names)
    if granularity in ("single_layer", "multi_layer"):
        return ParameterGrouping(list(layer_names), [[i] for i in range(n)], list(layer_sizes))
    if granularity != "block":
        raise ConfigurationError(f"unknown granularity {granularity!r}")
    if not 1 <= num_blocks <= n:
        raise ConfigurationError(f"cannot split {n} layers into {num_blocks} blocks")
    pieces = np.array_split(np.arange(n), num_blocks)
    return ParameterGrouping([f"B{k}" for k in range(num_blocks)],
                             [[int(i) for i in piece] for piece in pieces], list(layer_sizes))


@dataclass
class SelectionDecision:
    """Outcome of one step's selection: per-group cosines (nan where
    undefined), the binary mask, whether this is a window's first sample,
    the warm-up factor the mask was scaled by, and whether the step ends
    its window (the anchor is retaken on the next)."""

    cosines: np.ndarray
    mask: np.ndarray
    first_sample: bool
    warmup: float = 1.0
    reset: bool = False

    @property
    def skipped(self) -> bool:
        """No group updated."""
        return not self.mask.any()


def group_dot(a: list[np.ndarray], b: list[np.ndarray], members: list[int]) -> float:
    """Dot product over the layers ``members`` of two per-layer lists: one
    ``ndarray.dot`` per slice of at most ``DOT_CHUNK`` entries (``_pieces``),
    summed in layer and slice order from the first term; 0.0 for no entries."""
    (pieces,) = _pieces([members], {i: a[i].size for i in members})
    total = 0.0
    for n, (i, s) in enumerate(pieces):
        d = a[i].dot(b[i]) if s is None else a[i][s].dot(b[i][s])
        total = total + d if n else d
    return total


def cosine_alignment(u: np.ndarray, td: np.ndarray, eps: float) -> float:
    """Cosine between vectors u and u + td; nan when either norm is below eps."""
    if u.shape != td.shape:
        raise ConfigurationError("u and td must have the same shape")
    u, r = [u], [u + td]
    nu = math.sqrt(group_dot(u, u, [0]))
    nr = math.sqrt(group_dot(r, r, [0]))
    if nu < eps or nr < eps:
        return math.nan
    return float(np.clip(group_dot(u, r, [0]) / (nu * nr), -1.0, 1.0))


def cosine_via_decomposition(td_norm: float, u_norm: float, beta: float) -> float:
    """Same cosine expressed through norms and the angle between u and td.

    With T = ||td||, u = ||u|| and beta the angle between them:

        cos = (T cos(beta) + u) / sqrt((T + u cos(beta))^2 + (u sin(beta))^2)

    Returns nan when the denominator vanishes (u and td cancel exactly).
    """
    num = td_norm * math.cos(beta) + u_norm
    den = math.hypot(td_norm + u_norm * math.cos(beta), u_norm * math.sin(beta))
    if den == 0.0:
        return math.nan
    return float(np.clip(num / den, -1.0, 1.0))


def vector_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in [0, pi] between two vectors; nan if either is zero."""
    a, b = [a], [b]
    na = math.sqrt(group_dot(a, a, [0]))
    nb = math.sqrt(group_dot(b, b, [0]))
    if na == 0.0 or nb == 0.0:
        return math.nan
    return float(np.arccos(np.clip(group_dot(a, b, [0]) / (na * nb), -1.0, 1.0)))


def _pieces(members: list[list[int]], sizes) -> list[list[tuple]]:
    """Per group, its (layer, slice) pieces of at most ``DOT_CHUNK`` entries in
    layer and slice order, layer i having ``sizes[i]``; None slices a whole layer."""
    return [[(i, None if sizes[i] <= DOT_CHUNK else slice(s, s + DOT_CHUNK))
             for i in group for s in range(0, sizes[i], DOT_CHUNK)]
            for group in members]


def _decide(grads, scale, live, anchor, pieces, first, cfg) -> tuple[np.ndarray, np.ndarray]:
    """The cosines (nan where undefined) and the mask of one step, on
    u = scale * grads, ``live`` and ``anchor`` per layer and the groups'
    ``_pieces``; a group's cosine is that of u and r = (live - anchor) + u,
    each dot summed as ``group_dot`` sums it. A window's ``first`` sample
    selects every group; later, single_layer and block select the
    argmax-cosine group if it clears the threshold (ties to the lowest index),
    multi_layer every group that clears it. It forms u and r piece by piece."""
    eps = cfg.epsilon
    cosines = []
    for group in pieces:
        uu = rr = ur = 0.0  # for no entries
        for n, (i, s) in enumerate(group):
            g, v, a = ((grads[i], live[i], anchor[i]) if s is None
                       else (grads[i][s], live[i][s], anchor[i][s]))
            u = scale * g
            r = v - a
            r += u
            # summed from the first term, as group_dot sums
            uu, rr, ur = ((uu + u.dot(u), rr + r.dot(r), ur + u.dot(r)) if n
                          else (u.dot(u), r.dot(r), u.dot(r)))
        nu, nr = math.sqrt(uu), math.sqrt(rr)
        if nu < eps or nr < eps:
            cosines.append(math.nan)
        else:
            c = ur / (nu * nr)
            cosines.append(1.0 if c > 1.0 else -1.0 if c < -1.0 else c)
    mask = np.zeros(len(cosines), dtype=np.int64)
    # nan never clears the threshold
    picked = [k for k, c in enumerate(cosines) if first or c > cfg.threshold]
    if picked and not first and cfg.granularity != "multi_layer":
        picked = [max(picked, key=cosines.__getitem__)]
    mask[picked] = 1
    return np.array(cosines, dtype=np.float64), mask


class GalaPolicy:
    """Gala as a scale policy: per group, the selection mask times the
    warm-up factor. One instance per adaptation pass. The j-th step of a
    window (from 1) is scaled by j / warmup_len while j <= warmup_len, and
    by 1 after, so ``warmup_len`` 0 turns warm-up off.

    ``steps`` counts the steps taken. On the first step of each window
    (every ``window_size`` steps; an infinite window has only the first)
    ``select`` sets ``anchor`` to per-layer copies of the parameters it is
    shown, the pre-update ones, so a window's anchor is the parameters
    after the previous window's last step. The decision marks that last
    step as ``reset``.
    """

    def __init__(self, cfg: GalaConfig, grouping: ParameterGrouping):
        self.cfg = cfg
        self.grouping = grouping
        self.grad_layers = grouping.all_layers
        self.anchor: list[np.ndarray] = []
        self.steps = 0
        self._pieces = _pieces(grouping.members, grouping.layer_sizes)

    def select(self, grads: list[np.ndarray], params: ModelParameters,
               lr: float) -> tuple[np.ndarray, SelectionDecision]:
        """``_decide`` on u = -lr * grads, times the warm-up ramp."""
        cfg = self.cfg
        j = self.steps % cfg.window_size  # x % inf is x: one endless window
        self.steps += 1
        live = params.layers
        if j == 0:
            self.anchor = [v.copy() for v in live]
        cosines, mask = _decide(grads, -lr, live, self.anchor, self._pieces, j == 0, cfg)
        warmup = (j + 1) / cfg.warmup_len if j < cfg.warmup_len else 1.0
        return mask if warmup == 1.0 else mask * warmup, SelectionDecision(
            cosines, mask, j == 0, warmup, j + 1 == cfg.window_size)
