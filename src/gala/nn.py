"""Minimal feedforward classification networks with hand-written gradients.

Everything is float64 numpy. A network is described by an ordered list of
:class:`LayerSpec`; trainable state lives in :class:`ModelParameters` as one
flat vector per layer, so optimizer-side code can treat layers as opaque
vectors, or as one (R, P_i) array per layer for R models that step in
lockstep over the same batches; a batch may also hold one batch per run.
Every layer is an affine map with parameters, followed by its elementwise
activation. Three losses are supported: supervised cross-entropy for
pretraining, and two unsupervised adaptation losses (hard pseudo-labeling
and an information-maximization loss with an optional pseudo-label term).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, NumericsError, TrainingError, read_input

LAYER_KINDS = ("dense", "normalization")
ACTIVATIONS = ("relu", "tanh", "identity")
LOSS_VARIANTS = ("cross_entropy", "pseudo_label", "shot_im")

_NORM_EPS = 1e-5
_NORM_MOMENTUM = 0.1  # weight of a batch in the running normalization statistics
_LOG_FLOOR = 1e-300
CHECKPOINT_FORMAT = "gala-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network: an affine map, then ``activation``
    elementwise on its output.

    ``dense`` maps with a weight matrix and a bias; ``normalization``
    standardizes each feature with current-batch statistics and applies a
    learnable scale and offset.
    """

    kind: str
    input_dim: int
    output_dim: int
    activation: str = "identity"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigurationError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigurationError("layer dims must be positive")
        if self.kind == "normalization" and self.input_dim != self.output_dim:
            raise ConfigurationError("normalization layer must preserve dimension")

    @property
    def param_count(self) -> int:
        if self.kind == "dense":
            return self.output_dim * self.input_dim + self.output_dim
        return 2 * self.output_dim


@dataclass
class Batch:
    """A batch of inputs with optional integer class labels.

    (B, d) inputs with (B,) labels are one batch, shared by every run of a
    pass; (R, B, d) inputs with (R, B) labels are one batch per run.
    """

    inputs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim not in (2, 3):
            raise ConfigurationError("batch inputs must be 2-D (batch_size x input_dim) "
                                     "or 3-D (runs x batch_size x input_dim)")
        if 0 in self.inputs.shape[:-1]:
            raise ConfigurationError("batch needs at least one sample")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.inputs.shape[:-1]:
                raise ConfigurationError("labels must match the batch's leading axes")

    @property
    def size(self) -> int:
        """Samples per run."""
        return self.inputs.shape[-2]


@dataclass(frozen=True)
class LossKind:
    """Which loss to optimize.

    ``shot_pl_weight`` only matters for ``shot_im``: it weighs a hard
    pseudo-label cross-entropy term added to the information-maximization
    core (mean prediction entropy minus entropy of the batch-mean
    prediction).
    """

    variant: str = "cross_entropy"
    shot_pl_weight: float = 0.3

    def __post_init__(self):
        if self.variant not in LOSS_VARIANTS:
            raise ConfigurationError(f"unknown loss variant {self.variant!r}")
        if not np.isfinite(self.shot_pl_weight) or self.shot_pl_weight < 0:
            raise ConfigurationError("shot_pl_weight must be finite and nonnegative")

    @property
    def supervised(self) -> bool:
        return self.variant == "cross_entropy"


@dataclass(frozen=True)
class OptimizerConfig:
    """Plain SGD; the learning rate is the only knob."""

    learning_rate: float

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be finite and positive")


@dataclass
class ModelParameters:
    """Ordered per-layer flat parameter vectors plus stable layer names.

    R models stacked on a run axis hold (R, P_i) arrays instead, one row
    per run.
    """

    layers: list[np.ndarray]
    layer_names: list[str]

    def run(self, r: int) -> "ModelParameters":
        """Run r of stacked parameters, as views of its rows; one model, with
        no run axis, is its own run."""
        if self.layers[0].ndim == 1:
            return self
        return ModelParameters([v[r] for v in self.layers], self.layer_names)

    def copy(self) -> "ModelParameters":
        return ModelParameters([v.copy() for v in self.layers], list(self.layer_names))

    @property
    def total_count(self) -> int:
        return int(sum(v.size for v in self.layers))

    def allfinite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.layers)


# Per activation: act(z, z) applies it in place to a layer's affine output, and
# dact(dx, a) its derivative, from the output a alone (no cache holds the input;
# relu's is positive where a is, a bool factor being 1.0 or 0.0) to d loss / da.
_ACTIVATIONS = {
    "relu": (lambda z, out: np.maximum(z, 0.0, out=out),
             lambda dx, a: np.multiply(dx, a > 0.0, out=dx)),
    "tanh": (np.tanh, lambda dx, a: np.multiply(dx, 1.0 - a * a, out=dx)),
    "identity": (None, None),
}


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: the classes."""
    # the ufuncs' reduce is what the ndarray methods call, past their wrappers
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, e)  # in place on its own temporary: the same bytes
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _safe_log(p: np.ndarray) -> np.ndarray:
    out = np.maximum(p, _LOG_FLOOR)
    return np.log(out, out)


def _suffix_min(starts) -> list[int]:
    """starts[r] lowered to the least start of runs r and after: nondecreasing,
    so the runs that reach any one layer are a prefix of the run axis."""
    return list(accumulate(reversed(starts), min))[::-1]


def _spans(runs) -> list[tuple[int, int]]:
    """Ascending run indices as maximal [lo, hi) ranges of the run axis."""
    spans: list[list[int]] = []
    for r in runs:
        if spans and spans[-1][1] == r:
            spans[-1][1] = r + 1
        else:
            spans.append([r, r + 1])
    return [tuple(span) for span in spans]


def _rows(runs: list[int]):
    """An index of the run axis that picks ``runs`` (ascending): a slice,
    which takes a view, when they are consecutive."""
    return slice(runs[0], runs[-1] + 1) if runs[-1] - runs[0] + 1 == len(runs) else runs


@lru_cache(maxsize=256)
def _forward_plan(starts: tuple[int, ...], n: int) -> tuple:
    """How a forward pass runs when run r joins at layer ``starts[r]``:
    (first, rows, steps). The pass starts at layer ``first`` on the input
    rows ``rows`` of the runs that start there (None: every run, the whole
    input). Each step, bottom up, is (layer, live, spans, join): ``live``
    lists the runs the layer runs for, ascending, in the order x stacks
    their rows; ``spans`` is None when they are every run, else splits
    them into maximal ranges of the run axis, one layer call each, as (a,
    b, lo, hi): rows [a, b) of x are runs [lo, hi); ``join`` is None or
    (rows, order), the next layer's input rows of the runs that join
    there, appended to x, and the permutation of x that restores run
    order (None when they join at the end). A step's starts come from a
    few layers, so each plan is worked out once.
    """
    first = min(starts)
    live = [r for r, s in enumerate(starts) if s == first]
    rows, steps = None if len(live) == len(starts) else _rows(live), []
    for i in range(first, n):
        spans, a = [], 0
        for lo, hi in _spans(live):
            spans.append((a, a + hi - lo, lo, hi))
            a += hi - lo
        joining = [r for r, s in enumerate(starts) if s == i + 1]
        join = None
        if joining:
            runs = live + joining
            order = None if live[-1] < joining[0] else [int(k) for k in np.argsort(runs)]
            join = _rows(joining), order
        steps.append((i, tuple(live), tuple(spans) if len(live) < len(starts) else None, join))
        if joining:
            live = sorted(runs)
    return first, rows, tuple(steps)


@lru_cache(maxsize=256)
def _backward_plan(wanted: tuple[frozenset[int], ...], n: int) -> tuple:
    """The layers a backward pass visits, top down, as (layer, k, spans,
    below): runs [0, k) reach the layer and dx holds them, each [lo, hi)
    span of runs that want the layer's gradient forms it, and runs
    [0, below) carry dx on below it.

    A run carries dx down to the least lowest wanted layer of its own and
    of every later run, so the runs at any layer are a prefix of the run
    axis. Policies fix their wanted sets at construction, so each plan is
    worked out once.
    """
    low = _suffix_min([min(w, default=n) for w in wanted])
    plan = []
    for i in range(n - 1, low[0] - 1, -1):
        spans = tuple(_spans(r for r, w in enumerate(wanted) if i in w))
        plan.append((i, bisect_right(low, i), spans, bisect_left(low, i)))
    return tuple(plan)


def _all_finite(x: np.ndarray) -> bool:
    # x . x is finite only when every entry is, and one BLAS call is cheaper
    # than isfinite and all; a sum of squares that overflows is checked in full
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


class Network:
    """A feedforward classifier defined by a list of :class:`LayerSpec`.

    The instance owns the architecture and the non-trainable running
    statistics of normalization layers; all trainable state is passed in
    and out as :class:`ModelParameters`, so ``forward`` and
    ``loss_and_gradients`` are pure functions of (params, batch) unless
    statistic updates are explicitly requested by the pretraining loop.

    Both take one model (1-D layer vectors) or R models stacked on a
    leading run axis ((R, P_i) layer arrays) that see the same batch,
    through one code path: layers index their parameters with ``...`` and
    reduce the batch on axis -2, so one model keeps no run axis, with
    (B, d) activations, and R models have (R, B, d) ones. Given a per-run
    batch ((R, B, d) inputs), run r sees batch r: R stacked models, or one
    model that every run shares, broadcast on the run axis rather than
    copied. The results then keep the run axis.
    """

    def __init__(self, layer_specs: Iterable[LayerSpec]):
        self.specs = list(layer_specs)
        if not self.specs:
            raise ConfigurationError("network needs at least one layer")
        for prev, cur in zip(self.specs, self.specs[1:]):
            if prev.output_dim != cur.input_dim:
                raise ConfigurationError(
                    f"layer dims do not chain: {prev.output_dim} -> {cur.input_dim}")
        self.layer_names = [f"L{i}_{s.kind}" for i, s in enumerate(self.specs)]
        self._param_counts = [s.param_count for s in self.specs]
        self._every_layer = frozenset(range(len(self.specs)))
        self._classes = np.arange(self.specs[-1].output_dim)
        # Per layer, bound once: whether it is dense, its weight or scale
        # count m (the bias or offset follows), a dense weight's shape, and
        # its activation and derivative (see _ACTIVATIONS).
        self._kernels = [(s.kind == "dense", c - s.output_dim, (s.output_dim, s.input_dim),
                          *_ACTIVATIONS[s.activation])
                         for s, c in zip(self.specs, self._param_counts)]
        # Per normalization layer: running (mean, var), initialized to the
        # standardized defaults and refreshed during pretraining. Used only
        # for single-sample batches where batch statistics are undefined.
        self.norm_stats: dict[int, tuple[np.ndarray, np.ndarray]] = {
            i: (np.zeros(s.output_dim), np.ones(s.output_dim))
            for i, s in enumerate(self.specs) if s.kind == "normalization"}

    @property
    def input_dim(self) -> int:
        return self.specs[0].input_dim

    @property
    def num_classes(self) -> int:
        return self.specs[-1].output_dim

    def init_params(self, seed: int = 0) -> ModelParameters:
        """Glorot-uniform dense weights, zero biases, identity norm affine."""
        rng = np.random.default_rng(seed)
        vecs = []
        for spec in self.specs:
            if spec.kind == "dense":
                limit = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
                w = rng.uniform(-limit, limit, size=(spec.output_dim, spec.input_dim))
                vecs.append(np.concatenate([w.ravel(), np.zeros(spec.output_dim)]))
            else:
                vecs.append(np.concatenate([np.ones(spec.output_dim), np.zeros(spec.output_dim)]))
        return ModelParameters(vecs, list(self.layer_names))

    def _check_params(self, params: ModelParameters):
        if len(params.layers) != len(self.specs):
            raise ConfigurationError(
                f"expected {len(self.specs)} parameter vectors, got {len(params.layers)}"
            )
        runs = params.layers[0].shape[:-1]
        for i, (vec, count) in enumerate(zip(params.layers, self._param_counts)):
            if vec.shape != (*runs, count):
                raise ConfigurationError(
                    f"layer {i} expects {count} parameters, got shape {vec.shape}"
                )

    def _stacked(self, params: ModelParameters,
                 batch: Batch | None) -> tuple[list[np.ndarray], tuple[int, ...]]:
        """The layer arrays a pass runs and its run axis: none, (), for one
        model on a shared batch (None stands for shared batches), else
        (R,). One model on a per-run batch gets a run axis of one row."""
        self._check_params(params)
        one = params.layers[0].ndim == 1
        if batch is None or batch.inputs.ndim == 2:
            return params.layers, () if one else (len(params.layers[0]),)
        runs = len(batch.inputs)
        if not one and len(params.layers[0]) != runs:
            raise ConfigurationError(f"{runs} batches for {len(params.layers[0])} runs")
        return [v[None] for v in params.layers] if one else params.layers, (runs,)

    def _view(self, i: int, vec: np.ndarray) -> tuple:
        """The views of layer i's parameters ``vec`` that a pass reads: a
        dense layer's transposed weight and bias, a normalization layer's
        scale and offset, each with vec's run axis, if any, and one to
        broadcast over the batch. A pass takes them once per layer array."""
        dense, m, shape, _, _ = self._kernels[i]
        if dense:
            return (vec[..., :m].reshape(*vec.shape[:-1], *shape).swapaxes(-1, -2),
                    vec[..., None, m:])
        return vec[..., None, :m], vec[..., None, m:]

    def _layer_forward(self, i: int, x: np.ndarray, view: tuple, update_stats: bool):
        """Layer i on x (..., B, d) with its parameter views ``view``, one
        model's, k runs' on the inputs of k runs, or one row they share.

        Returns the layer's output, its affine map activated in place, and
        its backward cache: (src, wt) for a dense layer, src being its input,
        and (src, inv_std, gamma) for normalization, src being the
        standardized input, each with x's run axis or a broadcast one. The
        backward reads the output from the pass's activations."""
        dense, _, _, act, _ = self._kernels[i]
        if dense:
            wt, b = view
            z = x @ wt
            z += b  # in place: one temporary fewer, same bytes
            cache = x, wt
        else:
            gamma, beta = view
            if x.shape[-2] >= 2:
                mu = x.mean(axis=-2, keepdims=True)
                var = x.var(axis=-2, keepdims=True)
                if update_stats:  # one model (loss_and_gradients checks)
                    m = _NORM_MOMENTUM
                    rm, rv = self.norm_stats[i]
                    self.norm_stats[i] = ((1 - m) * rm + m * mu.reshape(-1),
                                          (1 - m) * rv + m * var.reshape(-1))
                inv_std = 1.0 / np.sqrt(var + _NORM_EPS)
                src = x - mu
            else:
                # Single-sample batches fall back to frozen statistics, shared
                # by every run: the layer degrades to a fixed affine transform.
                rm, rv = self.norm_stats[i]
                inv_std = (1.0 / np.sqrt(rv + _NORM_EPS))[None]
                src = x - rm
            src *= inv_std
            z = gamma * src
            z += beta
            cache = src, inv_std, gamma
        if act is not None:
            act(z, z)
        return z, cache

    def _check_input(self, x: np.ndarray, i: int):
        if x.shape[-1] != self.specs[i].input_dim:
            raise ConfigurationError(
                f"batch input_dim {x.shape[-1]} does not match layer {i} "
                f"input_dim {self.specs[i].input_dim}"
            )

    def _inputs(self, inputs: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
        """A batch's inputs, checked, on the pass's run axis ``lead``: a
        shared batch broadcast as every run's input, with no copy."""
        self._check_input(inputs, 0)
        if inputs.ndim == 2:
            return np.broadcast_to(inputs, lead + inputs.shape) if lead else inputs
        runs = lead[0] if lead else 1
        if len(inputs) != runs:
            raise ConfigurationError(f"{len(inputs)} batches for {runs} runs")
        return inputs

    def _nonfinite(self, x: np.ndarray, i: int, live: Sequence[int]) -> NumericsError:
        """The error for layer i's output x, naming the runs among ``live``
        (x's rows; x with no run axis is run 0's) that went non-finite. It
        reports overflow, so the passes silence numpy's own warning for it."""
        bad = ~np.isfinite(x.reshape(*x.shape[:-2], -1)).all(axis=-1)
        return NumericsError(f"non-finite activation at layer {i} ({self.layer_names[i]})",
                             [live[b] for b in np.flatnonzero(bad)])

    def forward(self, params: ModelParameters, batch: Batch, start: int | Sequence[int] = 0,
                acts: list[np.ndarray] | None = None) -> np.ndarray:
        """Class probabilities, rows summing to one: (B, C) for one model,
        (R, B, C) for R stacked ones or R per-run batches.

        With ``start`` > 0 only layers ``start`` and up run, on
        ``acts[start]``: ``acts`` is the activation list that
        ``loss_and_gradients`` returned for the same batch. Stacked models
        may give one start per run, in any order; a run starting at
        ``len(specs)`` keeps the logits of ``acts``. Each layer runs for
        exactly the runs that start at or below it, and keeps no backward
        cache. When the layers below a run's start hold the parameters of
        the pass behind ``acts``, its result equals a full forward bit for
        bit.
        """
        layers, lead = self._stacked(params, batch)
        runs = lead[0] if lead else 1
        starts = (start,) * runs if isinstance(start, (int, np.integer)) else tuple(start)
        first = min(starts)
        if first and acts is None:
            raise ValueError(f"forward from layer {first} needs that layer's input")
        if acts is None:
            acts = [self._inputs(batch.inputs, lead)]
        if first < len(self.specs):
            self._check_input(acts[first], first)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._restart([self._view(i, v) for i, v in enumerate(layers)], acts, starts)

    def _restart(self, views: list[tuple], acts: list[np.ndarray],
                 starts: tuple[int, ...]) -> np.ndarray:
        """``forward`` after its checks: run r of the parameter views
        ``views`` from layer ``starts[r]``, on the activations ``acts``."""
        first, rows, steps = _forward_plan(starts, len(self.specs))
        x = acts[first] if rows is None else acts[first][rows]
        for i, live, spans, join in steps:
            view = views[i]
            if spans is None or len(view[0]) == 1:  # every run, or one row they share
                x = self._layer_forward(i, x, view, False)[0]
            elif len(spans) == 1:
                lo, hi = spans[0][2:]
                x = self._layer_forward(i, x, [v[lo:hi] for v in view], False)[0]
            else:
                x = np.concatenate([self._layer_forward(i, x[a:b], [v[lo:hi] for v in view],
                                                        False)[0]
                                    for a, b, lo, hi in spans])
            if not _all_finite(x):
                raise self._nonfinite(x, i, live)
            if join:
                rows, order = join
                x = np.concatenate([x, acts[i + 1][rows]])
                if order:
                    x = x[order]
        return softmax(x)

    def predict(self, params: ModelParameters, batch: Batch) -> np.ndarray:
        return np.argmax(self.forward(params, batch), axis=1)

    def _loss_and_dlogits(self, p: np.ndarray, labels: np.ndarray | None, loss: LossKind):
        """Per-run loss values and d loss / d logits for the probabilities
        p (..., B, C) of each run's batch; labels of None take the argmax."""
        n = p.shape[-2]  # batch size
        onehot = (p.argmax(axis=-1) if labels is None else labels)[..., None] == self._classes
        dlogits = p - onehot  # p - 1.0 at the label, p - 0.0, which is p, elsewhere
        # the argmax's probability is the row's max; means over a batch are
        # sums over n: the same bytes as mean()
        picked = np.maximum.reduce(p, axis=-1) if labels is None else (p * onehot).sum(axis=-1)
        nll = -np.add.reduce(_safe_log(picked), axis=-1) / n
        if loss.variant != "shot_im":
            dlogits /= n
            return nll, dlogits
        # shot_im: mean per-sample entropy, minus entropy of the mean
        # prediction, plus a weighted hard pseudo-label term.
        logp = _safe_log(p)
        ent = -(p * logp).sum(axis=-1)
        pbar = p.sum(axis=-2) / n
        logpbar = _safe_log(pbar)
        ent_mean_pred = -(pbar * logpbar).sum(axis=-1)
        value = ent.sum(axis=-1) / n - ent_mean_pred + loss.shot_pl_weight * nll

        d_ent = -p * (logp + ent[..., None]) / n
        # d/dlogits of -H(pbar); see the per-sample chain through pbar.
        logpbar = logpbar[..., None, :]
        d_div = p * (logpbar - (p * logpbar).sum(axis=-1, keepdims=True)) / n
        d_pl = loss.shot_pl_weight * dlogits / n
        return value, d_ent + d_div + d_pl

    def loss_and_gradients(self, params: ModelParameters, batch: Batch, loss: LossKind,
                           update_norm_stats: bool = False,
                           layers: Collection[int] | Sequence[Collection[int]] | None = None,
                           ) -> tuple:
        """Loss value, per-layer gradients, the class probabilities of the
        loss pass and its activations.

        For one model: a float, one gradient per layer, (B, C)
        probabilities and the activations with B leading. For R stacked
        models or R per-run batches: a list of R floats, one gradient list
        per run, (R, B, C) probabilities and (R, B, d) activations.
        ``acts[i]`` is the input layer i saw and ``acts[-1]`` the logits.

        ``layers`` holds the indices of the layers whose gradients are
        wanted (None: every layer), one collection per run when the results
        keep the run axis. The backward pass stops at the lowest of them:
        it forms a layer's parameter gradient only for the runs that want
        it, and carries a run's input gradient down only while a lower
        layer is wanted, by it or by a later run (order runs by lowest
        wanted layer, and none carries more than it needs). An empty set
        runs no backward at all. Every other entry of a gradient list is
        None. Wanted gradients equal those of a full backward bit for bit.

        The probabilities are the same computation as ``forward`` on the
        same params and batch, so they match it bit for bit; the
        activations let ``forward`` restart above layers that did not
        change. Unsupervised losses refuse labeled batches so adaptation
        code cannot accidentally leak labels into the update path. After
        its checks it runs ``_loss_pass``, which a pass calls directly.
        """
        stacked, lead, plan = self._checked(params, batch, loss, layers, update_norm_stats)
        with np.errstate(over="ignore", invalid="ignore"):
            values, grads, probs, acts = self._loss_pass(
                [self._view(i, v) for i, v in enumerate(stacked)],
                self._inputs(batch.inputs, lead), batch.labels, loss, plan, update_norm_stats)
        if not lead:
            return values[0], grads[0], probs, acts
        return values, grads, probs, acts

    def _checked(self, params: ModelParameters, batch: Batch | None, loss: LossKind, layers,
                 update_norm_stats: bool = False) -> tuple:
        """``loss_and_gradients``' checks of all but the inputs (``_inputs``), and the layer
        arrays, the run axis (see ``_stacked``) and the backward plan. A batch of None
        stands for unlabeled shared batches."""
        labels = None if batch is None else batch.labels
        if loss.supervised and labels is None:
            raise ValueError("cross_entropy requires labels")
        if not loss.supervised and labels is not None:
            raise ValueError(f"{loss.variant} must not receive labels")
        stacked, lead = self._stacked(params, batch)
        runs = lead[0] if lead else 1
        if update_norm_stats and runs > 1:
            raise ValueError("running statistics are updated from one model only")
        wanted = ((self._every_layer,) * runs if layers is None
                  else tuple(map(frozenset, layers)) if lead else (frozenset(layers),))
        if len(wanted) != runs:
            raise ValueError(f"{len(wanted)} layer sets for {runs} runs")
        return stacked, lead, _backward_plan(wanted, len(self.specs))

    def _loss_pass(self, views: list[tuple], x: np.ndarray, labels: np.ndarray | None,
                   loss: LossKind, plan: tuple, update_stats: bool = False) -> tuple:
        """``loss_and_gradients`` after its checks, on inputs x (..., B, d),
        the parameter views ``views`` and the plan of ``_checked``: a list
        of values and one of gradients per run, and the probabilities and
        activations on x's run axis, if any. A run's gradient of layer i is
        a row of one (k, P_i) array per span of runs; one model's is one
        (P_i,) array."""
        caches, acts = [], [x]
        for i, view in enumerate(views):
            x, cache = self._layer_forward(i, x, view, update_stats)
            if not _all_finite(x):
                raise self._nonfinite(x, i, range(len(x)))
            caches.append(cache)
            acts.append(x)
        probs = softmax(x)
        values, dx = self._loss_and_dlogits(probs, labels, loss)
        values = values.reshape(-1).tolist()
        if not all(map(math.isfinite, values)):
            raise NumericsError("non-finite loss value",
                                [r for r, v in enumerate(values) if not math.isfinite(v)])
        runs = len(values)
        grads: list[list[np.ndarray | None]] = [[None] * len(views) for _ in range(runs)]
        for i, k, spans, below in plan:
            arrays, out = caches[i], acts[i + 1]
            caches[i] = None  # free each cache once consumed
            if k < runs:  # the later runs stopped above this layer
                arrays, out = [v[:k] for v in arrays], out[:k]
            dense, m, shape, _, dact = self._kernels[i]
            size = self._param_counts[i]
            if dact is not None:
                dact(dx, out)  # now d loss / d affine output
            src = arrays[0]
            for lo, hi in spans:
                d, s = (dx, src) if hi - lo == k else (dx[lo:hi], src[lo:hi])
                lead = d.shape[:-2]
                g = np.empty(lead + (size,))  # weights or scale, then bias or offset
                if dense:
                    np.matmul(d.swapaxes(-1, -2), s, out=g[..., :m].reshape(lead + shape))
                else:
                    np.add.reduce(d * s, axis=-2, out=g[..., :m])
                np.add.reduce(d, axis=-2, out=g[..., m:])
                for r, row in zip(range(lo, hi), g if lead else (g,)):
                    grads[r][i] = row
            if not below:
                continue
            if below < k:
                dx, arrays = dx[:below], [v[:below] for v in arrays]
            if dense:
                dx = dx @ arrays[1].swapaxes(-1, -2)
            elif src.shape[-2] >= 2:  # batch statistics
                xhat, inv_std, gamma = arrays
                nb = xhat.shape[-2]
                dxhat = dx * gamma
                dx = inv_std / nb * (nb * dxhat - dxhat.sum(axis=-2, keepdims=True)
                                     - xhat * (dxhat * xhat).sum(axis=-2, keepdims=True))
            else:  # frozen statistics
                _, inv_std, gamma = arrays
                dx = dx * gamma * inv_std
        return values, grads, probs, acts


def accuracy(network: Network, params: ModelParameters, batch: Batch) -> float:
    """Fraction of correct argmax predictions, in percent."""
    if batch.labels is None:
        raise ValueError("accuracy requires labels")
    return float(np.mean(network.predict(params, batch) == batch.labels) * 100.0)


def minibatches(data: Batch, batch_size: int, num_steps: int, seed: int = 0) -> Iterator[Batch]:
    """Deterministic shuffled minibatch stream, cycling epochs as needed."""
    if batch_size < 1 or batch_size > data.size:
        raise ConfigurationError("batch_size must be in [1, dataset size]")
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < num_steps:
        order = rng.permutation(data.size)
        for start in range(0, data.size - batch_size + 1, batch_size):
            if produced >= num_steps:
                return
            idx = order[start : start + batch_size]
            labels = None if data.labels is None else data.labels[idx]
            yield Batch(data.inputs[idx], labels)
            produced += 1


@dataclass
class PretrainResult:
    network: Network
    params: ModelParameters
    val_accuracy: float
    num_steps: int
    seed: int


def pretrain_erm(layer_specs: list[LayerSpec], train_stream: Iterable[Batch], val: Batch,
                 opt: OptimizerConfig, seed: int = 0) -> PretrainResult:
    """Supervised SGD pretraining over a finite labeled batch stream.

    Deterministic given the seed and the stream; an exhausted (empty)
    stream returns the initialization untouched.
    """
    network = Network(layer_specs)
    params = network.init_params(seed)
    loss = LossKind("cross_entropy")
    step = 0
    for batch in train_stream:
        if batch.labels is None:
            raise ValueError("pretraining requires labeled batches")
        try:
            _, grads, _, _ = network.loss_and_gradients(params, batch, loss,
                                                        update_norm_stats=True)
        except NumericsError as exc:
            raise TrainingError(f"pretraining diverged at step {step}: {exc}") from exc
        for vec, g in zip(params.layers, grads):
            vec -= opt.learning_rate * g
        if not params.allfinite():
            raise TrainingError(f"parameters diverged at step {step}")
        step += 1
    return PretrainResult(network, params, accuracy(network, params, val), step, seed)


def save_checkpoint(path: str | Path, network: Network, params: ModelParameters, seed: int,
                    metadata: dict | None = None) -> None:
    """Write a versioned JSON checkpoint (exact float round-trip via repr)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "layer_specs": [asdict(s) for s in network.specs],  # in field order
        "layer_names": list(params.layer_names),
        "params": [v.tolist() for v in params.layers],
        "norm_stats": {
            str(i): {"mean": m.tolist(), "var": v.tolist()}
            for i, (m, v) in sorted(network.norm_stats.items())
        },
        "seed": int(seed),
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[Network, ModelParameters, int, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    A missing, undecodable or malformed file raises a
    ConfigurationError naming the path.
    """
    p = Path(path)
    payload = read_input(p, "checkpoint")
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(f"{p} is not a model checkpoint")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {payload.get('format_version')}")
    try:
        specs = [LayerSpec(**s) for s in payload["layer_specs"]]
        network = Network(specs)
        for key, stats in payload["norm_stats"].items():
            network.norm_stats[int(key)] = (np.asarray(stats["mean"], dtype=np.float64),
                                            np.asarray(stats["var"], dtype=np.float64))
        params = ModelParameters([np.asarray(v, dtype=np.float64) for v in payload["params"]],
                                 list(payload["layer_names"]))
        if params.layer_names != network.layer_names:
            raise ConfigurationError(f"layer_names {params.layer_names} do not match the "
                                     f"layers {network.layer_names}")
        network._check_params(params)
        return network, params, int(payload["seed"]), dict(payload["metadata"])
    except KeyError as e:
        raise ConfigurationError(f"checkpoint {p} lacks field {e}") from e
    except (ConfigurationError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ConfigurationError(f"checkpoint {p} is malformed: {e}") from e
