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
        """Run r of stacked parameters, as views of its rows."""
        return ModelParameters([v[r] for v in self.layers], self.layer_names)

    def copy(self) -> "ModelParameters":
        return ModelParameters([v.copy() for v in self.layers], list(self.layer_names))

    @property
    def total_count(self) -> int:
        return int(sum(v.size for v in self.layers))

    def allfinite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.layers)


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _act_grad(name: str, a: np.ndarray) -> np.ndarray | float:
    # from the activation's output alone (relu's is positive exactly where its
    # input is), so no backward cache holds the pre-activation
    if name == "relu":
        return (a > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - a * a
    return 1.0


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: the classes."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)  # in place on its own temporary: the same bytes
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, _LOG_FLOOR))


def _suffix_min(starts) -> list[int]:
    """starts[r] lowered to the least start of runs r and after: nondecreasing,
    so the runs that reach any one layer are a prefix of the run axis."""
    out = list(starts)
    for r in range(len(out) - 2, -1, -1):
        if out[r] > out[r + 1]:
            out[r] = out[r + 1]
    return out


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
    rows ``rows`` of the runs that start there. Each step, bottom up, is
    (layer, live, spans, join): ``live`` lists the runs the layer runs
    for, ascending, in the order x stacks their rows; ``spans`` splits them
    into maximal ranges of the run axis, one layer call each, as (a, b,
    lo, hi): rows [a, b) of x are runs [lo, hi); ``join`` is None or
    (rows, order), the next layer's input rows of the runs that join
    there, appended to x, and the permutation of x that restores run
    order (None when they join at the end). A step's starts come from a
    few layers, so each plan is worked out once.
    """
    first = min(starts)
    live = [r for r, s in enumerate(starts) if s == first]
    rows, steps = _rows(live), []
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
        steps.append((i, tuple(live), tuple(spans), join))
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


def _bad_runs(x: np.ndarray) -> list[int]:
    return np.flatnonzero(~np.isfinite(x.reshape(len(x), -1)).all(axis=1)).tolist()


class Network:
    """A feedforward classifier defined by a list of :class:`LayerSpec`.

    The instance owns the architecture and the non-trainable running
    statistics of normalization layers; all trainable state is passed in
    and out as :class:`ModelParameters`, so ``forward`` and
    ``loss_and_gradients`` are pure functions of (params, batch) unless
    statistic updates are explicitly requested by the pretraining loop.

    Both take one model (1-D layer vectors) or R models stacked on a
    leading run axis ((R, P_i) layer arrays) that see the same batch; the
    one code path runs on the run axis, and one model is R = 1 with the
    axis dropped from the results. Activations are (R, B, d) arrays.
    Given a per-run batch ((R, B, d) inputs), run r sees batch r: R
    stacked models, or one model that every run shares, broadcast on the
    run axis rather than copied. The results then keep the run axis.
    """

    def __init__(self, layer_specs: Iterable[LayerSpec]):
        self.specs = list(layer_specs)
        if not self.specs:
            raise ConfigurationError("network needs at least one layer")
        for prev, cur in zip(self.specs, self.specs[1:]):
            if prev.output_dim != cur.input_dim:
                raise ConfigurationError(
                    f"layer dims do not chain: {prev.output_dim} -> {cur.input_dim}"
                )
        self.layer_names = [f"L{i}_{s.kind}" for i, s in enumerate(self.specs)]
        self._param_counts = [s.param_count for s in self.specs]
        self._every_layer = frozenset(range(len(self.specs)))
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
                b = np.zeros(spec.output_dim)
                vecs.append(np.concatenate([w.ravel(), b]))
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
                 batch: Batch | None) -> tuple[list[np.ndarray], int, bool]:
        """The layer arrays on a run axis, the number of runs, and whether
        the results drop the run axis: one model on a shared batch (None
        stands for shared batches). One model with a per-run batch keeps
        its single row, which the layers broadcast over the runs."""
        self._check_params(params)
        one = params.layers[0].ndim == 1
        layers = [v[None] for v in params.layers] if one else params.layers
        if batch is None or batch.inputs.ndim == 2:
            return layers, len(layers[0]), one
        runs = len(batch.inputs)
        if not one and len(layers[0]) != runs:
            raise ConfigurationError(f"{runs} batches for {len(layers[0])} runs")
        return layers, runs, False

    def _layer_forward(self, i: int, x: np.ndarray, vec: np.ndarray, update_stats: bool):
        """Layer i on x (k, B, d), the inputs of k runs whose parameters are
        the rows of ``vec``, or one row of ``vec`` that they share.

        Returns the layer's output, its affine map activated, and its
        backward cache: the kind and the arrays (src, ...), src being the
        dense layer's input or normalization's standardized input. Every
        cached array leads with a run axis. The backward reads the output
        from the pass's activations, so no cache holds it."""
        spec = self.specs[i]
        if spec.kind == "dense":
            n = spec.output_dim * spec.input_dim
            w = vec[:, :n].reshape(-1, spec.output_dim, spec.input_dim)
            z = x @ w.swapaxes(-1, -2)
            z += vec[:, None, n:]  # in place: one temporary fewer, same bytes
            kind, src, rest = "dense", x, (w,)
        else:
            gamma = vec[:, None, : spec.output_dim]
            if x.shape[1] >= 2:
                kind = "norm_batch"
                mu = x.mean(axis=1, keepdims=True)
                var = x.var(axis=1, keepdims=True)
                if update_stats:  # one model (loss_and_gradients checks)
                    m = _NORM_MOMENTUM
                    rm, rv = self.norm_stats[i]
                    self.norm_stats[i] = ((1 - m) * rm + m * mu[0, 0],
                                          (1 - m) * rv + m * var[0, 0])
                inv_std = 1.0 / np.sqrt(var + _NORM_EPS)
                src = x - mu
            else:
                # Single-sample batches fall back to frozen statistics, shared
                # by every run: the layer degrades to a fixed affine transform.
                kind = "norm_frozen"
                rm, rv = self.norm_stats[i]
                inv_std = (1.0 / np.sqrt(rv + _NORM_EPS))[None, None]
                src = x - rm
            src *= inv_std
            z = gamma * src
            z += vec[:, None, spec.output_dim :]
            rest = inv_std, gamma
        return _act(spec.activation, z), (kind, (src, *rest))

    def _check_input(self, x: np.ndarray, i: int):
        if x.shape[-1] != self.specs[i].input_dim:
            raise ConfigurationError(
                f"batch input_dim {x.shape[-1]} does not match layer {i} "
                f"input_dim {self.specs[i].input_dim}"
            )

    def _inputs(self, inputs: np.ndarray, runs: int) -> np.ndarray:
        """A batch's inputs, checked, on the run axis: a shared batch as every
        run's input, with no copy (broadcast_to costs microseconds)."""
        self._check_input(inputs, 0)
        if inputs.ndim == 2:
            return inputs[None] if runs == 1 else np.broadcast_to(inputs, (runs,) + inputs.shape)
        if len(inputs) != runs:
            raise ConfigurationError(f"{len(inputs)} batches for {runs} runs")
        return inputs

    def _nonfinite(self, x: np.ndarray, i: int, live: Sequence[int]) -> NumericsError:
        """The error for layer i's output x, naming the runs among ``live``
        (x's rows) that went non-finite. It reports overflow, so the passes
        silence numpy's own warning for it."""
        return NumericsError(f"non-finite activation at layer {i} ({self.layer_names[i]})",
                             [live[b] for b in _bad_runs(x)])

    def _forward_cached(self, layers: list[np.ndarray], x: np.ndarray, update_stats=False):
        """The loss pass's forward: every stacked model whose parameters are
        ``layers`` runs every layer on its row of the inputs x (R, B, d).
        Returns the logits, one backward cache per layer and the activations
        (``acts[i]`` is the input of layer i, ``acts[-1]`` the logits)."""
        live = range(len(x))
        caches, acts = [], [x]
        for i in range(len(self.specs)):
            x, cache = self._layer_forward(i, x, layers[i], update_stats)
            if not _all_finite(x):
                raise self._nonfinite(x, i, live)
            caches.append(cache)
            acts.append(x)
        return x, caches, acts

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
        layers, runs, one = self._stacked(params, batch)
        starts = (start,) * runs if isinstance(start, (int, np.integer)) else tuple(start)
        first = min(starts)
        if first and acts is None:
            raise ValueError(f"forward from layer {first} needs that layer's input")
        if acts is None:
            acts = [self._inputs(batch.inputs, runs)]
        elif one:
            acts = [a[None] for a in acts]
        if first < len(self.specs):
            self._check_input(acts[first], first)
        with np.errstate(over="ignore", invalid="ignore"):
            probs = self._restart(layers, acts, starts)
        return probs[0] if one else probs

    def _restart(self, layers: list[np.ndarray], acts: list[np.ndarray],
                 starts: tuple[int, ...]) -> np.ndarray:
        """``forward`` after its checks, on a run axis: run r of ``layers``
        from layer ``starts[r]``, on the activations ``acts``."""
        first, rows, steps = _forward_plan(starts, len(self.specs))
        x = acts[first][rows]
        for i, live, spans, join in steps:
            vec = layers[i]
            if len(vec) == 1:  # one row that every run shares
                x = self._layer_forward(i, x, vec, False)[0]
            elif len(spans) == 1:
                x = self._layer_forward(i, x, vec[spans[0][2]:spans[0][3]], False)[0]
            else:
                x = np.concatenate([self._layer_forward(i, x[a:b], vec[lo:hi], False)[0]
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

    def _loss_and_dlogits(self, p: np.ndarray, labels: np.ndarray | None, loss: LossKind,
                          runs: int):
        """Per-run loss values and d loss / d logits for ``p``, the
        probability rows of every run's batch one after another."""
        rows, classes = p.shape
        n = rows // runs  # batch size
        idx = np.arange(rows)
        # the ndarray methods skip wrappers that cost microseconds
        y = (p.argmax(axis=1) if labels is None else labels.reshape(-1) if labels.ndim == 2
             else np.concatenate([labels] * runs))
        p_onehot = p.copy()
        p_onehot[idx, y] -= 1.0  # p - onehot, as p - 0.0 is p
        # means over each run's rows are sums over n: the same bytes as mean()
        nll = -_safe_log(p[idx, y]).reshape(runs, n).sum(axis=1) / n
        if loss.variant != "shot_im":
            p_onehot /= n
            return nll, p_onehot
        # shot_im: mean per-sample entropy, minus entropy of the mean
        # prediction, plus a weighted hard pseudo-label term.
        logp = _safe_log(p)
        ent = -(p * logp).sum(axis=1)
        p3 = p.reshape(runs, n, classes)
        pbar = p3.sum(axis=1) / n
        logpbar = _safe_log(pbar)
        ent_mean_pred = -(pbar * logpbar).sum(axis=1)
        value = ent.reshape(runs, n).sum(axis=1) / n - ent_mean_pred + loss.shot_pl_weight * nll

        d_ent = -p * (logp + ent[:, None]) / n
        # d/dlogits of -H(pbar); see the per-sample chain through pbar.
        logpbar = logpbar[:, None, :]
        d_div = p3 * (logpbar - (p3 * logpbar).sum(axis=2, keepdims=True)) / n
        d_pl = loss.shot_pl_weight * p_onehot / n
        return value, d_ent + d_div.reshape(rows, classes) + d_pl

    def loss_and_gradients(
        self,
        params: ModelParameters,
        batch: Batch,
        loss: LossKind,
        update_norm_stats: bool = False,
        layers: Collection[int] | Sequence[Collection[int]] | None = None,
    ) -> tuple:
        """Loss value, per-layer gradients, the class probabilities of the
        loss pass and its activations.

        For one model: a float, one gradient per layer, (B, C)
        probabilities and the activations with B leading. For R stacked
        models or R per-run batches: a list of R floats, one gradient list
        per run, (R, B, C) probabilities and (R, B, d) activations. ``acts[i]`` is the input
        layer i saw and ``acts[-1]`` the logits.

        ``layers`` holds the indices of the layers whose gradients are
        wanted (None: every layer), one collection per run when the
        results keep the run axis.
        The backward pass stops at the lowest of them: it forms a layer's
        parameter gradient only for the runs that want it, and carries a
        run's input gradient down only while a lower layer is wanted, by
        it or by a later run (order runs by lowest wanted layer, and none
        carries more than it needs). An empty set runs no backward at
        all. Every other entry of a gradient list is None. Wanted
        gradients equal those of a full backward bit for bit.

        The probabilities are the same computation as ``forward`` on the
        same params and batch, so they match it bit for bit; the
        activations let ``forward`` restart above layers that did not
        change. Unsupervised losses refuse labeled batches so adaptation
        code cannot accidentally leak labels into the update path. After its
        checks it runs ``_loss_pass``, which an adaptation pass calls directly.
        """
        stacked, runs, one, plan = self._checked(params, batch, loss, layers, update_norm_stats)
        with np.errstate(over="ignore", invalid="ignore"):
            values, grads, probs, acts = self._loss_pass(
                stacked, self._inputs(batch.inputs, runs), batch.labels, loss, plan,
                update_norm_stats)
        if one:
            return values[0], grads[0], probs[0], [a[0] for a in acts]
        return values, grads, probs, acts

    def _checked(self, params: ModelParameters, batch: Batch | None, loss: LossKind, layers,
                 update_norm_stats: bool = False) -> tuple:
        """``loss_and_gradients``' checks of all but the inputs (``_inputs``), and the layer
        arrays on a run axis, the run count, whether the results drop the run axis and the
        backward plan. A batch of None stands for unlabeled shared batches."""
        labels = None if batch is None else batch.labels
        if loss.supervised and labels is None:
            raise ValueError("cross_entropy requires labels")
        if not loss.supervised and labels is not None:
            raise ValueError(f"{loss.variant} must not receive labels")
        stacked, runs, one = self._stacked(params, batch)
        if update_norm_stats and runs > 1:
            raise ValueError("running statistics are updated from one model only")
        wanted = ((self._every_layer,) * runs if layers is None
                  else (frozenset(layers),) if one else tuple(map(frozenset, layers)))
        if len(wanted) != runs:
            raise ValueError(f"{len(wanted)} layer sets for {runs} runs")
        return stacked, runs, one, _backward_plan(wanted, len(self.specs))

    def _loss_pass(self, layers: list[np.ndarray], x: np.ndarray, labels: np.ndarray | None,
                   loss: LossKind, plan: tuple, update_stats: bool = False) -> tuple:
        """``loss_and_gradients`` after its checks, on inputs x (R, B, d) and
        the plan of ``_checked``, keeping the run axis. A run's gradient of
        layer i is a row of one (k, P_i) array per span of runs."""
        n = len(self.specs)
        runs = len(x)
        logits, caches, acts = self._forward_cached(layers, x, update_stats)
        probs = softmax(logits)
        shape = probs.shape
        values, dx = self._loss_and_dlogits(probs.reshape(-1, shape[-1]), labels, loss, runs)
        values = values.tolist()
        if not all(map(math.isfinite, values)):
            raise NumericsError("non-finite loss value",
                                [r for r, v in enumerate(values) if not math.isfinite(v)])
        dx = dx.reshape(shape)
        grads: list[list[np.ndarray | None]] = [[None] * n for _ in range(runs)]
        for i, k, spans, below in plan:
            kind, arrays = caches[i]
            caches[i] = None  # free each cache once consumed
            out = acts[i + 1]
            if k < runs:  # the later runs stopped above this layer
                arrays, out = [v[:k] for v in arrays], out[:k]
            spec = self.specs[i]
            dact = _act_grad(spec.activation, out)
            if not isinstance(dact, float):  # identity's 1.0 would only copy dx
                dx = dx * dact  # d loss / d affine output
            del dact  # a (k, B, d) array: free it before the layer's products
            m = self._param_counts[i] - spec.output_dim  # weights or scale, then bias or offset
            for lo, hi in spans:
                d, src = (dx, arrays[0]) if hi - lo == k else (dx[lo:hi], arrays[0][lo:hi])
                g = np.empty((hi - lo, self._param_counts[i]))
                if kind == "dense":
                    np.matmul(d.swapaxes(-1, -2), src,
                              out=g[:, :m].reshape(hi - lo, spec.output_dim, spec.input_dim))
                else:
                    np.add.reduce(d * src, axis=1, out=g[:, :m])
                np.add.reduce(d, axis=1, out=g[:, m:])
                for r in range(lo, hi):
                    grads[r][i] = g[r - lo]
            if not below:
                continue
            if below < k:
                dx, arrays = dx[:below], [v[:below] for v in arrays]
            if kind == "dense":
                dx = dx @ arrays[1]
            elif kind == "norm_batch":
                xhat, inv_std, gamma = arrays
                nb = xhat.shape[1]
                dxhat = dx * gamma
                dx = inv_std / nb * (nb * dxhat - dxhat.sum(axis=1, keepdims=True)
                                     - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))
            else:  # norm_frozen
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
    # the model as the one run of a run axis: rows are views, so each update
    # lands in params, and no step adds and drops the axis
    run = ModelParameters([v[None] for v in params.layers], params.layer_names)
    loss = LossKind("cross_entropy")
    step = 0
    for batch in train_stream:
        if batch.labels is None:
            raise ValueError("pretraining requires labeled batches")
        try:
            _, (grads,), _, _ = network.loss_and_gradients(run, batch, loss,
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
