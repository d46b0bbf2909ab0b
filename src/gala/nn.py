"""Minimal feedforward classification networks with hand-written gradients.

Everything is float64 numpy. A network is described by an ordered list of
:class:`LayerSpec`; trainable state lives in :class:`ModelParameters` as one
flat vector per layer, so optimizer-side code can treat layers as opaque
vectors. The public entries take one model; a pass (``gala.runner``) steps
R models in lockstep over the same batches as one (R, P_i) array per layer.
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
from typing import Iterable, Iterator

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
    """A batch of (B, d) inputs with optional (B,) integer class labels,
    shared by every run of a pass."""

    inputs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise ConfigurationError("batch inputs must be 2-D (batch_size x input_dim)")
        if not len(self.inputs):
            raise ConfigurationError("batch needs at least one sample")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.inputs.shape[:1]:
                raise ConfigurationError("labels must be 1-D and match batch size")

    @property
    def size(self) -> int:
        return len(self.inputs)


def _cut(inputs: np.ndarray, labels: np.ndarray | None, rows) -> Batch:
    """Rows ``rows`` (a nonempty slice or index array) of a checked
    batch's inputs and labels, as a Batch that skips ``Batch``'s checks:
    rows of checked arrays need none. A pass that cuts many batches from
    one source checks the source once and cuts through here."""
    batch = object.__new__(Batch)
    batch.inputs = inputs[rows]
    batch.labels = None if labels is None else labels[rows]
    return batch


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


@lru_cache(maxsize=256)
def _forward_plan(starts: tuple[int, ...], n: int) -> tuple:
    """How a forward pass runs when run r restarts at layer ``starts[r]``:
    one (layer, spans) per layer from the lowest start up. ``spans`` is
    None when every run runs the layer, else the maximal [lo, hi) ranges
    of the run axis that hold the runs starting at or below it, one layer
    call each. A step's starts come from a few layers, so each plan is
    worked out once.
    """
    top = max(starts)
    return tuple((i, None if top <= i else tuple(_spans(r for r, s in enumerate(starts) if s <= i)))
                 for i in range(min(starts), n))


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
    ``loss_and_gradients`` are pure functions of (params, batch); only
    ``pretrain_erm`` moves the statistics.

    Both take one model (1-D layer vectors); their bodies also take R
    models stacked on a leading run axis ((R, P_i) layer arrays), as a pass
    does: layers index their parameters with ``...`` and reduce the batch
    on axis -2, so one model keeps no run axis and has (B, d) activations.
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

    def _check_params(self, params: ModelParameters) -> tuple[int, ...]:
        """The parameters' run axis, () or (R,), once their shapes check out."""
        if len(params.layers) != len(self.specs):
            raise ConfigurationError(f"expected {len(self.specs)} parameter vectors, "
                                     f"got {len(params.layers)}")
        runs = params.layers[0].shape[:-1][:1]  # one run axis at most
        for i, (vec, count) in enumerate(zip(params.layers, self._param_counts)):
            if vec.shape != (*runs, count):
                raise ConfigurationError(f"layer {i} expects {count} parameters, "
                                         f"got shape {vec.shape}")
        return runs

    def _one_model(self, params: ModelParameters) -> None:
        """``_check_params`` for the public entries, which refuse (R, P_i) layers."""
        if self._check_params(params):
            raise ConfigurationError(f"expected 1-D layers, got shape {params.layers[0].shape}")

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
        model's, or k runs' on the inputs of k runs.

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
                src = x - mu
                # x.var's own arithmetic, on the deviations it would form again
                var = np.add.reduce(src * src, axis=-2, keepdims=True) / x.shape[-2]
                if update_stats:  # one model: pretrain_erm's
                    m = _NORM_MOMENTUM
                    rm, rv = self.norm_stats[i]
                    self.norm_stats[i] = ((1 - m) * rm + m * mu.reshape(-1),
                                          (1 - m) * rv + m * var.reshape(-1))
                inv_std = 1.0 / np.sqrt(var + _NORM_EPS)
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

    def _inputs(self, inputs: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
        """A batch's inputs, their width checked, on the pass's run axis
        ``lead``: broadcast as every run's input, with no copy."""
        if inputs.shape[-1] != self.input_dim:
            raise ConfigurationError(f"batch input_dim {inputs.shape[-1]} does not match "
                                     f"layer 0 input_dim {self.input_dim}")
        return np.broadcast_to(inputs, lead + inputs.shape) if lead else inputs

    def _nonfinite(self, x: np.ndarray, i: int) -> NumericsError:
        """The error for layer i's output x, naming the runs (x's rows; x with
        no run axis is run 0's) that went non-finite. It reports overflow, so
        the passes silence numpy's own warning for it."""
        bad = ~np.isfinite(x.reshape(*x.shape[:-2], -1)).all(axis=-1)
        return NumericsError(f"non-finite activation at layer {i} ({self.layer_names[i]})",
                             np.flatnonzero(bad))

    def forward(self, params: ModelParameters, batch: Batch) -> np.ndarray:
        """One model's (B, C) class probabilities, rows summing to one."""
        self._one_model(params)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._restart([self._view(i, v) for i, v in enumerate(params.layers)],
                                 [self._inputs(batch.inputs, ())], (0,))

    def _restart(self, views: list[tuple], acts: list[np.ndarray],
                 starts: tuple[int, ...]) -> np.ndarray:
        """Run r of the parameter views ``views`` from layer ``starts[r]``,
        starts in any order, on the activations ``acts`` of a loss pass (the
        inputs alone when every start is 0): a full forward's bytes when the
        layers below each start hold the pass's parameters. Below the highest
        start the rerun rows overwrite theirs in ``acts``, whose other rows
        hold the outputs of runs that start higher, so call it once per loss
        pass; one start never writes ``acts``."""
        x = acts[min(starts)]
        for i, spans in _forward_plan(starts, len(self.specs)):
            view = views[i]
            if spans is None:  # every run
                x = self._layer_forward(i, x, view, False)[0]
            else:
                for lo, hi in spans:
                    acts[i + 1][lo:hi] = self._layer_forward(
                        i, x[lo:hi], [v[lo:hi] for v in view], False)[0]
                x = acts[i + 1]
            if not _all_finite(x):
                raise self._nonfinite(x, i)
        return softmax(x)

    def predict(self, params: ModelParameters, batch: Batch) -> np.ndarray:
        """One model's (B,) argmax classes."""
        return np.argmax(self.forward(params, batch), axis=-1)

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

    def loss_and_gradients(self, params: ModelParameters, batch: Batch, loss: LossKind) -> tuple:
        """One model's loss value (a float), every layer's gradient, the (B,
        C) class probabilities of the loss pass and its activations:
        ``acts[i]`` is the input layer i saw and ``acts[-1]`` the logits.

        The probabilities are the same computation as ``forward`` on the
        same params and batch, so they match it bit for bit; the
        activations let a step restart the forward pass (``_restart``)
        above layers that did not change. Unsupervised losses refuse
        labeled batches so adaptation code cannot accidentally leak labels
        into the update path. After its checks it runs ``_loss_pass``,
        which a pass, a frozen run and ``pretrain_erm`` call directly.
        """
        self._one_model(params)
        plan = self._checked(params, batch.labels, loss, (self._every_layer,))[1]
        with np.errstate(over="ignore", invalid="ignore"):
            values, grads, probs, acts = self._loss_pass(
                [self._view(i, v) for i, v in enumerate(params.layers)],
                self._inputs(batch.inputs, ()), batch.labels, loss, plan)
        return values[0], grads[0], probs, acts

    def _checked(self, params: ModelParameters, labels: np.ndarray | None, loss: LossKind,
                 wanted) -> tuple:
        """A pass's checks of all but its inputs (``_inputs``), for batches with
        ``labels`` (None: unlabeled ones): its run axis (``_check_params``) and the
        ``_backward_plan`` of ``wanted``, a set of layers per run (one model is one run)."""
        if loss.supervised and labels is None:
            raise ValueError("cross_entropy requires labels")
        if not loss.supervised and labels is not None:
            raise ValueError(f"{loss.variant} must not receive labels")
        return (self._check_params(params),
                _backward_plan(tuple(map(frozenset, wanted)), len(self.specs)))

    def _loss_pass(self, views: list[tuple], x: np.ndarray, labels: np.ndarray | None,
                   loss: LossKind, plan: tuple, update_stats: bool = False) -> tuple:
        """``loss_and_gradients`` after its checks, on inputs x (..., B, d),
        the parameter views ``views`` and the plan of ``_checked``: a list
        of values and one of gradients per run, and the probabilities and
        activations on x's run axis, if any; one model may take batches
        stacked on a steps axis instead, a value per batch. A run's gradient
        of layer i is a row of one (k, P_i) array per span of runs; one
        model's is one (P_i,) array."""
        caches, acts = [], [x]
        for i, view in enumerate(views):
            x, cache = self._layer_forward(i, x, view, update_stats)
            if not _all_finite(x):
                raise self._nonfinite(x, i)
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
    """Fraction of one model's correct argmax predictions, in percent."""
    if batch.labels is None:
        raise ValueError("accuracy requires labels")
    return float(np.mean(network.predict(params, batch) == batch.labels) * 100.0)


def minibatches(data: Batch, batch_size: int, num_steps: int, seed: int = 0) -> Iterator[Batch]:
    """Deterministic shuffled minibatch stream from a (B, d) batch.

    Each epoch cuts a fresh permutation of ``data`` into full batches of
    ``batch_size`` (a last partial one is dropped), cycling epochs until
    ``num_steps`` batches are out. ``data`` is checked once; its batches
    are its rows (``_cut``) and need no checks of their own.
    """
    data = Batch(data.inputs, data.labels)  # no copy of checked arrays
    if batch_size < 1 or batch_size > data.size:
        raise ConfigurationError("batch_size must be in [1, dataset size]")
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < num_steps:
        order = rng.permutation(data.size)
        for start in range(0, data.size - batch_size + 1, batch_size):
            if produced >= num_steps:
                return
            yield _cut(data.inputs, data.labels, order[start : start + batch_size])
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
    stream returns the initialization untouched. Each batch is a labeled
    (B, d) batch; a batch of two or more samples also moves the
    normalization layers' running statistics.

    Each step has the bytes of ``loss_and_gradients(params, batch,
    cross_entropy)``, ``vec -= lr * g`` per layer and the statistics' move
    (momentum 0.1), but what cannot vary is not checked per batch: the
    parameters of ``init_params``, the loss and the full backward plan. The
    update is in place, so the layer views taken once stay valid. Per
    batch it checks the labels and the batch's input_dim
    (``Network._inputs``), runs ``Network._loss_pass`` and checks every
    layer for finite values after the update. A non-finite activation,
    loss or parameter raises a TrainingError that names the step.
    """
    network = Network(layer_specs)
    params = network.init_params(seed)
    layers, loss, lr = params.layers, LossKind("cross_entropy"), opt.learning_rate
    plan = _backward_plan((network._every_layer,), len(layers))
    views = [network._view(i, v) for i, v in enumerate(layers)]
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in train_stream:
            if batch.labels is None:
                raise ValueError("pretraining requires labeled batches")
            x = network._inputs(batch.inputs, ())
            try:
                grads = network._loss_pass(views, x, batch.labels, loss, plan, True)[1][0]
            except NumericsError as exc:
                raise TrainingError(f"pretraining diverged at step {step}: {exc}") from exc
            for vec, g in zip(layers, grads):
                g *= lr  # the pass's own array: the bytes of vec -= lr * g
                vec -= g
            if not all(map(_all_finite, layers)):
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


def _finite_numbers(value, what: str) -> np.ndarray:
    """A checkpoint's list of finite JSON numbers as a float64 vector, or a
    ConfigurationError naming ``what``: ``np.asarray`` alone would read true
    as 1.0, null as nan and a string as the number it spells."""
    if not (isinstance(value, list) and set(map(type, value)) <= {float, int}):
        raise ConfigurationError(f"{what} must be a list of numbers")
    vec = np.asarray(value, dtype=np.float64)
    if not _all_finite(vec):
        raise ConfigurationError(f"{what} must be finite")
    return vec


def load_checkpoint(path: str | Path) -> tuple[Network, ModelParameters, int, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    A missing, undecodable or malformed file raises a
    ConfigurationError naming the path: every normalization layer needs its
    running statistics, and every parameter and statistic must be a finite
    JSON number (not a bool, null or string).
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
            if int(key) not in network.norm_stats:
                raise ConfigurationError(f"norm_stats {key!r} is not a normalization layer")
            width = network.specs[int(key)].output_dim
            mean, var = (_finite_numbers(stats[k], f"norm_stats {key!r} {k}")
                         for k in ("mean", "var"))
            if not (mean.shape == var.shape == (width,) and (var >= 0).all()):
                raise ConfigurationError(f"norm_stats {key!r} must hold {width} means "
                                         f"and {width} nonnegative variances")
            network.norm_stats[int(key)] = mean, var
        missing = network.norm_stats.keys() - {int(key) for key in payload["norm_stats"]}
        if missing:
            i = min(missing)
            raise ConfigurationError(f"normalization layer {i} ({network.layer_names[i]}) "
                                     f"has no norm_stats entry")
        params = ModelParameters([_finite_numbers(v, f"params of layer {name}")
                                  for name, v in zip(network.layer_names, payload["params"])],
                                 list(payload["layer_names"]))
        if params.layer_names != network.layer_names:
            raise ConfigurationError(f"layer_names {params.layer_names} do not match the "
                                     f"layers {network.layer_names}")
        network._one_model(params)
        return network, params, int(payload["seed"]), dict(payload["metadata"])
    except KeyError as e:
        raise ConfigurationError(f"checkpoint {p} lacks field {e}") from e
    except (ConfigurationError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ConfigurationError(f"checkpoint {p} is malformed: {e}") from e
