"""Minimal feedforward classification networks with hand-written gradients.

Everything is float64 numpy. A network is described by an ordered list of
:class:`LayerSpec`; trainable state lives in :class:`ModelParameters` as one
flat vector per layer, so optimizer-side code can treat layers as opaque
vectors. Three losses are supported: supervised cross-entropy for
pretraining, and two unsupervised adaptation losses (hard pseudo-labeling
and an information-maximization loss with an optional pseudo-label term).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Iterator

import numpy as np

from .errors import ConfigurationError, NumericsError, TrainingError

LAYER_KINDS = ("dense", "activation", "normalization")
ACTIVATIONS = ("relu", "tanh", "identity")
LOSS_VARIANTS = ("cross_entropy", "pseudo_label", "shot_im")

_NORM_EPS = 1e-5
_LOG_FLOOR = 1e-300
CHECKPOINT_FORMAT = "gala-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network.

    ``dense`` is an affine map with a fused elementwise activation,
    ``activation`` is a parameter-free elementwise nonlinearity, and
    ``normalization`` standardizes each feature with current-batch
    statistics and applies a learnable scale and offset.
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
        if self.kind in ("activation", "normalization") and self.input_dim != self.output_dim:
            raise ConfigurationError(f"{self.kind} layer must preserve dimension")

    @property
    def param_count(self) -> int:
        if self.kind == "dense":
            return self.output_dim * self.input_dim + self.output_dim
        if self.kind == "normalization":
            return 2 * self.output_dim
        return 0


@dataclass
class Batch:
    """A batch of inputs with optional integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise ConfigurationError("batch inputs must be 2-D (batch_size x input_dim)")
        if self.inputs.shape[0] < 1:
            raise ConfigurationError("batch needs at least one sample")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.inputs.shape[0],):
                raise ConfigurationError("labels must be 1-D and match batch size")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def without_labels(self) -> "Batch":
        return Batch(self.inputs, None)


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
    kind: str = "sgd"

    def __post_init__(self):
        if self.kind != "sgd":
            raise ConfigurationError(f"unsupported optimizer kind {self.kind!r}")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be finite and positive")


@dataclass
class ModelParameters:
    """Ordered per-layer flat parameter vectors plus stable layer names."""

    layers: list[np.ndarray]
    layer_names: list[str]

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


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    # a is the already-computed activation output, reused for tanh.
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, _LOG_FLOOR))


class Network:
    """A feedforward classifier defined by a list of :class:`LayerSpec`.

    The instance owns the architecture and the non-trainable running
    statistics of normalization layers; all trainable state is passed in
    and out as :class:`ModelParameters`, so ``forward`` and
    ``loss_and_gradients`` are pure functions of (params, batch) unless
    statistic updates are explicitly requested by the pretraining loop.
    """

    def __init__(self, layer_specs: Iterable[LayerSpec], norm_momentum: float = 0.1):
        self.specs = list(layer_specs)
        if not self.specs:
            raise ConfigurationError("network needs at least one layer")
        for prev, cur in zip(self.specs, self.specs[1:]):
            if prev.output_dim != cur.input_dim:
                raise ConfigurationError(
                    f"layer dims do not chain: {prev.output_dim} -> {cur.input_dim}"
                )
        self.layer_names = [f"L{i}_{s.kind}" for i, s in enumerate(self.specs)]
        self.norm_momentum = float(norm_momentum)
        # Per normalization layer: running (mean, var), initialized to the
        # standardized defaults and refreshed during pretraining. Used only
        # for single-sample batches where batch statistics are undefined.
        self.norm_stats: dict[int, tuple[np.ndarray, np.ndarray]] = {
            i: (np.zeros(s.output_dim), np.ones(s.output_dim))
            for i, s in enumerate(self.specs)
            if s.kind == "normalization"
        }

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
            elif spec.kind == "normalization":
                vecs.append(np.concatenate([np.ones(spec.output_dim), np.zeros(spec.output_dim)]))
            else:
                vecs.append(np.zeros(0))
        return ModelParameters(vecs, list(self.layer_names))

    def _check_params(self, params: ModelParameters):
        if len(params.layers) != len(self.specs):
            raise ConfigurationError(
                f"expected {len(self.specs)} parameter vectors, got {len(params.layers)}"
            )
        for i, (vec, spec) in enumerate(zip(params.layers, self.specs)):
            if vec.size != spec.param_count:
                raise ConfigurationError(
                    f"layer {i} expects {spec.param_count} parameters, got {vec.size}"
                )

    def _layer_forward(self, i: int, x: np.ndarray, vec: np.ndarray, update_stats: bool):
        spec = self.specs[i]
        if spec.kind == "dense":
            w = vec[: spec.output_dim * spec.input_dim].reshape(spec.output_dim, spec.input_dim)
            b = vec[spec.output_dim * spec.input_dim :]
            z = x @ w.T + b
            a = _act(spec.activation, z)
            return a, ("dense", x, z, a, w)
        if spec.kind == "activation":
            a = _act(spec.activation, x)
            return a, ("activation", x, a)
        gamma = vec[: spec.output_dim]
        beta = vec[spec.output_dim :]
        if x.shape[0] >= 2:
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            if update_stats:
                m = self.norm_momentum
                rm, rv = self.norm_stats[i]
                self.norm_stats[i] = ((1 - m) * rm + m * mu, (1 - m) * rv + m * var)
            inv_std = 1.0 / np.sqrt(var + _NORM_EPS)
            xhat = (x - mu) * inv_std
            return gamma * xhat + beta, ("norm_batch", xhat, inv_std, gamma)
        # Single-sample batches fall back to frozen statistics: the layer
        # degrades to a fixed affine transform.
        rm, rv = self.norm_stats[i]
        inv_std = 1.0 / np.sqrt(rv + _NORM_EPS)
        xhat = (x - rm) * inv_std
        return gamma * xhat + beta, ("norm_frozen", xhat, inv_std, gamma)

    def _forward_cached(self, params: ModelParameters, x: np.ndarray, update_stats=False,
                        start: int = 0):
        """Run layers ``start`` onward on ``x``, the input to layer ``start``.

        Returns the logits, one backward cache per layer run and the input
        each of those layers saw (``inputs[k]`` belongs to layer start + k).
        """
        if x.shape[1] != self.specs[start].input_dim:
            raise ConfigurationError(
                f"batch input_dim {x.shape[1]} does not match layer {start} "
                f"input_dim {self.specs[start].input_dim}"
            )
        self._check_params(params)
        caches, inputs = [], []
        # Overflow is detected by the finiteness check and raised as a
        # NumericsError, so the intermediate warning is noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(start, len(self.specs)):
                inputs.append(x)
                x, cache = self._layer_forward(i, x, params.layers[i], update_stats)
                if not np.isfinite(x).all():
                    raise NumericsError(
                        f"non-finite activation at layer {i} ({self.layer_names[i]})"
                    )
                caches.append(cache)
        return x, caches, inputs

    def forward(self, params: ModelParameters, batch: Batch, start: int = 0,
                layer_input: np.ndarray | None = None) -> np.ndarray:
        """Class probabilities, one row per sample, rows summing to one.

        With ``start`` > 0 only layers ``start`` onward run, on
        ``layer_input``: the input layer ``start`` saw in a pass over the
        same batch (as ``loss_and_gradients`` returns it). When the layers
        below ``start`` hold the same parameters as in that pass, the
        result equals a full forward bit for bit.
        """
        if start and layer_input is None:
            raise ValueError(f"forward from layer {start} needs that layer's input")
        x = batch.inputs if layer_input is None else layer_input
        logits, _, _ = self._forward_cached(params, x, start=start)
        return softmax(logits)

    def predict(self, params: ModelParameters, batch: Batch) -> np.ndarray:
        return np.argmax(self.forward(params, batch), axis=1)

    def _loss_and_dlogits(self, p: np.ndarray, batch: Batch, loss: LossKind):
        n = p.shape[0]
        if loss.variant == "cross_entropy":
            y = batch.labels
            ll = _safe_log(p[np.arange(n), y])
            onehot = np.zeros_like(p)
            onehot[np.arange(n), y] = 1.0
            return -ll.mean(), (p - onehot) / n
        if loss.variant == "pseudo_label":
            y = np.argmax(p, axis=1)
            ll = _safe_log(p[np.arange(n), y])
            onehot = np.zeros_like(p)
            onehot[np.arange(n), y] = 1.0
            return -ll.mean(), (p - onehot) / n
        # shot_im: mean per-sample entropy, minus entropy of the mean
        # prediction, plus a weighted hard pseudo-label term.
        logp = _safe_log(p)
        ent = -(p * logp).sum(axis=1)
        pbar = p.mean(axis=0)
        logpbar = _safe_log(pbar)
        ent_mean_pred = -(pbar * logpbar).sum()
        y = np.argmax(p, axis=1)
        onehot = np.zeros_like(p)
        onehot[np.arange(n), y] = 1.0
        pl_loss = -_safe_log(p[np.arange(n), y]).mean()
        value = ent.mean() - ent_mean_pred + loss.shot_pl_weight * pl_loss

        d_ent = -p * (logp + ent[:, None]) / n
        # d/dlogits of -H(pbar); see the per-sample chain through pbar.
        d_div = p * (logpbar[None, :] - (p * logpbar[None, :]).sum(axis=1, keepdims=True)) / n
        d_pl = loss.shot_pl_weight * (p - onehot) / n
        return value, d_ent + d_div + d_pl

    def loss_and_gradients(
        self,
        params: ModelParameters,
        batch: Batch,
        loss: LossKind,
        update_norm_stats: bool = False,
        layers: Collection[int] | None = None,
    ) -> tuple[float, list[np.ndarray | None], np.ndarray, list[np.ndarray]]:
        """Loss value, per-layer gradients, the class probabilities of the
        loss pass and the input each layer saw in it.

        ``layers`` holds the indices of the layers whose gradients are
        wanted (None: every layer). The backward pass stops at the lowest
        of them: it forms a layer's parameter gradient only when the layer
        is wanted, and its input gradient only when a lower layer is, so
        an empty set runs no backward at all. Every other entry of the
        gradient list is None. Wanted gradients equal those of a full
        backward bit for bit.

        The probabilities are the same computation as ``forward`` on the
        same params and batch, so they match it bit for bit; the layer
        inputs let ``forward`` restart above layers that did not change.
        Unsupervised losses refuse labeled batches so adaptation code
        cannot accidentally leak labels into the update path.
        """
        if loss.supervised and batch.labels is None:
            raise ValueError("cross_entropy requires labels")
        if not loss.supervised and batch.labels is not None:
            raise ValueError(f"{loss.variant} must not receive labels")
        logits, caches, inputs = self._forward_cached(params, batch.inputs, update_norm_stats)
        probs = softmax(logits)
        value, dx = self._loss_and_dlogits(probs, batch, loss)
        if not np.isfinite(value):
            raise NumericsError("non-finite loss value")
        n = len(self.specs)
        wanted = range(n) if layers is None else layers
        stop = min(wanted, default=n)
        grads: list[np.ndarray | None] = [None] * n
        for i in range(n - 1, stop - 1, -1):
            cache = caches[i]
            spec = self.specs[i]
            want = i in wanted
            below = i > stop  # a lower layer still needs dx
            if cache[0] == "dense":
                _, x, z, a, w = cache
                dz = dx * _act_grad(spec.activation, z, a)
                if want:
                    grads[i] = np.concatenate([(dz.T @ x).ravel(), dz.sum(axis=0)])
                if below:
                    dx = dz @ w
            elif cache[0] == "activation":
                _, x, a = cache
                if want:
                    grads[i] = np.zeros(0)
                if below:
                    dx = dx * _act_grad(spec.activation, x, a)
            elif cache[0] == "norm_batch":
                _, xhat, inv_std, gamma = cache
                if want:
                    grads[i] = np.concatenate([(dx * xhat).sum(axis=0), dx.sum(axis=0)])
                if below:
                    nb = xhat.shape[0]
                    dxhat = dx * gamma
                    dx = (
                        inv_std
                        / nb
                        * (nb * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
                    )
            else:  # norm_frozen
                _, xhat, inv_std, gamma = cache
                if want:
                    grads[i] = np.concatenate([(dx * xhat).sum(axis=0), dx.sum(axis=0)])
                if below:
                    dx = dx * gamma * inv_std
        return float(value), grads, probs, inputs


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


def pretrain_erm(
    layer_specs: list[LayerSpec],
    train_stream: Iterable[Batch],
    val: Batch,
    opt: OptimizerConfig,
    seed: int = 0,
) -> PretrainResult:
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


def save_checkpoint(
    path: str | Path,
    network: Network,
    params: ModelParameters,
    seed: int,
    metadata: dict | None = None,
) -> None:
    """Write a versioned JSON checkpoint (exact float round-trip via repr)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "layer_specs": [
            {
                "kind": s.kind,
                "input_dim": s.input_dim,
                "output_dim": s.output_dim,
                "activation": s.activation,
            }
            for s in network.specs
        ],
        "layer_names": list(params.layer_names),
        "params": [v.tolist() for v in params.layers],
        "norm_stats": {
            str(i): {"mean": m.tolist(), "var": v.tolist()}
            for i, (m, v) in enumerate_norm_stats(network)
        },
        "seed": int(seed),
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def enumerate_norm_stats(network: Network):
    for i in sorted(network.norm_stats):
        yield i, network.norm_stats[i]


def load_checkpoint(path: str | Path) -> tuple[Network, ModelParameters, int, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    A missing, undecodable or malformed file raises a
    ConfigurationError naming the path.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"checkpoint not found at expected path: {p}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigurationError(f"checkpoint {p} is not valid JSON: {e}") from e
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(f"{p} is not a model checkpoint")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {payload.get('format_version')}")
    try:
        specs = [LayerSpec(**s) for s in payload["layer_specs"]]
        network = Network(specs)
        for key, stats in payload["norm_stats"].items():
            network.norm_stats[int(key)] = (
                np.asarray(stats["mean"], dtype=np.float64),
                np.asarray(stats["var"], dtype=np.float64),
            )
        params = ModelParameters(
            [np.asarray(v, dtype=np.float64) for v in payload["params"]],
            list(payload["layer_names"]),
        )
        network._check_params(params)
        return network, params, int(payload["seed"]), dict(payload["metadata"])
    except KeyError as e:
        raise ConfigurationError(f"checkpoint {p} lacks field {e}") from e
    except (ConfigurationError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ConfigurationError(f"checkpoint {p} is malformed: {e}") from e
