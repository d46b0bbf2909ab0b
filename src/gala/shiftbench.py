"""Synthetic distribution-shift benchmark.

Small 2-D class geometries (embedded in a configurable input dimension)
with severity-graded corruptions, plus single-shift and continual
streams split 80/20 into adaptation and held-out target evaluation.
Everything is deterministic given the task seed and a stream seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .nn import Batch, _cut

GEOMETRIES = ("gaussian_blobs", "moons", "rings")
STREAM_MODES = ("single", "continual")
SHIFT_KINDS = (
    "rotation",
    "translation",
    "feature_scale",
    "additive_noise",
    "label_conditional_noise",
)
_ALLOWED_PARAMS = {
    "rotation": {"angle_deg"},
    "translation": {"direction_seed"},
    "feature_scale": set(),
    "additive_noise": {"noise_seed"},
    "label_conditional_noise": {"target_class", "toward_class", "noise_seed", "drift"},
}
_EXTRA_DIM_STD = 0.5


@dataclass(frozen=True)
class TaskSpec:
    """A classification task: geometry, size, and dimensionality."""

    num_classes: int
    input_dim: int
    class_geometry: str = "gaussian_blobs"
    samples_per_domain: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.class_geometry not in GEOMETRIES:
            raise ConfigurationError(f"unknown class_geometry {self.class_geometry!r}")
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be at least 2")
        if self.class_geometry == "moons" and self.num_classes != 2:
            raise ConfigurationError("moons geometry supports exactly 2 classes")
        if self.input_dim < 2:
            raise ConfigurationError("input_dim must be at least 2")
        if self.samples_per_domain < 2 * self.num_classes:
            raise ConfigurationError("samples_per_domain too small for balanced classes")

    @property
    def adapt_samples(self) -> int:
        """The samples of each stream segment that adapt, four fifths rounded
        down; the rest are the segment's target holdout."""
        return (4 * self.samples_per_domain) // 5


@dataclass
class ShiftSpec:
    """One corruption at an integer severity in [1, 5].

    ``params`` holds kind-specific overrides; unknown keys are rejected.
    rotation: angle_deg (default severity * 15). translation:
    direction_seed. additive_noise: noise_seed.
    label_conditional_noise: target_class, toward_class, noise_seed,
    drift (per-severity pull toward the other class mean, default 0.15).
    """

    kind: str
    severity: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ConfigurationError(f"unknown shift kind {self.kind!r}")
        if not (isinstance(self.severity, (int, np.integer)) and 1 <= self.severity <= 5):
            raise ConfigurationError("severity must be an integer in [1, 5]")
        unknown = set(self.params) - _ALLOWED_PARAMS[self.kind]
        if unknown:
            raise ConfigurationError(
                f"unknown params for {self.kind}: {sorted(unknown)}"
            )


@dataclass
class TaskData:
    """Labeled source data: a training pool and a disjoint holdout."""

    train: Batch
    source_holdout: Batch


def _class_counts(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + (1 if c < extra else 0) for c in range(k)]


def _blob_means(spec: TaskSpec) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, 77])
    angles = 2.0 * np.pi * np.arange(spec.num_classes) / spec.num_classes
    means = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return means + rng.normal(scale=0.2, size=means.shape)


def _sample_plane(spec: TaskSpec, counts: list[int], rng) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    if spec.class_geometry == "gaussian_blobs":
        means = _blob_means(spec)
        for c, n in enumerate(counts):
            xs.append(means[c] + rng.normal(scale=0.4, size=(n, 2)))
            ys.append(np.full(n, c))
    elif spec.class_geometry == "moons":
        for c, n in enumerate(counts):
            t = rng.uniform(0.0, np.pi, size=n)
            if c == 0:
                pts = np.stack([np.cos(t), np.sin(t)], axis=1)
            else:
                pts = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
            xs.append(pts + rng.normal(scale=0.15, size=(n, 2)))
            ys.append(np.full(n, c))
    else:  # rings
        for c, n in enumerate(counts):
            radius = 1.0 + 0.8 * c + rng.normal(scale=0.12, size=n)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
            xs.append(np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1))
            ys.append(np.full(n, c))
    return np.concatenate(xs), np.concatenate(ys).astype(np.int64)


def _sample(spec: TaskSpec, n: int, rng) -> Batch:
    plane, labels = _sample_plane(spec, _class_counts(n, spec.num_classes), rng)
    inputs = np.empty((n, spec.input_dim))
    inputs[:, :2] = plane
    if spec.input_dim > 2:
        inputs[:, 2:] = rng.normal(scale=_EXTRA_DIM_STD, size=(n, spec.input_dim - 2))
    order = rng.permutation(n)
    return Batch(inputs[order], labels[order])


def generate_task(spec: TaskSpec) -> TaskData:
    """Labeled source train pool and a disjoint source holdout, each from
    its own random stream of the task seed."""
    train = _sample(spec, spec.samples_per_domain, np.random.default_rng([spec.seed, 0]))
    return TaskData(train, _source_holdout(spec))


def _source_holdout(spec: TaskSpec) -> Batch:
    n = max(2 * spec.num_classes, spec.samples_per_domain // 5)
    return _sample(spec, n, np.random.default_rng([spec.seed, 1]))


def apply_shift(batch: Batch, shift: ShiftSpec) -> Batch:
    """Corrupt a labeled or unlabeled batch; labels pass through untouched."""
    x = batch.inputs.copy()
    labels = None if batch.labels is None else batch.labels.copy()
    s = shift.severity
    if shift.kind == "rotation":
        if x.shape[1] < 2:
            raise ConfigurationError("rotation needs at least 2 input dims")
        angle = np.deg2rad(shift.params.get("angle_deg", 15.0 * s))
        c, sn = np.cos(angle), np.sin(angle)
        x0, x1 = x[:, 0].copy(), x[:, 1].copy()
        x[:, 0] = c * x0 - sn * x1
        x[:, 1] = sn * x0 + c * x1
    elif shift.kind == "translation":
        rng = np.random.default_rng([int(shift.params.get("direction_seed", 0)), 11])
        direction = rng.normal(size=x.shape[1])
        direction /= np.linalg.norm(direction)
        x += 0.5 * s * direction
    elif shift.kind == "feature_scale":
        factor = 1.0 + 0.25 * s
        x[:, 0::2] *= factor
        x[:, 1::2] /= factor
    elif shift.kind == "additive_noise":
        rng = np.random.default_rng([int(shift.params.get("noise_seed", 0)), 13])
        x += rng.normal(scale=0.1 * s, size=x.shape)
    else:  # label_conditional_noise
        if labels is None:
            raise ValueError("label_conditional_noise requires labels")
        target = int(shift.params.get("target_class", 0))
        toward = int(shift.params.get("toward_class", 1))
        drift = float(shift.params.get("drift", 0.15)) * s
        rows = labels == target
        anchor_rows = labels == toward
        if not anchor_rows.any():
            raise ConfigurationError(f"no samples of toward_class {toward} in batch")
        mu = batch.inputs[anchor_rows].mean(axis=0)
        rng = np.random.default_rng([int(shift.params.get("noise_seed", 0)), 17])
        x[rows] += drift * (mu - x[rows])
        x[rows] += rng.normal(scale=0.1 * s, size=(int(rows.sum()), x.shape[1]))
    return Batch(x, labels)


@dataclass
class ShiftStream:
    """An ordered adaptation stream plus its evaluation sets.

    ``segment_of_batch[i]`` maps adapt batch i back to the index of the
    shift that produced it; target holdouts of all segments are pooled.
    """

    adapt_batches: list[Batch]
    segment_of_batch: list[int]
    target_holdout: Batch
    source_holdout: Batch


def _effective_shift(shift: ShiftSpec, task_seed: int, stream_seed: int, index: int) -> ShiftSpec:
    # Stochastic shifts get a derived noise seed per segment unless the
    # caller pinned one, so segments do not share noise patterns.
    if shift.kind in ("additive_noise", "label_conditional_noise"):
        if "noise_seed" not in shift.params:
            derived = int(np.random.default_rng([task_seed, stream_seed, index, 23]).integers(2**31))
            return ShiftSpec(shift.kind, shift.severity, {**shift.params, "noise_seed": derived})
    return shift


def build_stream(
    task: TaskSpec,
    shifts: list[ShiftSpec],
    mode: str = "single",
    batch_size: int = 16,
    seed: int = 0,
) -> ShiftStream:
    """Assemble the adaptation stream for one or many shifts.

    Each shift gets a fresh draw from the source distribution, is
    corrupted whole, shuffled, and split 80/20 into adaptation batches
    and pooled target holdout; the last adaptation batch of a segment
    holds what is left when ``batch_size`` does not divide its share.
    ``single`` mode takes exactly one shift; ``continual`` concatenates
    the segments in order. The source holdout is ``generate_task``'s,
    drawn alone. Adaptation batches are views of their segment's checked
    arrays and are not checked again.
    """
    if mode not in STREAM_MODES:
        raise ConfigurationError(f"unknown stream mode {mode!r}")
    if not shifts:
        raise ConfigurationError("at least one shift is required")
    if mode == "single" and len(shifts) != 1:
        raise ConfigurationError("single mode takes exactly one shift")
    n = task.samples_per_domain
    n_adapt = task.adapt_samples
    if batch_size < 1 or batch_size > n_adapt:
        raise ConfigurationError(
            f"batch_size must be in [1, {n_adapt}] for {n} samples per domain"
        )
    adapt_batches: list[Batch] = []
    segment_of_batch: list[int] = []
    held_x, held_y = [], []
    for i, shift in enumerate(shifts):
        rng = np.random.default_rng([task.seed, seed, i])
        base = _sample(task, n, rng)
        shifted = apply_shift(base, _effective_shift(shift, task.seed, seed, i))
        order = rng.permutation(n)
        x, y = shifted.inputs[order], shifted.labels[order]
        starts = range(0, n_adapt, batch_size)
        adapt_batches += [_cut(x, y, slice(s, min(s + batch_size, n_adapt))) for s in starts]
        segment_of_batch += [i] * len(starts)
        held_x.append(x[n_adapt:])
        held_y.append(y[n_adapt:])
    target_holdout = Batch(np.concatenate(held_x), np.concatenate(held_y))
    return ShiftStream(adapt_batches, segment_of_batch, target_holdout, _source_holdout(task))
