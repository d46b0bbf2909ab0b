"""Experiment configuration files.

One JSON document describes a full experiment: task geometry, shift
stream, model architecture, loss, selector, optimizer, pretraining
budget, and seeds. Parsing is strict: unknown keys raise, naming the
offending field, so a config file always regenerates a run exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import BASELINE_GRANULARITY, SelectorKind
from .engine import GalaConfig
from .errors import ConfigurationError
from .nn import LayerSpec, LossKind, OptimizerConfig
from .shiftbench import STREAM_MODES, ShiftSpec, TaskSpec

SWEEP_AXES = ("threshold", "window_size", "granularity", "batch_size")

_TOP_KEYS = {"task", "shifts", "shift_mode", "batch_size", "model", "loss",
             "optimizer", "selector", "pretrain", "seeds", "output_dir",
             "geometry", "sweep"}
_REQUIRED = ("task", "shifts", "model", "loss", "optimizer", "selector")


@dataclass
class PretrainSettings:
    steps: int = 500
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0


@dataclass
class GeometrySettings:
    td_norms: list[float] = field(default_factory=lambda: list())
    u_norms: list[float] = field(default_factory=lambda: list())
    betas: list[float] = field(default_factory=lambda: list())


@dataclass
class SweepSettings:
    axis: str
    values: list

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"sweep.axis must be one of {', '.join(SWEEP_AXES)}")
        if not self.values:
            raise ConfigurationError("sweep.values must be nonempty")


@dataclass
class SelectorChoice:
    """The configured selector and the grouping it scales.

    ``kind`` holds gala's hyperparameters or a baseline kind; a gala
    selector's grouping is its own granularity and block count.
    """

    kind: GalaConfig | SelectorKind
    granularity: str
    num_blocks: int


@dataclass
class ExperimentConfig:
    task: TaskSpec
    shifts: list[ShiftSpec]
    shift_mode: str
    batch_size: int
    model: list[LayerSpec]
    loss: LossKind
    optimizer: OptimizerConfig
    selector: SelectorChoice
    pretrain: PretrainSettings
    seeds: list[int]
    output_dir: str | None
    geometry: GeometrySettings
    sweep: SweepSettings | None
    raw: dict


def _where(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(section, allowed: set[str], path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{path} must be an object, got {section!r}")
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"unknown config field: {_where(path, key)}")


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigurationError(f"missing config field: {_where(path, key)}")
    return section[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# Field kinds: the check a value must pass, and how a message names it.
_INT = (_is_int, "an integer")
_SEED = (lambda v: _is_int(v) and v >= 0, "a nonnegative integer")
_COUNT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_REAL = (_is_real, "a finite number")
_REQUIRED_FIELD = object()


def _typed(section: dict, key: str, path: str, kind, default=_REQUIRED_FIELD):
    """section[key], or ``default`` when absent, checked against ``kind``."""
    value = (_require(section, key, path) if default is _REQUIRED_FIELD
             else section.get(key, default))
    ok, what = kind
    if not ok(value):
        raise ConfigurationError(f"{_where(path, key)} must be {what}, got {value!r}")
    return value


def _checked(raw: dict, kinds: dict, path: str) -> dict:
    """A copy of ``raw`` whose fields named in ``kinds`` passed their check;
    absent ones keep their dataclass defaults."""
    for key, kind in kinds.items():
        if key in raw:
            _typed(raw, key, path, kind)
    return dict(raw)


def _each(values, path: str, kind) -> list:
    """``values``, a list whose every element passed the ``kind`` check."""
    if not isinstance(values, list):
        raise ConfigurationError(f"{path} must be a list, got {values!r}")
    ok, what = kind
    for i, v in enumerate(values):
        if not ok(v):
            raise ConfigurationError(f"{path}[{i}] must be {what}, got {v!r}")
    return values


def _parse_task(raw: dict) -> TaskSpec:
    _check_keys(raw, {"num_classes", "input_dim", "class_geometry",
                      "samples_per_domain", "seed"}, "task")
    return TaskSpec(
        num_classes=_typed(raw, "num_classes", "task", _INT),
        input_dim=_typed(raw, "input_dim", "task", _INT),
        class_geometry=raw.get("class_geometry", "gaussian_blobs"),
        samples_per_domain=_typed(raw, "samples_per_domain", "task", _INT, 500),
        seed=_typed(raw, "seed", "task", _SEED, 0),
    )


_SHIFT_PARAMS = {"angle_deg": _REAL, "drift": _REAL, "direction_seed": _SEED,
                 "noise_seed": _SEED, "target_class": _INT, "toward_class": _INT}


def _parse_shift(raw: dict, i: int) -> ShiftSpec:
    path = f"shifts[{i}]"
    _check_keys(raw, {"kind", "severity", "params"}, path)
    params = raw.get("params", None) or {}
    if not isinstance(params, dict):
        raise ConfigurationError(f"{path}.params must be an object, got {params!r}")
    return ShiftSpec(
        kind=_require(raw, "kind", path),
        severity=_typed(raw, "severity", path, _INT),
        params=_checked(params, _SHIFT_PARAMS, f"{path}.params"),
    )


def _parse_layer(raw: dict, i: int) -> LayerSpec:
    path = f"model[{i}]"
    _check_keys(raw, {"kind", "input_dim", "output_dim", "activation"}, path)
    return LayerSpec(
        kind=_require(raw, "kind", path),
        input_dim=_typed(raw, "input_dim", path, _INT),
        output_dim=_typed(raw, "output_dim", path, _INT),
        activation=raw.get("activation", "identity"),
    )


def _parse_loss(raw: dict) -> LossKind:
    _check_keys(raw, {"variant", "shot_pl_weight"}, "loss")
    _require(raw, "variant", "loss")
    return LossKind(**_checked(raw, {"shot_pl_weight": _REAL}, "loss"))


def _parse_optimizer(raw: dict) -> OptimizerConfig:
    _check_keys(raw, {"learning_rate", "kind"}, "optimizer")
    return OptimizerConfig(
        learning_rate=_typed(raw, "learning_rate", "optimizer", _REAL),
        kind=raw.get("kind", "sgd"),
    )


def _parse_gala(raw: dict) -> GalaConfig:
    path = "selector.gala"
    _check_keys(raw, {"threshold", "window_size", "granularity", "warmup_len",
                      "warmup_mode", "epsilon", "num_blocks"}, path)
    kwargs = _checked(raw, {"threshold": _REAL, "epsilon": _REAL, "warmup_len": _INT,
                            "num_blocks": _INT}, path)
    # JSON has no infinity literal; null means no resets
    if "window_size" in raw:
        kwargs["window_size"] = (math.inf if raw["window_size"] is None
                                 else _typed(raw, "window_size", path, _INT))
    return GalaConfig(**kwargs)


def _parse_selector(raw: dict) -> SelectorChoice:
    _check_keys(raw, {"gala", "baseline"}, "selector")
    if ("gala" in raw) == ("baseline" in raw):
        raise ConfigurationError(
            "selector needs exactly one of 'gala' or 'baseline'")
    if "gala" in raw:
        gala = _parse_gala(raw["gala"])
        return SelectorChoice(gala, gala.granularity, gala.num_blocks)
    b = raw["baseline"]
    _check_keys(b, {"variant", "fixed_group", "granularity", "num_blocks"},
                "selector.baseline")
    return SelectorChoice(
        SelectorKind(_require(b, "variant", "selector.baseline"),
                     fixed_group=b.get("fixed_group", None)),
        granularity=b.get("granularity", BASELINE_GRANULARITY),
        num_blocks=_typed(b, "num_blocks", "selector.baseline", _INT, 4),
    )


def _parse_pretrain(raw: dict) -> PretrainSettings:
    _check_keys(raw, {"steps", "batch_size", "learning_rate", "seed"}, "pretrain")
    return PretrainSettings(**_checked(raw, {"steps": _INT, "batch_size": _INT,
                                             "learning_rate": _REAL, "seed": _SEED},
                                       "pretrain"))


def _parse_geometry(raw: dict) -> GeometrySettings:
    _check_keys(raw, {"td_norms", "u_norms", "betas"}, "geometry")
    return GeometrySettings(**{
        key: [float(v) for v in _each(raw.get(key, []), f"geometry.{key}", _REAL)]
        for key in ("td_norms", "u_norms", "betas")
    })


# What each sweep axis accepts.
_SWEEP_VALUES = {
    "batch_size": _COUNT,
    "threshold": _REAL,
    "window_size": (lambda v: v is None or _is_int(v), "an integer or null"),
    "granularity": (lambda v: isinstance(v, str), "a string"),
}


def _parse_sweep(raw: dict) -> SweepSettings:
    _check_keys(raw, {"axis", "values"}, "sweep")
    values = _require(raw, "values", "sweep")
    if not isinstance(values, list):
        raise ConfigurationError(f"sweep.values must be a list, got {values!r}")
    sweep = SweepSettings(axis=_require(raw, "axis", "sweep"), values=list(values))
    _each(values, "sweep.values", _SWEEP_VALUES[sweep.axis])
    if sweep.axis == "window_size":
        sweep.values = [math.inf if v is None else v for v in values]
    return sweep


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a loaded config document and build the typed experiment."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be an object")
    _check_keys(raw, _TOP_KEYS, "")
    for key in _REQUIRED:
        _require(raw, key, "")
    shifts_raw = raw["shifts"]
    if not isinstance(shifts_raw, list) or not shifts_raw:
        raise ConfigurationError("shifts must be a nonempty list")
    model_raw = raw["model"]
    if not isinstance(model_raw, list) or not model_raw:
        raise ConfigurationError("model must be a nonempty list")
    seeds = raw.get("seeds", [0])
    if not _each(seeds, "seeds", _SEED):
        raise ConfigurationError("seeds must be a nonempty list")
    output_dir = raw.get("output_dir", None)
    if not (output_dir is None or isinstance(output_dir, str)):
        raise ConfigurationError(f"output_dir must be a string or null, got {output_dir!r}")
    task = _parse_task(raw["task"])
    model = [_parse_layer(l, i) for i, l in enumerate(model_raw)]
    if model[0].input_dim != task.input_dim:
        raise ConfigurationError(f"model[0].input_dim {model[0].input_dim} must equal "
                                 f"task.input_dim {task.input_dim}")
    if model[-1].output_dim != task.num_classes:
        raise ConfigurationError(f"model[{len(model) - 1}].output_dim {model[-1].output_dim} "
                                 f"must equal task.num_classes {task.num_classes}")
    shift_mode = raw.get("shift_mode", "single")
    if not (isinstance(shift_mode, str) and shift_mode in STREAM_MODES):
        raise ConfigurationError(f"shift_mode must be one of {', '.join(STREAM_MODES)}, "
                                 f"got {shift_mode!r}")
    if shift_mode == "single" and len(shifts_raw) != 1:
        raise ConfigurationError(f"shift_mode single takes exactly one entry in shifts, "
                                 f"got {len(shifts_raw)}")
    return ExperimentConfig(
        task=task,
        shifts=[_parse_shift(s, i) for i, s in enumerate(shifts_raw)],
        shift_mode=shift_mode,
        batch_size=_typed(raw, "batch_size", "", _COUNT, 16),
        model=model,
        loss=_parse_loss(raw["loss"]),
        optimizer=_parse_optimizer(raw["optimizer"]),
        selector=_parse_selector(raw["selector"]),
        pretrain=_parse_pretrain(raw.get("pretrain", {})),
        seeds=list(seeds),
        output_dir=output_dir,
        geometry=_parse_geometry(raw.get("geometry", {})),
        sweep=_parse_sweep(raw["sweep"]) if "sweep" in raw else None,
        raw=raw,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config not found at expected path: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config {p} is not valid JSON: {e}") from e
    return parse_config(raw)
