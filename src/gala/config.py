"""Experiment configuration files.

One JSON document describes a full experiment: task geometry, shift
stream, model architecture, loss, selector, optimizer, pretraining
budget, and seeds. Parsing is strict: unknown keys raise, naming the
offending field, so a config file always regenerates a run exactly.

Each section's fields and their kinds live in one table, and ``_fields``
checks a section against its table. An absent optional field takes the
default of the dataclass the section builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import SelectorKind
from .engine import GRANULARITIES, GalaConfig
from .errors import ConfigurationError, read_input
from .nn import LayerSpec, LossKind, OptimizerConfig
from .shiftbench import STREAM_MODES, ShiftSpec, TaskSpec

SWEEP_AXES = ("threshold", "window_size", "granularity", "batch_size")


@dataclass
class PretrainSettings:
    steps: int = 500
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0


@dataclass
class GeometrySettings:
    td_norms: list[float] = field(default_factory=list)
    u_norms: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)


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
class ExperimentConfig:
    task: TaskSpec
    shifts: list[ShiftSpec]
    model: list[LayerSpec]
    loss: LossKind
    optimizer: OptimizerConfig
    selector: GalaConfig | SelectorKind
    raw: dict
    shift_mode: str = "single"
    batch_size: int = 16
    pretrain: PretrainSettings = field(default_factory=PretrainSettings)
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str | None = None
    geometry: GeometrySettings = field(default_factory=GeometrySettings)
    sweep: SweepSettings | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ConfigurationError("seeds must be a nonempty list")
        if self.model[0].input_dim != self.task.input_dim:
            raise ConfigurationError(f"model[0].input_dim {self.model[0].input_dim} must "
                                     f"equal task.input_dim {self.task.input_dim}")
        if self.model[-1].output_dim != self.task.num_classes:
            raise ConfigurationError(
                f"model[{len(self.model) - 1}].output_dim {self.model[-1].output_dim} "
                f"must equal task.num_classes {self.task.num_classes}")
        if self.shift_mode == "single" and len(self.shifts) != 1:
            raise ConfigurationError(f"shift_mode single takes exactly one entry in shifts, "
                                     f"got {len(self.shifts)}")
        n = self.task.samples_per_domain
        sizes = [("batch_size", self.batch_size)]
        if self.sweep is not None and self.sweep.axis == "batch_size":
            sizes += [(f"sweep.values[{i}]", v) for i, v in enumerate(self.sweep.values)]
        for path, size in sizes:
            if size > self.task.adapt_samples:
                raise ConfigurationError(f"{path} must be in [1, {self.task.adapt_samples}] "
                                         f"for {n} samples per domain, got {size}")
        if self.pretrain.batch_size > n:
            raise ConfigurationError(f"pretrain.batch_size must be in [1, {n}] for {n} "
                                     f"samples per domain, got {self.pretrain.batch_size}")


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


def _one_of(options: tuple[str, ...]):
    return (lambda v: v in options, f"one of {', '.join(options)}")


# Field kinds: the check a value must pass, and how a message names it. A
# one-element list [kind] is a list whose every element passes kind.
_INT = (_is_int, "an integer")
_NONNEG = (lambda v: _is_int(v) and v >= 0, "a nonnegative integer")
_COUNT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_REAL = (_is_real, "a finite number")
_LIST = (lambda v: isinstance(v, list), "a list")
_ITEMS = (lambda v: isinstance(v, list) and len(v) > 0, "a nonempty list")
_STR_OR_NULL = (lambda v: v is None or isinstance(v, str), "a string or null")

# One table per section: each field's kind, or None where the value is a
# section parsed on its own or the dataclass the section builds checks it.
_TOP = {"task": None, "shifts": _ITEMS, "shift_mode": _one_of(STREAM_MODES),
        "batch_size": _COUNT, "model": _ITEMS, "loss": None, "optimizer": None,
        "selector": None, "pretrain": None, "seeds": [_NONNEG],
        "output_dir": _STR_OR_NULL, "geometry": None, "sweep": None}
_TASK = {"num_classes": _INT, "input_dim": _INT, "class_geometry": None,
         "samples_per_domain": _INT, "seed": _NONNEG}
_SHIFT = {"kind": None, "severity": _INT, "params": None}
_SHIFT_PARAMS = {"angle_deg": _REAL, "drift": _REAL, "direction_seed": _NONNEG,
                 "noise_seed": _NONNEG, "target_class": _INT, "toward_class": _INT}
_LAYER = {"kind": None, "input_dim": _INT, "output_dim": _INT, "activation": None}
_LOSS = {"variant": None, "shot_pl_weight": _REAL}
_OPTIMIZER = {"learning_rate": _REAL}
_SELECTOR = {"gala": None, "baseline": None}
_GROUPING = {"granularity": _one_of(GRANULARITIES), "num_blocks": _COUNT}
_GALA = {"threshold": _REAL, "window_size": (lambda v: v is None or _is_int(v),
                                             "an integer or null"),
         "warmup_len": _NONNEG, "epsilon": _REAL, **_GROUPING}
_BASELINE = {"variant": None, "fixed_group": _STR_OR_NULL, **_GROUPING}
_PRETRAIN = {"steps": _NONNEG, "batch_size": _COUNT, "learning_rate": _REAL, "seed": _NONNEG}
_GEOMETRY = {"td_norms": [_REAL], "u_norms": [_REAL], "betas": [_REAL]}
_SWEEP = {"axis": None, "values": _LIST}


def _check(value, path: str, kind) -> None:
    if isinstance(kind, list):
        _check(value, path, _LIST)
        for i, v in enumerate(value):
            _check(v, f"{path}[{i}]", kind[0])
    elif kind is not None and not kind[0](value):
        raise ConfigurationError(f"{path} must be {kind[1]}, got {value!r}")


def _fields(raw, path: str, kinds: dict, required: tuple[str, ...] = ()) -> dict:
    """The keyword arguments for the dataclass a config section builds.

    ``raw`` must be an object whose keys all name fields of ``kinds``, with
    every ``required`` one present and every value passing its field's
    kind. Absent optional fields are left out, to take the dataclass's
    defaults.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path or 'config root'} must be an object, got {raw!r}")
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in kinds:
            raise ConfigurationError(f"unknown config field: {prefix}{key}")
    for key in required:
        if key not in raw:
            raise ConfigurationError(f"missing config field: {prefix}{key}")
    for key, value in raw.items():
        _check(value, prefix + key, kinds[key])
    return dict(raw)


def _no_limit(window):
    """JSON has no infinity literal; a null window means no resets."""
    return math.inf if window is None else window


def _shift(raw, path: str) -> ShiftSpec:
    kwargs = _fields(raw, path, _SHIFT, ("kind", "severity"))
    params = kwargs.get("params")  # null means no params
    kwargs["params"] = _fields({} if params is None else params, f"{path}.params", _SHIFT_PARAMS)
    return ShiftSpec(**kwargs)


def _selector(raw, num_layers: int) -> GalaConfig | SelectorKind:
    sections = _fields(raw, "selector", _SELECTOR)
    if len(sections) != 1:
        raise ConfigurationError("selector needs exactly one of 'gala' or 'baseline'")
    if "gala" in sections:
        path = "selector.gala"
        kwargs = _fields(sections["gala"], path, _GALA)
        if "window_size" in kwargs:
            kwargs["window_size"] = _no_limit(kwargs["window_size"])
        selector = GalaConfig(**kwargs)
    else:
        path = "selector.baseline"
        selector = SelectorKind(**_fields(sections["baseline"], path, _BASELINE, ("variant",)))
    if selector.granularity == "block" and selector.num_blocks > num_layers:
        raise ConfigurationError(f"{path}.num_blocks {selector.num_blocks} exceeds the "
                                 f"{num_layers} layers in model")
    return selector


def _sweep(raw, selector: GalaConfig | SelectorKind, num_layers: int) -> SweepSettings:
    sweep = SweepSettings(**_fields(raw, "sweep", _SWEEP, ("axis", "values")))
    if sweep.axis != "batch_size" and not isinstance(selector, GalaConfig):
        raise ConfigurationError(f"sweep.axis {sweep.axis} needs a gala selector")
    # a value must pass the check of the field it sets
    kind = _TOP["batch_size"] if sweep.axis == "batch_size" else _GALA[sweep.axis]
    _check(sweep.values, "sweep.values", [kind])
    if (sweep.axis == "granularity" and "block" in sweep.values
            and selector.num_blocks > num_layers):
        raise ConfigurationError(
            f"sweep.values[{sweep.values.index('block')}] block needs selector.gala.num_blocks "
            f"{selector.num_blocks} to be at most the {num_layers} layers in model")
    if sweep.axis == "window_size":
        sweep.values = [_no_limit(v) for v in sweep.values]
    return sweep


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a loaded config document and build the typed experiment."""
    top = _fields(raw, "", _TOP, ("task", "shifts", "model", "loss", "optimizer", "selector"))
    top["task"] = TaskSpec(**_fields(top["task"], "task", _TASK, ("num_classes", "input_dim")))
    top["shifts"] = [_shift(s, f"shifts[{i}]") for i, s in enumerate(top["shifts"])]
    top["model"] = [LayerSpec(**_fields(layer, f"model[{i}]", _LAYER,
                                        ("kind", "input_dim", "output_dim")))
                    for i, layer in enumerate(top["model"])]
    top["loss"] = LossKind(**_fields(top["loss"], "loss", _LOSS, ("variant",)))
    top["optimizer"] = OptimizerConfig(**_fields(top["optimizer"], "optimizer", _OPTIMIZER,
                                                 ("learning_rate",)))
    top["selector"] = _selector(top["selector"], len(top["model"]))
    if "pretrain" in top:
        top["pretrain"] = PretrainSettings(**_fields(top["pretrain"], "pretrain", _PRETRAIN))
    if "geometry" in top:
        axes = _fields(top["geometry"], "geometry", _GEOMETRY)
        top["geometry"] = GeometrySettings(**{key: [float(v) for v in values]
                                              for key, values in axes.items()})
    if "sweep" in top:
        top["sweep"] = _sweep(top["sweep"], top["selector"], len(top["model"]))
    return ExperimentConfig(**top, raw=raw)


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(read_input(path, "config"))
