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
from .shiftbench import ShiftSpec, TaskSpec

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


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"unknown config field: {path}.{key}"
                                     if path else f"unknown config field: {key}")


def _require(section: dict, key: str, path: str):
    if key not in section:
        where = f"{path}.{key}" if path else key
        raise ConfigurationError(f"missing config field: {where}")
    return section[key]


def _parse_task(raw: dict) -> TaskSpec:
    _check_keys(raw, {"num_classes", "input_dim", "class_geometry",
                      "samples_per_domain", "seed"}, "task")
    return TaskSpec(
        num_classes=_require(raw, "num_classes", "task"),
        input_dim=_require(raw, "input_dim", "task"),
        class_geometry=raw.get("class_geometry", "gaussian_blobs"),
        samples_per_domain=raw.get("samples_per_domain", 500),
        seed=raw.get("seed", 0),
    )


def _parse_shift(raw: dict, i: int) -> ShiftSpec:
    _check_keys(raw, {"kind", "severity", "params"}, f"shifts[{i}]")
    return ShiftSpec(
        kind=_require(raw, "kind", f"shifts[{i}]"),
        severity=_require(raw, "severity", f"shifts[{i}]"),
        params=raw.get("params", None) or {},
    )


def _parse_layer(raw: dict, i: int) -> LayerSpec:
    _check_keys(raw, {"kind", "input_dim", "output_dim", "activation"},
                f"model[{i}]")
    return LayerSpec(
        kind=_require(raw, "kind", f"model[{i}]"),
        input_dim=_require(raw, "input_dim", f"model[{i}]"),
        output_dim=_require(raw, "output_dim", f"model[{i}]"),
        activation=raw.get("activation", "identity"),
    )


def _parse_loss(raw: dict) -> LossKind:
    _check_keys(raw, {"variant", "shot_pl_weight"}, "loss")
    kwargs = {}
    if "shot_pl_weight" in raw:
        kwargs["shot_pl_weight"] = raw["shot_pl_weight"]
    return LossKind(_require(raw, "variant", "loss"), **kwargs)


def _parse_optimizer(raw: dict) -> OptimizerConfig:
    _check_keys(raw, {"learning_rate", "kind"}, "optimizer")
    return OptimizerConfig(
        learning_rate=_require(raw, "learning_rate", "optimizer"),
        kind=raw.get("kind", "sgd"),
    )


def _parse_gala(raw: dict) -> GalaConfig:
    _check_keys(raw, {"threshold", "window_size", "granularity", "warmup_len",
                      "warmup_mode", "epsilon", "num_blocks"}, "selector.gala")
    kwargs = dict(raw)
    # JSON has no infinity literal; null means no resets
    if kwargs.get("window_size", 0) is None:
        kwargs["window_size"] = math.inf
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
        num_blocks=b.get("num_blocks", 4),
    )


def _parse_pretrain(raw: dict) -> PretrainSettings:
    _check_keys(raw, {"steps", "batch_size", "learning_rate", "seed"}, "pretrain")
    return PretrainSettings(**raw)


def _parse_geometry(raw: dict) -> GeometrySettings:
    _check_keys(raw, {"td_norms", "u_norms", "betas"}, "geometry")
    return GeometrySettings(
        td_norms=[float(v) for v in raw.get("td_norms", [])],
        u_norms=[float(v) for v in raw.get("u_norms", [])],
        betas=[float(v) for v in raw.get("betas", [])],
    )


def _parse_sweep(raw: dict) -> SweepSettings:
    _check_keys(raw, {"axis", "values"}, "sweep")
    values = list(_require(raw, "values", "sweep"))
    axis = _require(raw, "axis", "sweep")
    if axis == "window_size":
        values = [math.inf if v is None else v for v in values]
    return SweepSettings(axis=axis, values=values)


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
    if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ConfigurationError("seeds must be a nonempty list of integers")
    batch_size = raw.get("batch_size", 16)
    if not (isinstance(batch_size, int) and not isinstance(batch_size, bool) and batch_size >= 1):
        raise ConfigurationError(f"batch_size must be a positive integer, got {batch_size!r}")
    return ExperimentConfig(
        task=_parse_task(raw["task"]),
        shifts=[_parse_shift(s, i) for i, s in enumerate(shifts_raw)],
        shift_mode=raw.get("shift_mode", "single"),
        batch_size=batch_size,
        model=[_parse_layer(l, i) for i, l in enumerate(model_raw)],
        loss=_parse_loss(raw["loss"]),
        optimizer=_parse_optimizer(raw["optimizer"]),
        selector=_parse_selector(raw["selector"]),
        pretrain=_parse_pretrain(raw.get("pretrain", {})),
        seeds=list(seeds),
        output_dir=raw.get("output_dir", None),
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
