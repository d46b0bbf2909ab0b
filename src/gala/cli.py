"""Command-line entry point.

Subcommands cover the full experiment cycle: ``pretrain`` fits and
checkpoints a source model, ``adapt`` runs online adaptation over the
configured shift stream, ``oracle`` brute-forces per-group adaptation
quality and correlates it with the selector's choices, stepping the
selector beside the per-group trials in one pass per seed, ``sweep`` varies
one hyperparameter axis, ``geometry`` tabulates the criterion surface,
and ``report`` rebuilds aggregate tables from existing run artifacts.

Every command writes a manifest next to its artifacts recording the
config, the command, package versions, and the seeds used. ``adapt``
labels each run's summary with a fingerprint of every field of the
selector as run, the loss and the optimizer, and of the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import SelectorKind
from .config import ExperimentConfig, load_config
from .engine import build_grouping
from .errors import ConfigurationError, GalaError
from .metrics import (
    config_fingerprint,
    selection_frequency,
    spearman_rank_correlation,
    summarize,
    write_aggregate_csv,
    write_summary,
    write_trace,
)
from .nn import (
    OptimizerConfig,
    load_checkpoint,
    minibatches,
    pretrain_erm,
    save_checkpoint,
)
from .runner import run_selector
from .shiftbench import build_stream, generate_task

MANIFEST_FORMAT = "gala-experiment-manifest"


def _output_root(cfg: ExperimentConfig | None, out_flag: str | None) -> Path:
    if out_flag:
        return Path(out_flag)
    env_root = os.environ.get("GALA_OUTPUT_ROOT")
    if cfg is not None and cfg.output_dir:
        p = Path(cfg.output_dir)
        if env_root and not p.is_absolute():
            return Path(env_root) / p
        return p
    return Path(env_root) if env_root else Path("runs")


def _write_manifest(directory: Path, command: str, cfg: ExperimentConfig,
                    seeds: list[int]) -> None:
    payload = {
        "format": MANIFEST_FORMAT,
        "format_version": 1,
        "command": command,
        "seeds": seeds,
        "config": cfg.raw,
        "versions": {
            "gala": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    (directory / "manifest.json").write_text(json.dumps(payload, indent=1),
                                             encoding="utf-8")


def _checkpoint_path(root: Path) -> Path:
    return root / "pretrain" / "checkpoint.json"


def _seeds(cfg: ExperimentConfig, args) -> list[int]:
    return [args.seed] if args.seed is not None else list(cfg.seeds)


def _load_pretrained(root: Path):
    path = _checkpoint_path(root)
    try:
        return load_checkpoint(path)
    except ConfigurationError as e:
        raise ConfigurationError(f"{e}; run the pretrain command first") from e


def _seeded_selector(cfg: ExperimentConfig, seed: int):
    """The configured selector as run with ``seed``: random_block draws from
    the run seed, so each seed gets its own draws."""
    if isinstance(cfg.selector, SelectorKind):
        return replace(cfg.selector, rng_seed=seed)
    return cfg.selector


def cmd_pretrain(cfg: ExperimentConfig, args) -> int:
    root = _output_root(cfg, args.out)
    outdir = root / "pretrain"
    outdir.mkdir(parents=True, exist_ok=True)
    data = generate_task(cfg.task)
    pre = cfg.pretrain
    result = pretrain_erm(
        cfg.model,
        minibatches(data.train, pre.batch_size, pre.steps, seed=pre.seed),
        data.source_holdout,
        OptimizerConfig(pre.learning_rate),
        seed=pre.seed,
    )
    save_checkpoint(_checkpoint_path(root), result.network, result.params,
                    seed=pre.seed,
                    metadata={"val_accuracy": result.val_accuracy,
                              "num_steps": result.num_steps})
    _write_manifest(outdir, "pretrain", cfg, [pre.seed])
    print(f"pretrain: {result.num_steps} steps, "
          f"val accuracy {result.val_accuracy:.2f} -> {_checkpoint_path(root)}")
    return 0


def cmd_adapt(cfg: ExperimentConfig, args) -> int:
    root = _output_root(cfg, args.out)
    network, params, _, _ = _load_pretrained(root)
    outdir = root / "adapt"
    rows = []
    for seed in _seeds(cfg, args):
        rundir = outdir / f"seed{seed}"
        rundir.mkdir(parents=True, exist_ok=True)
        stream = build_stream(cfg.task, cfg.shifts, cfg.shift_mode,
                              cfg.batch_size, seed=seed)
        selector = _seeded_selector(cfg, seed)
        record, _ = run_selector(network, params, stream, cfg.loss, cfg.optimizer, selector,
                                 seed, None)
        summary = summarize(network, params, record, stream.target_holdout,
                            stream.source_holdout)
        if not args.no_trace:
            write_trace(rundir / "trace.tsv", record)
        # every field of the run's settings, so a new one cannot be left out
        fingerprint = config_fingerprint({type(selector).__name__: asdict(selector),
                                          "loss": asdict(cfg.loss),
                                          "optimizer": asdict(cfg.optimizer), "seed": seed})
        write_summary(rundir / "summary.json", summary, fingerprint=fingerprint, seed=seed)
        rows.append({"seed": seed, "tta_acc": summary.tta_acc,
                     "generalization": summary.generalization,
                     "forgetting": summary.forgetting})
        print(f"adapt seed {seed}: tta {summary.tta_acc:.2f} "
              f"gen {summary.generalization:.2f} forget {summary.forgetting:.2f}")
    write_aggregate_csv(outdir / "aggregate.csv", rows)
    _write_manifest(outdir, "adapt", cfg, _seeds(cfg, args))
    return 0


def cmd_oracle(cfg: ExperimentConfig, args) -> int:
    root = _output_root(cfg, args.out)
    network, params, _, _ = _load_pretrained(root)
    grouping = build_grouping(network.layer_names, [s.param_count for s in network.specs],
                              cfg.selector.granularity, cfg.selector.num_blocks)
    outdir = root / "oracle"
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in _seeds(cfg, args):
        stream = build_stream(cfg.task, cfg.shifts, cfg.shift_mode,
                              cfg.batch_size, seed=seed)
        record, sweep = run_selector(network, params, stream, cfg.loss, cfg.optimizer,
                                     _seeded_selector(cfg, seed), seed, grouping)
        freqs = selection_frequency(record)
        rank = spearman_rank_correlation(
            sweep.accuracies, [freqs[g] for g in sweep.group_names])
        payload = {
            "format": "gala-oracle-result",
            "format_version": 1,
            "seed": seed,
            "group_names": sweep.group_names,
            "oracle_accuracies": sweep.accuracies,
            "best_group": sweep.best_group,
            "worst_group": sweep.worst_group,
            "selection_frequency": freqs,
            "rank_correlation": None if math.isnan(rank) else rank,
        }
        (outdir / f"seed{seed}.json").write_text(json.dumps(payload, indent=1),
                                                 encoding="utf-8")
        rows.append({"seed": seed,
                     "rank_correlation": math.nan if math.isnan(rank) else rank,
                     "best_oracle_acc": max(sweep.accuracies),
                     "worst_oracle_acc": min(sweep.accuracies)})
        shown = "nan" if math.isnan(rank) else f"{rank:.3f}"
        print(f"oracle seed {seed}: best {sweep.best_group} "
              f"({max(sweep.accuracies):.2f}), rank corr {shown}")
    write_aggregate_csv(outdir / "aggregate.csv", rows)
    _write_manifest(outdir, "oracle", cfg, _seeds(cfg, args))
    return 0


def _apply_axis(cfg: ExperimentConfig, axis: str, value):
    """One sweep point: a copy of the experiment with the axis pinned; the
    value passed its axis's check in ``parse_config``, which also requires
    a gala selector for every axis but batch_size."""
    if axis == "batch_size":
        return replace(cfg, batch_size=value)
    return replace(cfg, selector=replace(cfg.selector, **{axis: value}))


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigurationError("missing config field: sweep")
    root = _output_root(cfg, args.out)
    network, params, _, _ = _load_pretrained(root)
    outdir = root / "sweep"
    outdir.mkdir(parents=True, exist_ok=True)
    axis = cfg.sweep.axis
    rows = []
    for value in cfg.sweep.values:
        point = _apply_axis(cfg, axis, value)
        for seed in _seeds(cfg, args):
            stream = build_stream(point.task, point.shifts, point.shift_mode,
                                  point.batch_size, seed=seed)
            record, _ = run_selector(network, params, stream, point.loss, point.optimizer,
                                     _seeded_selector(point, seed), seed, None)
            summary = summarize(network, params, record, stream.target_holdout,
                                stream.source_holdout)
            shown = "inf" if value == math.inf else value
            rows.append({axis: shown, "seed": seed, "tta_acc": summary.tta_acc,
                         "generalization": summary.generalization,
                         "forgetting": summary.forgetting})
            print(f"sweep {axis}={shown} seed {seed}: tta {summary.tta_acc:.2f}")
    write_aggregate_csv(outdir / "sweep.csv", rows)
    _write_manifest(outdir, "sweep", cfg, _seeds(cfg, args))
    return 0


def cmd_geometry(cfg: ExperimentConfig | None, args) -> int:
    from .metrics import export_geometry_grid

    if cfg is not None and (cfg.geometry.td_norms or cfg.geometry.u_norms
                            or cfg.geometry.betas):
        g = cfg.geometry
        if not (g.td_norms and g.u_norms and g.betas):
            raise ConfigurationError(
                "geometry needs all of td_norms, u_norms, betas")
        td, u, betas = g.td_norms, g.u_norms, g.betas
    else:
        td = list(np.geomspace(0.01, 100.0, 41))
        u = list(np.geomspace(0.01, 100.0, 41))
        betas = list(np.linspace(0.0, math.pi, 41))
    root = _output_root(cfg, args.out)
    outdir = root / "geometry"
    outdir.mkdir(parents=True, exist_ok=True)
    grid = export_geometry_grid(outdir / "grid.tsv", td, u, betas)
    if cfg is not None:
        _write_manifest(outdir, "geometry", cfg, [])
    print(f"geometry: {grid.size} cells "
          f"({len(td)}x{len(u)}x{len(betas)}) -> {outdir / 'grid.tsv'}")
    return 0


def _run_seed(rundir: Path) -> int:
    """The seed of an adapt run directory, named seed<N> by ``cmd_adapt``."""
    try:
        return int(rundir.name[4:])
    except ValueError:
        raise ConfigurationError(f"{rundir} is not a seed<N> run directory") from None


def cmd_report(cfg: ExperimentConfig, args) -> int:
    root = _output_root(cfg, args.out)
    outdir = root / "adapt"
    runs = sorted((_run_seed(p.parent), p) for p in outdir.glob("seed*/summary.json"))
    if not runs:
        raise ConfigurationError(
            f"no run summaries under {outdir}; run the adapt command first")
    from .metrics import parse_summary

    rows = []
    for seed, path in runs:
        summary, _ = parse_summary(path)
        rows.append({"seed": seed, "tta_acc": summary.tta_acc,
                     "generalization": summary.generalization,
                     "forgetting": summary.forgetting})
    write_aggregate_csv(outdir / "aggregate.csv", rows)
    print(f"report: {len(rows)} run(s) -> {outdir / 'aggregate.csv'}")
    return 0


_COMMANDS = {
    "pretrain": cmd_pretrain,
    "adapt": cmd_adapt,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
    "geometry": cmd_geometry,
    "report": cmd_report,
}


def _seed(text: str) -> int:  # a nonnegative integer, like each of the config's seeds
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gala",
        description="Test-time adaptation experiments with aligned layer selection.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("pretrain", "fit the source model and write a checkpoint"),
        ("adapt", "run online adaptation over the configured shift stream"),
        ("oracle", "brute-force per-group adaptation quality"),
        ("sweep", "vary one hyperparameter axis"),
        ("geometry", "tabulate the criterion surface"),
        ("report", "rebuild aggregate tables from existing artifacts"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default=None,
                       help="path to the experiment JSON")
        p.add_argument("--seed", type=_seed, default=None,
                       help="run only this seed, overriding the config list")
        p.add_argument("--out", default=None,
                       help="output root (overrides config and environment)")
        if name == "adapt":
            p.add_argument("--no-trace", action="store_true",
                           help="skip the per-step decision trace (trace.tsv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is None:
            if args.command != "geometry":
                raise ConfigurationError(
                    f"the {args.command} command needs --config")
            cfg = None
        else:
            cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (GalaError, OSError) as e:  # OSError: an output that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
