"""The benchmark's workloads and the library set-up they share.

Each workload is one experiment config in the format ``gala`` reads, so
the in-process library runs and the fresh-process CLI runs see the same
task, stream, network and selector. The workload seed picks the stream
seeds; the task and the pretrained model are fixed per workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gala


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[Path], dict]
    # Distinct streams per run. Online accuracy on a single stream varies
    # widely with the stream seed (collapse at batch size 1 is chaotic),
    # so gala_tta_acc pools this many streams drawn from the run's seed.
    num_streams: int
    smoke_samples_per_domain: int


def _continual_b1(root: Path) -> dict:
    return {
        "task": {"num_classes": 4, "input_dim": 2, "class_geometry": "gaussian_blobs",
                 "samples_per_domain": 150, "seed": 77},
        "shifts": [{"kind": "label_conditional_noise", "severity": 3,
                    "params": {"target_class": i % 4, "toward_class": (i + 1) % 4}}
                   for i in range(5)],
        "shift_mode": "continual",
        "batch_size": 1,
        "model": [
            {"kind": "dense", "input_dim": 2, "output_dim": 16, "activation": "tanh"},
            {"kind": "dense", "input_dim": 16, "output_dim": 16, "activation": "tanh"},
            {"kind": "dense", "input_dim": 16, "output_dim": 4},
        ],
        "loss": {"variant": "pseudo_label"},
        "optimizer": {"learning_rate": 0.6},
        "selector": {"gala": {}},
        "pretrain": {"steps": 500, "batch_size": 25, "learning_rate": 0.1, "seed": 1},
    }


def _wide_b64(root: Path) -> dict:
    return {
        "task": {"num_classes": 10, "input_dim": 32, "class_geometry": "gaussian_blobs",
                 "samples_per_domain": 1000, "seed": 5},
        "shifts": [{"kind": "feature_scale", "severity": 3},
                   {"kind": "additive_noise", "severity": 3},
                   {"kind": "rotation", "severity": 3}],
        "shift_mode": "continual",
        "batch_size": 64,
        "model": [
            {"kind": "dense", "input_dim": 32, "output_dim": 256, "activation": "tanh"},
            {"kind": "normalization", "input_dim": 256, "output_dim": 256},
            {"kind": "dense", "input_dim": 256, "output_dim": 256, "activation": "tanh"},
            {"kind": "normalization", "input_dim": 256, "output_dim": 256},
            {"kind": "dense", "input_dim": 256, "output_dim": 10},
        ],
        "loss": {"variant": "shot_im"},
        "optimizer": {"learning_rate": 0.05},
        "selector": {"gala": {"granularity": "block", "num_blocks": 4}},
        "pretrain": {"steps": 300, "batch_size": 64, "learning_rate": 0.1, "seed": 1},
    }


def _cli_quickstart(root: Path) -> dict:
    path = root / "demos" / "configs" / "quickstart.json"
    return json.loads(path.read_text(encoding="utf-8"))


# Why each workload exists is in README.md and BENCHMARK.json: continual-b1
# is per-call overhead, wide-b64 is arithmetic, cli-quickstart is what a
# CLI user waits for.
WORKLOADS = {w.name: w for w in (
    Workload("continual-b1", _continual_b1, num_streams=16, smoke_samples_per_domain=40),
    Workload("wide-b64", _wide_b64, num_streams=4, smoke_samples_per_domain=100),
    Workload("cli-quickstart", _cli_quickstart, num_streams=8, smoke_samples_per_domain=60),
)}


def workload_config(workload: Workload, root: Path, smoke: bool) -> dict:
    """The workload's experiment config; smoke mode shrinks it to seconds."""
    raw = workload.config(root)
    if smoke:
        raw["task"]["samples_per_domain"] = workload.smoke_samples_per_domain
        raw["pretrain"]["steps"] = 20
    return raw


@dataclass
class Setup:
    """Everything the library runs need, built from one config."""

    network: gala.Network
    params: gala.ModelParameters
    streams: list
    loss: gala.LossKind
    opt: gala.OptimizerConfig
    gala_cfg: gala.GalaConfig
    grouping: gala.ParameterGrouping


def build_setup(raw: dict, stream_seeds: list[int]) -> Setup:
    """Task generation, stream builds and pretraining, through the public API.

    Mirrors ``gala pretrain``: same task, minibatch order and seeds, so the
    pretrained parameters equal the CLI checkpoint bit for bit.
    """
    task = gala.TaskSpec(**raw["task"])
    shifts = [gala.ShiftSpec(**s) for s in raw["shifts"]]
    specs = [gala.LayerSpec(**layer) for layer in raw["model"]]
    pre_cfg = raw["pretrain"]
    data = gala.generate_task(task)
    streams = [gala.build_stream(task, shifts, raw["shift_mode"], raw["batch_size"], seed=s)
               for s in stream_seeds]
    pre = gala.pretrain_erm(
        specs,
        gala.minibatches(data.train, pre_cfg["batch_size"], pre_cfg["steps"],
                         seed=pre_cfg["seed"]),
        data.source_holdout,
        gala.OptimizerConfig(pre_cfg["learning_rate"]),
        seed=pre_cfg["seed"],
    )
    gala_cfg = gala.GalaConfig(**raw["selector"]["gala"])
    network = pre.network
    grouping = gala.build_grouping(network.layer_names,
                                   [s.param_count for s in network.specs],
                                   gala_cfg.granularity, gala_cfg.num_blocks)
    return Setup(network, pre.params, streams, gala.LossKind(**raw["loss"]),
                 gala.OptimizerConfig(**raw["optimizer"]), gala_cfg, grouping)


def flops_per_sample(specs) -> tuple[float, float]:
    """Computed floating-point operations per sample of one forward and of
    one backward pass, from the layer shapes (softmax and loss excluded).

    Dense: 2io + 2o forward (matmul, bias, activation) and 4io + 3o
    backward (weight and input gradients, bias, activation derivative).
    Normalization: 7 and 11 per feature. Elementwise activation: 1 and 2.
    """
    forward = backward = 0
    for s in specs:
        i, o = s.input_dim, s.output_dim
        if s.kind == "dense":
            forward += 2 * i * o + 2 * o
            backward += 4 * i * o + 3 * o
        elif s.kind == "normalization":
            forward += 7 * o
            backward += 11 * o
        else:
            forward += o
            backward += 2 * o
    return float(forward), float(backward)


def bytes_per_sample(specs, batch_size: int) -> float:
    """Computed float64 bytes one forward plus backward pass moves, per sample.

    Parameters are read in the forward and backward passes and the gradient
    is written once (3 * 8 * P per batch, spread over the batch); each
    layer's input and output activations are touched once in each pass.
    """
    params = sum(s.param_count for s in specs)
    activations = sum(s.input_dim + s.output_dim for s in specs)
    return 8.0 * (3 * params / batch_size + 2 * activations)
