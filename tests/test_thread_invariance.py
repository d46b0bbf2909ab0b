"""Records do not depend on the BLAS thread count.

OpenBLAS splits a long ``ddot`` across threads, and the split changes
its rounding. The scenario below has a 256 -> 256 dense layer of 65,792
parameters, so a criterion dot over it taken in one call differs between
1 and 2 threads. The test compares digests across thread counts rather
than pinning them: the OpenBLAS numpy ships picks its kernels per CPU.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from gala import (GalaConfig, LayerSpec, LossKind, OptimizerConfig, SelectorKind, ShiftSpec,
                  TaskSpec, build_stream, generate_task, minibatches, pretrain_erm,
                  run_baseline, run_gala, write_trace)
from helpers import record_digest

HERE = Path(__file__).resolve().parent


def wide_run_digests() -> dict[str, list[str]]:
    """Record digest and trace hash of gala (single_layer and block) and
    auto_rgn runs on a small wide-layer stream."""
    task = TaskSpec(num_classes=10, input_dim=32, samples_per_domain=300, seed=5)
    specs = [LayerSpec("dense", 32, 256, "tanh"), LayerSpec("normalization", 256, 256),
             LayerSpec("dense", 256, 256, "tanh"), LayerSpec("normalization", 256, 256),
             LayerSpec("dense", 256, 10)]
    data = generate_task(task)
    pre = pretrain_erm(specs, minibatches(data.train, 64, 30, seed=1), data.source_holdout,
                       OptimizerConfig(0.1), seed=1)
    stream = build_stream(task, [ShiftSpec("rotation", 3)], "single", 64, seed=0)
    loss, opt = LossKind("shot_im"), OptimizerConfig(0.05)
    records = {
        "gala_single_layer": run_gala(pre.network, pre.params, stream, loss, opt, GalaConfig()),
        "gala_block": run_gala(pre.network, pre.params, stream, loss, opt,
                               GalaConfig(granularity="block", num_blocks=2)),
        "auto_rgn": run_baseline(pre.network, pre.params, stream, SelectorKind("auto_rgn"),
                                 loss, opt),
    }
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, record in records.items():
            path = Path(tmp) / f"{name}.tsv"
            write_trace(path, record)
            out[name] = [record_digest(record), hashlib.sha256(path.read_bytes()).hexdigest()]
    return out


def _digests_at(threads: int) -> dict:
    paths = [str(HERE.parent / "src"), str(HERE), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = ("import json, test_thread_invariance as t; "
            "print(json.dumps(t.wide_run_digests()))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_records_equal_at_one_and_two_blas_threads():
    one, two = _digests_at(1), _digests_at(2)
    assert list(one) == ["gala_single_layer", "gala_block", "auto_rgn"]
    assert one == two
