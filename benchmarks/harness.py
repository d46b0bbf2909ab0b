"""Operations the benchmark times, and the checks on their outputs.

An operation is one library adaptation run (gala, all_layers, erm, or an
oracle sweep) or one CLI command. Each returns (value, error), the error
being None when every check passed, so the caller can count failures
against the attempted total.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import gala

PHASES = ("gala", "all_layers", "erm", "oracle")
CLI_TIMEOUT_S = 120
# Every figure is CPU time of the process doing the work: on a shared
# virtual machine the vCPU can be descheduled for seconds, which wall time
# would count.
clock = process_time


class StampedBatches(list):
    """The stream's batch list, seen by a closed-loop client with one caller.

    Every iteration counts as one pass over the stream. Each hand-out is
    stamped, and the time until the loop asks for the next batch is
    recorded on the CPU clock: that gap is the batch's latency, covering the
    step and the loop's own bookkeeping. Only the stream object changes;
    the code under test is untouched.
    """

    def __init__(self, batches):
        super().__init__(batches)
        self.passes = 0
        self.gaps: list[float] = []

    def __iter__(self):
        self.passes += 1
        return self._stamped()

    def _stamped(self):
        for batch in list.__iter__(self):
            handed_out = clock()
            yield batch
            self.gaps.append(clock() - handed_out)


@dataclass
class LibraryOp:
    seconds: float  # CPU
    wall: float
    samples: int
    stamped: StampedBatches
    result: object


def run_library_op(phase: str, setup, stream_index: int,
                   stream_seed: int) -> tuple[LibraryOp, str | None]:
    """One adaptation run (or oracle sweep) over one stream, timed and checked.

    Returns the operation and the error its output check found, if any.
    """
    stream = setup.streams[stream_index]
    view = copy.copy(stream)
    view.adapt_batches = stamped = StampedBatches(stream.adapt_batches)
    net, params, loss, opt = setup.network, setup.params, setup.loss, setup.opt
    start, wall_start = clock(), perf_counter()
    if phase == "gala":
        result = gala.run_gala(net, params, view, loss, opt, setup.gala_cfg, seed=stream_seed)
    elif phase == "all_layers":
        result = gala.run_baseline(net, params, view, gala.SelectorKind("all_layers"), loss,
                                   opt, granularity="multi_layer", seed=stream_seed)
    elif phase == "erm":
        result = gala.run_baseline(net, params, view, gala.SelectorKind("erm"), loss, opt,
                                   granularity="single_layer", seed=stream_seed)
    else:
        result = gala.oracle_sweep(net, params, view, loss, opt, setup.grouping)
    seconds, wall = clock() - start, perf_counter() - wall_start
    samples = sum(b.size for b in stream.adapt_batches)
    if phase == "oracle":
        samples *= setup.grouping.num_groups
        error = _check_oracle(result, setup.grouping.num_groups)
    else:
        error = _check_record(result, stream)
    return LibraryOp(seconds, wall, samples, stamped, result), error


def _check_record(record, stream) -> str | None:
    sizes = [b.size for b in stream.adapt_batches]
    got = [np.size(c) for c in record.correct]
    if got != sizes:
        return (f"{sum(got)} predictions in {len(got)} batches for "
                f"{sum(sizes)} samples in {len(sizes)} batches")
    if not all(np.isfinite(v).all() for v in record.final_params.layers):
        return "final parameters are not finite"
    return None


def _check_oracle(sweep, num_groups: int) -> str | None:
    accs = list(sweep.accuracies)
    if len(accs) != num_groups or not all(0.0 <= a <= 100.0 for a in accs):
        return f"oracle accuracies {accs} for {num_groups} groups"
    return None


def tta_acc(record) -> float:
    flat = np.concatenate([np.asarray(c, dtype=bool) for c in record.correct])
    return float(flat.mean() * 100.0)


def record_digest(record) -> str:
    """Hash of everything a run observed, to compare runs bit for bit."""
    h = hashlib.sha256()
    for c in record.correct:
        h.update(np.asarray(c).tobytes())
    h.update(np.asarray(record.losses, dtype=np.float64).tobytes())
    for d in record.decisions:
        h.update(np.asarray(d.cosines, dtype=np.float64).tobytes())
        h.update(np.asarray(d.mask).tobytes())
    for v in record.final_params.layers:
        h.update(np.asarray(v).tobytes())
    return h.hexdigest()


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(argv: list[str], env: dict) -> tuple[tuple[float, float], str | None]:
    """A fresh ``gala`` process; returns its (CPU, wall) seconds and its error."""
    cmd = [sys.executable, "-m", "gala.cli", *argv]
    cpu_start, wall_start = _children_cpu(), perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return (0.0, 0.0), f"gala {argv[0]} timed out after {CLI_TIMEOUT_S} s"
    seconds = (_children_cpu() - cpu_start, perf_counter() - wall_start)
    if proc.returncode != 0:
        return seconds, f"gala {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return seconds, None


def import_time_s(env: dict) -> tuple[float | None, str | None]:
    """CPU seconds a fresh process spends in ``import gala.cli``, timed inside it."""
    code = ("import time; t = time.process_time(); import gala.cli; "
            "print(time.process_time() - t)")
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"import gala.cli timed out after {CLI_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"import gala.cli exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return float(proc.stdout.split()[-1]), None


def check_adapt_outputs(out: Path, seed: int, expected_tta: float | None,
                        num_batches: int) -> str | None:
    """The adapt command's summary and trace agree with the in-process run."""
    rundir = out / "adapt" / f"seed{seed}"
    try:
        payload = json.loads((rundir / "summary.json").read_text(encoding="utf-8"))
        tta = payload["metrics"]["tta_acc"]
        rows = len((rundir / "trace.tsv").read_text(encoding="utf-8").splitlines()) - 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"adapt outputs unreadable: {exc!r}"
    if tta != expected_tta:
        return f"summary.json tta_acc {tta!r} != in-process {expected_tta!r}"
    if rows != num_batches:
        return f"trace.tsv has {rows} steps for {num_batches} batches"
    return None


def check_oracle_outputs(out: Path, seed: int, expected: list[float] | None) -> str | None:
    """The oracle command's accuracies equal the in-process sweep's."""
    if expected is None:
        return "no in-process oracle sweep to compare with"
    try:
        payload = json.loads((out / "oracle" / f"seed{seed}.json").read_text(encoding="utf-8"))
        accs = payload["oracle_accuracies"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"oracle outputs unreadable: {exc!r}"
    if accs != list(expected):
        return f"oracle accuracies {accs!r} != in-process {expected!r}"
    return None


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def calibration_s() -> float:
    """Time of a fixed small-matmul loop; shows host drift between runs."""
    a = np.random.default_rng(0).standard_normal((16, 16)) * 0.1
    times = []
    for _ in range(3):
        start = perf_counter()
        b = a
        for _ in range(20000):
            b = np.tanh(b @ a)
        times.append(perf_counter() - start)
    return float(np.median(times))


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "calibration_s": calibration_s(),
    }
