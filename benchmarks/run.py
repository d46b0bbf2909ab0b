"""Benchmark for gala: end-to-end throughput, latency and CLI wall time per
workload, or, with ``--trace 1``, per-layer self times from a traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload continual-b1 --seed 0 --seconds 36 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs every workload
in both modes at tiny sizes and checks that every metric is reported and
every output check passes. See README.md next to this file.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; CLI children inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, unit, direction). End-to-end metrics are measured with tracing off.
END_TO_END = (
    ("gala_samples_per_s", "samples/s", "higher"),
    ("all_layers_samples_per_s", "samples/s", "higher"),
    ("erm_samples_per_s", "samples/s", "higher"),
    ("oracle_samples_per_s", "samples/s", "higher"),
    ("gala_batch_p50_us", "us", "lower"),
    ("gala_batch_p99_us", "us", "lower"),
    ("gala_tta_acc", "%", "higher"),
    ("cli_adapt_s", "s", "lower"),
    ("cli_oracle_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("nn.loss_and_gradients.self_us", "us/call"),
    ("nn.forward.self_us", "us/call"),
    ("nn.loss_and_gradients.calls_per_step", "calls/step"),
    ("nn.forward.calls_per_step", "calls/step"),
    ("nn.flops_per_sample", "flop/sample"),
    ("nn.bytes_per_sample", "B/sample"),
    ("nn.gflops", "GFLOP/s"),
    ("engine.gather.self_us", "us/step"),
    ("engine.decide.self_us", "us/step"),
    ("engine.update.self_us", "us/step"),
    ("engine.reset.self_us", "us/step"),
    ("engine.gala_step.self_us", "us/step"),
    ("engine.groups_updated_per_step", "groups/step"),
    ("engine.update_yield", "ratio"),
    ("runner.self_us", "us/step"),
    ("baselines.step.self_us", "us/call"),
    ("baselines.oracle_stream_passes", "passes/op"),
    ("shiftbench.build_stream_ms", "ms/call"),
    ("shiftbench.generate_task_ms", "ms/call"),
    ("metrics.summarize_ms", "ms/call"),
    ("metrics.write_trace_ms", "ms/call"),
    ("metrics.trace_bytes", "B"),
    ("metrics.write_summary_ms", "ms/call"),
    ("config.load_config_ms", "ms/call"),
    ("cli.import_s", "s"),
    ("cli.load_checkpoint_ms", "ms/call"),
    ("cli.self_ms", "ms/call"),
    ("trace.overhead_pct", "%"),
)
SETUP_REPEATS = 3
MIN_CLI_PAIRS = 3
IMPORT_PROBES = 3
# Shares of --seconds for each kind of timed work. gala gets the most: its
# latency percentiles need many batches.
PHASE_SHARES = {"gala": 0.33, "all_layers": 0.06, "erm": 0.05, "oracle": 0.10}
CLI_SHARE = 0.38
# The host's CPU runs at a base speed with boosted stretches (up to about
# 1.6x faster) of seconds to minutes, and how much of a run is boosted
# varies. Every run visits the base speed, so each timing is reported at
# the slow decile of its windows: passes, processes, set-ups, or windows
# of LATENCY_WINDOW consecutive batches (ten of them beyond a p99).
SLOW_PERCENTILE = 90
LATENCY_WINDOW = 1000
SETUP_SHARE = 0.08


class Run:
    """One benchmark invocation: its workload, inputs, work directory and tallies."""

    def __init__(self, workload, seed: int, seconds: float, smoke: bool, work: Path):
        from workloads import workload_config

        self.seconds = seconds
        self.smoke = smoke
        self.work = work
        self.raw = workload_config(workload, ROOT, smoke)
        self.num_streams = 2 if smoke else workload.num_streams
        self.stream_seeds = [seed * self.num_streams + j for j in range(self.num_streams)]
        self.cli_seed = self.stream_seeds[0]
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.raw, indent=1), encoding="utf-8")
        self.attempted = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def attempt(self, label: str, fn, *args):
        """Run one operation, which returns (value, error).

        Returns the value, or None when the operation raised or its output
        check failed; either way it counts as failed.
        """
        self.attempted += 1
        try:
            value, error = fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            error = repr(exc)
        if error:
            self.errors.append(f"{label}: {error}")
            return None
        return value

    def cli_argv(self, command: str) -> list[str]:
        return [command, "--config", str(self.config_path), "--out", str(self.work),
                "--seed", str(self.cli_seed)]

    def clear_outputs(self):
        """Drop earlier command outputs, so a stale file cannot pass a check."""
        for name in ("adapt", "oracle"):
            shutil.rmtree(self.work / name, ignore_errors=True)


@dataclass
class Activity:
    """Timed work that gets a share of --seconds and a floor on its count.

    The scheduler always runs the pending activity that has used the
    smallest part of its share, so the kinds of work interleave.
    """

    share: float
    floor: int
    action: Callable[[int], object]  # called with the count so far
    used: float = 0.0
    count: int = 0

    def pending(self, seconds: float) -> bool:
        return self.count < self.floor or self.used < self.share * seconds

    def run_once(self):
        start = perf_counter()
        self.action(self.count)
        self.used += perf_counter() - start
        self.count += 1


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q))


def _slow(times) -> float:
    """The slow-decile value of per-window times."""
    return _percentile(times, SLOW_PERCENTILE)


def _latency_windows(gaps: list[float]) -> list[list[float]]:
    """Consecutive windows of LATENCY_WINDOW batches; one window of
    everything when there are fewer."""
    whole = len(gaps) // LATENCY_WINDOW
    if whole == 0:
        return [gaps] if gaps else []
    return [gaps[i * LATENCY_WINDOW:(i + 1) * LATENCY_WINDOW] for i in range(whole)]


def _cli_in_process(argv: list[str]) -> tuple[None, str | None]:
    import gala.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = gala.cli.main(argv)
    return None, None if code == 0 else f"gala {argv[0]} exited {code}"


def measure_end_to_end(run: Run) -> dict:
    """Library runs and fresh-process CLI commands, interleaved, tracing off.

    Each library phase (gala, all_layers, erm, the oracle sweep) cycles
    through the run's streams on its own; a later visit to a stream must
    repeat the first bit for bit. A CLI pair runs ``gala adapt`` and then
    ``gala oracle`` in fresh processes. Every kind of work gets a share of
    --seconds and a floor on its count.
    """
    import harness
    from workloads import build_setup

    setup_times = []

    def timed_setup():
        start = harness.clock()
        built = build_setup(run.raw, run.stream_seeds)
        setup_times.append(harness.clock() - start)
        return built

    setup = timed_setup()
    run.attempt("gala pretrain", _cli_in_process, run.cli_argv("pretrain"))
    env = harness.cli_env(SRC)
    num_batches = len(setup.streams[0].adapt_batches)

    rates = {phase: [] for phase in harness.PHASES}
    wall_rates = {phase: [] for phase in harness.PHASES}
    gaps: list[float] = []
    first_seen: dict[tuple[str, int], object] = {}
    accs: dict[int, float] = {}
    cli_times = {"adapt": [], "oracle": []}
    cli_walls = {"adapt": [], "oracle": []}

    def library_op(phase: str, j: int):
        op = run.attempt(f"{phase} stream {j}", harness.run_library_op,
                         phase, setup, j, run.stream_seeds[j])
        if op is None:
            return
        rates[phase].append(op.samples / op.seconds)
        wall_rates[phase].append(op.samples / op.wall)
        if phase == "oracle":
            observed = op.result.accuracies
        else:
            observed = harness.record_digest(op.result)
        if phase == "gala":
            gaps.extend(op.stamped.gaps)
            accs.setdefault(j, harness.tta_acc(op.result))
        if first_seen.setdefault((phase, j), observed) != observed:
            run.errors.append(f"{phase} stream {j}: a repeated pass differs")

    def cli_command(command: str):
        run.clear_outputs()
        timed = run.attempt(f"gala {command}", harness.run_cli, run.cli_argv(command), env)
        if timed is None:
            return
        if command == "adapt":
            error = harness.check_adapt_outputs(run.work, run.cli_seed, accs.get(0), num_batches)
        else:
            error = harness.check_oracle_outputs(run.work, run.cli_seed,
                                                 first_seen.get(("oracle", 0)))
        if error:
            run.errors.append(f"gala {command}: {error}")
        else:
            cli_times[command].append(timed[0])
            cli_walls[command].append(timed[1])

    def phase_activity(phase: str) -> Activity:
        return Activity(PHASE_SHARES[phase], 1,
                        lambda n: library_op(phase, n % run.num_streams))

    # gala visits every stream, and one twice, so gala_tta_acc covers all
    # streams and repeatability is always checked
    activities = [phase_activity(phase) for phase in harness.PHASES]
    activities[0].floor = run.num_streams + 1
    cli = Activity(CLI_SHARE, 1 if run.smoke else MIN_CLI_PAIRS,
                   lambda n: (cli_command("adapt"), cli_command("oracle")))
    # Set-up repeats are spread over the run, so their slow decile sees the
    # same host drift as the rest; the first set-up counts as one of them.
    repeats = Activity(SETUP_SHARE, 1 if run.smoke else SETUP_REPEATS,
                       lambda n: timed_setup(), used=setup_times[0], count=1)
    activities += [cli, repeats]
    # Ties go to the earlier activity, so every library phase has run on
    # stream 0 before the first CLI pair is checked against it.
    while True:
        pending = [a for a in activities if a.pending(run.seconds)]
        if not pending:
            break
        min(pending, key=lambda a: a.used / max(a.share * run.seconds, 1e-9)).run_once()

    # the slow decile of a rate is its low decile
    values = {f"{phase}_samples_per_s": _percentile(r, 100 - SLOW_PERCENTILE)
              for phase, r in rates.items() if r}
    windows = _latency_windows(gaps)
    if windows:
        values["gala_batch_p50_us"] = _slow([_percentile(w, 50) for w in windows]) * 1e6
        values["gala_batch_p99_us"] = _slow([_percentile(w, 99) for w in windows]) * 1e6
    if accs:
        values["gala_tta_acc"] = statistics.fmean(accs.values())
    for command, times in cli_times.items():
        if times:
            values[f"cli_{command}_s"] = _slow(times)
    values["setup_s"] = _slow(setup_times)
    values["peak_rss_mb"] = harness.peak_rss_mb()
    run.notes += [
        f"library passes over {run.num_streams} streams: "
        + ", ".join(f"{p}={len(r)}" for p, r in rates.items()),
        f"gala batch latency: closed loop, one client; {len(gaps)} batches in "
        f"{len(windows)} windows",
        f"gala_tta_acc: mean over {len(accs)} streams",
        "wall-clock medians: " + ", ".join(
            [f"{p}_samples_per_s {_median(r):.6g}" for p, r in wall_rates.items() if r]
            + [f"cli_{c}_s {_median(t):.4g}" for c, t in cli_walls.items() if t]),
        *(f"cli {command} CPU s: " + ", ".join(f"{t:.3f}" for t in times)
          for command, times in cli_times.items()),
        "setup CPU s: " + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    return values


def measure_traced(run: Run) -> dict:
    """Per-layer self times and counts, from wrappers patched in at runtime.

    Each library operation runs untraced and traced on the same stream,
    alternating which goes first; the two must agree bit for bit, and their
    time difference is the tracing overhead. The CLI layers come from in-process ``gala
    adapt`` runs and fresh processes that only import ``gala.cli``.
    """
    import harness
    from tracing import Tracer
    from workloads import build_setup, bytes_per_sample, flops_per_sample

    tracer = Tracer()
    with tracer.recording("setup"):
        setup = build_setup(run.raw, run.stream_seeds)
    run.attempt("gala pretrain", _cli_in_process, run.cli_argv("pretrain"))
    env = harness.cli_env(SRC)
    num_batches = len(setup.streams[0].adapt_batches)
    phases = list(harness.PHASES)

    traced_ops = {phase: [] for phase in phases}
    plain_time = traced_time = 0.0
    start = perf_counter()
    rounds = 0
    while rounds < 1 or perf_counter() - start < 0.6 * run.seconds:
        j = rounds % run.num_streams
        for phase in phases:
            args = (phase, setup, j, run.stream_seeds[j])

            def plain_op():
                return run.attempt(f"{phase} stream {j}", harness.run_library_op, *args)

            def traced_op():
                with tracer.recording(phase):
                    return run.attempt(f"traced {phase} stream {j}", harness.run_library_op,
                                       *args)

            # alternate which side runs first, so warm-up favours neither
            if rounds % 2:
                traced, plain = traced_op(), plain_op()
            else:
                plain, traced = plain_op(), traced_op()
            if plain is None or traced is None:
                continue
            if phase == "oracle":
                same = plain.result.accuracies == traced.result.accuracies
            else:
                same = harness.record_digest(plain.result) == harness.record_digest(traced.result)
            if not same:
                run.errors.append(f"traced {phase} stream {j} differs from the untraced run")
            traced_ops[phase].append(traced)
            plain_time += plain.seconds
            traced_time += traced.seconds
        rounds += 1

    expected_tta = harness.tta_acc(traced_ops["gala"][0].result) if traced_ops["gala"] else None
    trace_file = run.work / "adapt" / f"seed{run.cli_seed}" / "trace.tsv"
    trace_bytes = []

    def traced_adapt():
        run.clear_outputs()
        with tracer.recording("cli"):
            _, error = _cli_in_process(run.cli_argv("adapt"))
        error = error or harness.check_adapt_outputs(run.work, run.cli_seed, expected_tta,
                                                     num_batches)
        if not error:
            trace_bytes.append(trace_file.stat().st_size)
        return None, error

    start = perf_counter()
    cli_runs = 0
    while cli_runs < 2 or perf_counter() - start < 0.25 * run.seconds:
        run.attempt("traced gala adapt", traced_adapt)
        cli_runs += 1
    import_times = [run.attempt("import gala.cli", harness.import_time_s, env)
                    for _ in range(1 if run.smoke else IMPORT_PROBES)]
    import_times = [t for t in import_times if t is not None]

    # a step is one batch handed out by the stamped stream of a traced run
    steps = {p: sum(len(op.stamped.gaps) for op in traced_ops[p]) for p in phases}
    decisions = [d for op in traced_ops["gala"] for d in op.result.decisions]
    specs = setup.network.specs
    forward, backward = flops_per_sample(specs)
    nn_flops = (tracer.samples(phases, "nn.loss_and_gradients") * (forward + backward)
                + tracer.samples(phases, "nn.forward") * forward)
    nn_time = tracer.self_time(phases, ("nn.loss_and_gradients", "nn.forward"))

    def per(run_ids, names, divisor, scale):
        total = tracer.self_time(run_ids, names)
        return None if total is None or not divisor else total / divisor * scale

    def per_call(run_ids, name, scale):
        return per(run_ids, (name,), tracer.calls(run_ids, name), scale)

    def per_step(name, divisor):
        return None if name in tracer.absent else tracer.calls(phases, name) / divisor

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else None

    values = {
        "nn.loss_and_gradients.self_us": per_call(phases, "nn.loss_and_gradients", 1e6),
        "nn.forward.self_us": per_call(phases, "nn.forward", 1e6),
        "nn.loss_and_gradients.calls_per_step":
            per_step("nn.loss_and_gradients", sum(steps.values())),
        "nn.forward.calls_per_step": per_step("nn.forward", sum(steps.values())),
        "nn.flops_per_sample": forward + backward,
        "nn.bytes_per_sample": bytes_per_sample(specs, run.raw["batch_size"]),
        "nn.gflops": ratio(nn_flops / 1e9, nn_time),
        "engine.gather.self_us": per(["gala"], ("engine.gather",), steps["gala"], 1e6),
        "engine.decide.self_us": per(["gala"], ("engine.decide",), steps["gala"], 1e6),
        "engine.update.self_us": per(["gala"], ("engine.apply_masked_update", "engine.scatter"),
                                     steps["gala"], 1e6),
        "engine.reset.self_us": per(["gala"], ("engine.maybe_reset",), steps["gala"], 1e6),
        "engine.gala_step.self_us": per(["gala"], ("engine.gala_step",), steps["gala"], 1e6),
        "engine.groups_updated_per_step":
            ratio(sum(int(np.sum(d.mask)) for d in decisions), len(decisions)),
        "engine.update_yield":
            ratio(sum(bool(np.any(d.mask)) for d in decisions), len(decisions)),
        "runner.self_us": per(["gala", "all_layers", "erm"],
                              ("runner.run_gala", "runner.run_baseline"),
                              steps["gala"] + steps["all_layers"] + steps["erm"], 1e6),
        "baselines.step.self_us": per_call(phases, "baselines.step", 1e6),
        "baselines.oracle_stream_passes":
            ratio(sum(op.stamped.passes for op in traced_ops["oracle"]),
                  len(traced_ops["oracle"])),
        "shiftbench.build_stream_ms": per_call(["setup"], "shiftbench.build_stream", 1e3),
        "shiftbench.generate_task_ms": per_call(["setup"], "shiftbench.generate_task", 1e3),
        "metrics.summarize_ms": per_call(["cli"], "metrics.summarize", 1e3),
        "metrics.write_trace_ms": per_call(["cli"], "metrics.write_trace", 1e3),
        "metrics.trace_bytes": _median(trace_bytes) if trace_bytes else None,
        "metrics.write_summary_ms": per_call(["cli"], "metrics.write_summary", 1e3),
        "config.load_config_ms": per_call(["cli"], "config.load_config", 1e3),
        "cli.import_s": _median(import_times) if import_times else None,
        "cli.load_checkpoint_ms": per_call(["cli"], "cli.load_checkpoint", 1e3),
        "cli.self_ms": per_call(["cli"], "cli.main", 1e3),
        "trace.overhead_pct": ratio((traced_time - plain_time) * 100.0, plain_time),
    }
    without = sorted(name for name, value in values.items() if value is None)
    run.notes += [
        f"traced library rounds: {rounds}; steps per phase {steps}",
        f"traced in-process gala adapt runs: {cli_runs}; import probes: {len(import_times)}",
        "nn.flops_per_sample and nn.bytes_per_sample are computed from layer shapes",
        f"absent spans: {sorted(tracer.absent) or 'none'}; "
        f"metrics without data, reported as 0: {without or 'none'}",
    ]
    return {name: (0.0 if value is None else value) for name, value in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import harness
    from workloads import WORKLOADS

    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent))
    try:
        run = Run(WORKLOADS[name], seed, seconds, smoke, work)
        env = harness.environment()
        values = measure_traced(run) if trace else measure_end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_parent.rmdir()
    units = dict((m[0], m[1]) for m in (PER_LAYER if trace else END_TO_END))
    missing = [m for m in units if m not in values]
    for m in missing:
        run.errors.append(f"metric {m} has no measurement")
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("env " + json.dumps(env))
    for note in run.notes:
        print(note)
    for m, unit in units.items():
        if m in values:
            print(f"  {m:40s} {values[m]:.6g} {unit}")
    failed = len(run.errors)
    for error in run.errors:
        print(f"FAILED {error}")
    print(f"error_rate {failed}/{run.attempted}")
    return {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items() if m in values},
    }


def smoke() -> int:
    """Every workload in both modes at tiny sizes; every metric and check must pass."""
    from workloads import WORKLOADS

    bad = []
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            expected = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
            if list(result["metrics"]) != expected or result["failed"] or not result["correct"]:
                bad.append(f"{name} trace={int(trace)}")
            print(json.dumps(result))
    print("smoke: " + ("ok" if not bad else "FAILED " + ", ".join(bad)))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "gala" / "__init__.py").is_file():
        print(f"error: no gala sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gala

    if Path(gala.__file__).resolve().parent != SRC / "gala":
        print(f"error: imported gala from {gala.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
