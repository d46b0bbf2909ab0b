"""Spans around the public functions of each gala module, patched in at runtime.

The wrappers live here, in the benchmark, and are installed only for the
duration of a traced section; no file under ``src/`` changes. A function
is patched on its class, or in every ``gala`` module namespace that bound
it, so calls through imported names are seen too. A target that a later
refactor removed is skipped and reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import defaultdict
from time import process_time

# (span name, module, attribute path). Layers are named after the modules;
# the checkpoint loader is nn's function but is counted as CLI work.
TARGETS = (
    ("nn.forward", "gala.nn", "Network.forward"),
    ("nn.loss_and_gradients", "gala.nn", "Network.loss_and_gradients"),
    ("engine.gather", "gala.engine", "ParameterGrouping.gather"),
    ("engine.scatter", "gala.engine", "ParameterGrouping.scatter"),
    ("engine.decide", "gala.engine", "decide"),
    ("engine.apply_masked_update", "gala.engine", "apply_masked_update"),
    ("engine.maybe_reset", "gala.engine", "maybe_reset"),
    ("engine.gala_step", "gala.engine", "gala_step"),
    ("runner.run_gala", "gala.runner", "run_gala"),
    ("runner.run_baseline", "gala.runner", "run_baseline"),
    ("baselines.step", "gala.baselines", "BaselineSelector.step"),
    ("baselines.oracle_sweep", "gala.baselines", "oracle_sweep"),
    ("shiftbench.build_stream", "gala.shiftbench", "build_stream"),
    ("shiftbench.generate_task", "gala.shiftbench", "generate_task"),
    ("metrics.summarize", "gala.metrics", "summarize"),
    ("metrics.write_trace", "gala.metrics", "write_trace"),
    ("metrics.write_summary", "gala.metrics", "write_summary"),
    ("config.load_config", "gala.config", "load_config"),
    ("cli.load_checkpoint", "gala.nn", "load_checkpoint"),
    ("cli.main", "gala.cli", "main"),
)
# Spans whose batch size is recorded, to turn computed flops into a rate.
_SIZED = {"nn.forward", "nn.loss_and_gradients"}


def _batch_size(args) -> int:
    return next((a.inputs.shape[0] for a in args if hasattr(a, "inputs")), 0)


class Tracer:
    """Collects spans (name, start, end, parent, run id, samples) in memory.

    Start and end are on the process CPU clock, like every other time the
    benchmark reports. ``fold`` turns the finished spans into per-(run id, name) self time,
    call and sample totals and drops them, so long runs stay small. A
    span's self time is its duration minus that of its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0, 0])
        self.absent: set[str] = set()
        self._open: list[int] = []
        self._run_id: str | None = None

    @contextlib.contextmanager
    def recording(self, run_id: str):
        """Patch every target for the duration of the block, then fold."""
        self._run_id = run_id
        # Import every module before patching any, so that no module binds
        # a wrapper through its imports and keeps it after the block.
        modules = {}
        for _, module_name, _ in TARGETS:
            with contextlib.suppress(ImportError):
                modules[module_name] = importlib.import_module(module_name)
        undo = []
        try:
            for name, module_name, path in TARGETS:
                undo.extend(self._patch(name, modules.get(module_name), path))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self._run_id = None
            self.fold()

    def _patch(self, name: str, module, path: str) -> list:
        if module is None:
            self.absent.add(name)
            return []
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.add(name)
            return []
        traced = self._wrap(name, original)
        if owner_path:
            setattr(owner, attr, traced)
            return [(owner, attr, original)]
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gala" or mod_name.startswith("gala.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    undo.append((mod, key, original))
        return undo

    def _wrap(self, name: str, original):
        spans, open_spans = self.spans, self._open
        sized = name in _SIZED
        run_id = self._run_id

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, run_id,
                    _batch_size(args) if sized else 0]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = process_time()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = process_time()
                open_spans.pop()

        return traced

    def fold(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run_id, n in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, run_id, n) in enumerate(self.spans):
            total = self.totals[(run_id, name)]
            total[0] += end - start - child[i]
            total[1] += 1
            total[2] += n
        self.spans.clear()

    def self_time(self, run_ids, names) -> float | None:
        """Summed self seconds; None when every named target is absent."""
        if all(n in self.absent for n in names):
            return None
        return sum(self.totals[(r, n)][0] for r in run_ids for n in names
                   if (r, n) in self.totals)

    def calls(self, run_ids, name) -> int:
        return sum(self.totals[(r, name)][1] for r in run_ids if (r, name) in self.totals)

    def samples(self, run_ids, name) -> int:
        return sum(self.totals[(r, name)][2] for r in run_ids if (r, name) in self.totals)
