"""Hand-made mutants of the selection rule, the pretraining loop, the
normalization kernel, the restarted forward, the stream builder, the
adaptation loop, the metrics and trace writers, AutoRGN, the config
checks and the command line's exit codes, and the tests that must kill
them.

Run from anywhere with ``python tests/mutants.py``; pytest does not collect
this file. Each mutant is a file, an exact old text that occurs in it
exactly once, a new text, and the IDs of the tests that must fail on it.
For each mutant the script copies the repository to a temporary directory,
applies the mutant there, runs its tests, and then runs tier-1 with ``-x``.
A mutant survives when tier-1 passes; the script exits 1 if any mutant
survives or cannot be applied, and 0 otherwise. A named test that passes
on its mutant is reported, so a stale table shows, but it does not make a
mutant survive: tier-1 decides that.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = "tests/test_lockstep.py::test_gala_and_all_layers_equal_the_reference_run"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("argmax ties go to the highest group", "src/gala/engine.py",
           "picked = [max(picked, key=cosines.__getitem__)]",
           "picked = [max(reversed(picked), key=cosines.__getitem__)]",
           ("tests/test_engine.py::test_decide_argmax_tie_lowest_index",)),
    Mutant("a cosine equal to the threshold clears it", "src/gala/engine.py",
           "if first or c > cfg.threshold]",
           "if first or c >= cfg.threshold]",
           ("tests/test_engine.py::test_decide_mask_implies_threshold_outside_first_sample",)),
    Mutant("nan clears the threshold", "src/gala/engine.py",
           "if first or c > cfg.threshold]",
           "if first or not c <= cfg.threshold]",
           ("tests/test_engine.py::test_decide_undefined_cosines_never_selected", REFERENCE)),
    Mutant("one norm below epsilon leaves the cosine defined", "src/gala/engine.py",
           "if nu < eps or nr < eps:\n            cosines.append(math.nan)",
           "if nu < eps and nr < eps:\n            cosines.append(math.nan)",
           ("tests/test_engine.py::test_decide_undefined_cosines_never_selected",
            "tests/test_engine.py::test_decide_cosines_equal_reference_thousand_cases")),
    Mutant("the cosine is not clipped to [-1, 1]", "src/gala/engine.py",
           "cosines.append(1.0 if c > 1.0 else -1.0 if c < -1.0 else c)",
           "cosines.append(c)",
           (REFERENCE,)),
    Mutant("reset is never set", "src/gala/engine.py",
           "j + 1 == cfg.window_size)",
           "False)",
           ("tests/test_engine.py::test_select_window_reset_first_sample_and_warmup",
            REFERENCE)),
    Mutant("the anchor holds the live arrays, with no copy", "src/gala/engine.py",
           "self.anchor = [v.copy() for v in live]",
           "self.anchor = list(live)",
           ("tests/test_engine.py::test_anchor_owns_its_data",
            "tests/test_lockstep.py::test_lockstep_runs_equal_single_runs[1]",
            "tests/test_frozen.py::test_erm_in_a_mixed_pass[1]")),
    Mutant("the pretraining update skips a layer", "src/gala/nn.py",
           "for vec, g in zip(layers, grads):",
           "for vec, g in zip(layers[1:], grads[1:]):",
           ("tests/test_nn.py::test_pretrain_equals_the_public_entry_per_batch[norm-b2]",
            "tests/test_nn.py::test_pretrain_equals_the_public_entry_per_batch[quickstart]")),
    Mutant("the parameter finite check is dropped", "src/gala/nn.py",
           "if not all(map(_all_finite, layers)):",
           "if False:",
           ("tests/test_nn.py::test_pretrain_divergence_names_the_step",)),
    Mutant("the normalization variance divides by n - 1", "src/gala/nn.py",
           "keepdims=True) / x.shape[-2]",
           "keepdims=True) / (x.shape[-2] - 1)",
           ("tests/test_nn.py::test_normalization_variance_has_the_bytes_of_numpy_var"
            "[no-run-axis-1.0]",
            "tests/test_nn.py::test_normalization_variance_has_the_bytes_of_numpy_var"
            "[run-axis-1.0]")),
    Mutant("the normalization backward drops its xhat term", "src/gala/nn.py",
           "- xhat * (dxhat * xhat).sum(axis=-2, keepdims=True))",
           "- (dxhat * xhat).sum(axis=-2, keepdims=True))",
           ("tests/test_lockstep.py::test_normalization_applies_its_activation[5-relu]",
            "tests/test_nn.py::test_gradients_match_finite_differences[shot_im]",
            REFERENCE)),
    Mutant("a single-sample batch takes its own mean, not the frozen statistics",
           "src/gala/nn.py",
           "if x.shape[-2] >= 2:",
           "if x.shape[-2] >= 1:",
           ("tests/test_nn.py::test_normalization_single_sample_uses_frozen_stats",
            "tests/test_lockstep.py::test_normalization_applies_its_activation[1-relu]",
            REFERENCE)),
    Mutant("build_stream drops the last partial batch", "src/gala/shiftbench.py",
           "starts = range(0, n_adapt, batch_size)",
           "starts = range(0, n_adapt - batch_size + 1, batch_size)",
           ("tests/test_shiftbench.py::test_stream_equals_checked_batches[8-single]",
            "tests/test_shiftbench.py::test_stream_equals_checked_batches[64-continual]")),
    Mutant("the source holdout is drawn from random stream 0", "src/gala/shiftbench.py",
           "np.random.default_rng([spec.seed, 1])",
           "np.random.default_rng([spec.seed, 0])",
           ("tests/test_shiftbench.py::test_generate_task_train_holdout_disjoint",)),
    Mutant("a frozen chunk spans a batch-size change", "src/gala/runner.py",
           "groupby(batches, key=lambda batch: batch.size)",
           "groupby(batches, key=lambda batch: batches[0].size)",
           ("tests/test_frozen.py::test_frozen_run_equals_per_step_loop[shot_im-b5_short]",
            "tests/test_frozen.py::test_frozen_run_takes_one_loss_pass_per_chunk[b5_long]")),
    Mutant("a one-run pass steps views of pretrained, not a copy", "src/gala/runner.py",
           "params.layers, lead = [v[0] for v in params.layers], ()",
           "params.layers, lead = [v[:] for v in pretrained.layers], ()",
           ("tests/test_lockstep.py::test_adapt_never_writes_pretrained[pinned_oracle]",)),
    Mutant("the restarted forward starts one layer too high", "src/gala/runner.py",
           "if i < start:\n                        start = i\n",
           "if i < start:\n                        start = i + 1\n",
           ("tests/test_engine.py::test_gala_step_predictions_use_post_update_parameters",
            "tests/test_engine.py::test_adapt_step_matches_full_passes_reference[4]",
            REFERENCE)),
    Mutant("the loss pass's probabilities are kept after a move", "src/gala/runner.py",
           "probs = network._restart(views, acts, tuple(starts))",
           "probs = network._restart(views, acts, (n,) * len(starts))",
           ("tests/test_engine.py::test_gala_step_predictions_use_post_update_parameters",
            REFERENCE)),
    Mutant("a run joins its restart one layer late", "src/gala/nn.py",
           "for r, s in enumerate(starts) if s <= i",
           "for r, s in enumerate(starts) if s < i",
           ("tests/test_nn.py::test_forward_per_run_starts_in_any_order[1]",
            "tests/test_nn.py::test_forward_per_run_starts_in_any_order[5]",
            "tests/test_lockstep.py::test_sweep_does_no_more_layer_work_than_separate_trials")),
    Mutant("selection frequency counts window-first steps", "src/gala/metrics.py",
           "        if d.first_sample:\n            continue\n",
           "        if False:\n            continue\n",
           ("tests/test_metrics.py::test_selection_frequency_counts_skips_in_denominator",
            "tests/test_metrics.py::test_selection_frequency_only_first_samples")),
    Mutant("online accuracy averages per-step means", "src/gala/metrics.py",
           "return float(flat.mean() * 100.0)",
           "return float(np.mean([np.mean(c) for c in record.correct]) * 100.0)",
           ("tests/test_metrics.py::test_tta_accuracy_pools_samples_across_batch_sizes",)),
    Mutant("the trace drops the reset column", "src/gala/metrics.py",
           "repr(float(d.warmup)), str(int(d.reset))]",
           "repr(float(d.warmup))]",
           ("tests/test_metrics.py::test_trace_round_trip",
            "tests/test_metrics.py::test_trace_derives_first_sample_after_resets")),
    Mutant("AutoRGN's moving average weighs the new ratios 0.9", "src/gala/baselines.py",
           "_RGN_DECAY * self.ema + (1.0 - _RGN_DECAY) * ratios",
           "(1.0 - _RGN_DECAY) * self.ema + _RGN_DECAY * ratios",
           ("tests/test_baselines.py::test_auto_rgn_ema_tracks_ratio_history",)),
    Mutant("a real config field accepts a bool", "src/gala/config.py",
           "if isinstance(value, bool) or not isinstance(value, (int, float)):",
           "if not isinstance(value, (int, float)):",
           ("tests/test_cli.py::test_sweep_values_checked_by_axis[threshold-True]",)),
    Mutant("a configuration error exits 1", "src/gala/cli.py",
           "        return 2\n    except (GalaError",
           "        return 1\n    except (GalaError",
           ("tests/test_cli.py::test_adapt_missing_checkpoint_names_path",
            "tests/test_cli.py::test_adapt_malformed_checkpoint_names_path[truncated]")),
)


def _pytest(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *args], cwd=tree, env=env, capture_output=True, text=True)


def _failed(output: str) -> set[str]:
    """The IDs that pytest's short summary (``-rfE``) names as failed or in error."""
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def run(mutant: Mutant, work: Path) -> bool:
    """Apply ``mutant`` in a copy of the repository under ``work``; whether
    tier-1 kills it."""
    tree = work / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "runs"))
    target = tree / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        print(f"  cannot apply: the old text occurs {text.count(mutant.old)} times "
              f"in {mutant.path}")
        return False
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    named = _pytest(tree, ["-rfE", "--tb=no", *mutant.tests])
    failed = _failed(named.stdout)
    for test in mutant.tests:
        print(f"  {'fails' if test in failed else 'PASSES'}: {test}")
    tier1 = _pytest(tree, ["-x", "-rfE", "--tb=no"])
    first = sorted(_failed(tier1.stdout))
    print(f"  tier-1 -x: {'killed by ' + ', '.join(first) if tier1.returncode else 'passed'}")
    return tier1.returncode != 0


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        print(f"{mutant.name} ({mutant.path})")
        with tempfile.TemporaryDirectory(prefix="gala-mutant-") as work:
            if not run(mutant, Path(work)):
                survivors.append(mutant.name)
    killed = len(MUTANTS) - len(survivors)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    for name in survivors:
        print(f"survived: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
