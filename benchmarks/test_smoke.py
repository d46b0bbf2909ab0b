"""Smoke test of the benchmark itself: every workload, untraced and traced,
at tiny sizes. Run with ``python -m pytest benchmarks/test_smoke.py``."""

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [(m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        m[1:] for m in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in run.PER_LAYER]


def test_smoke_reports_every_metric_and_passes_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 6
    for result in results:
        assert result["correct"] and result["failed"] == 0
    names = set().union(*(r["metrics"] for r in results))
    assert names == {m[0] for m in run.END_TO_END + run.PER_LAYER}
