"""Evaluation metrics, selection statistics, and report file formats.

Covers the online adaptation metrics (TTA accuracy, generalization to a
held-out target split, forgetting on source data), Spearman rank
correlation between a method's selection ranking and the oracle ranking,
per-group selection frequencies, and the alignment-criterion geometry
grid. Emitters write versioned structured text that parses back exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import SelectionDecision, cosine_via_decomposition
from .errors import ConfigurationError, read_input
from .nn import Batch, ModelParameters, Network, accuracy

SUMMARY_FORMAT = "gala-run-summary"
TRACE_COLUMNS = ("step", "skipped", "warmup_scale", "reset")


@dataclass
class RunRecord:
    """Everything observed during one online adaptation pass.

    ``seed`` is the seed ``run_gala`` or ``run_baseline`` was given; a
    record from ``adapt`` itself keeps 0.
    """

    group_names: list[str]
    correct: list[np.ndarray]
    decisions: list[SelectionDecision]
    losses: list[float]
    final_params: ModelParameters
    seed: int = 0

    def __post_init__(self):
        n = len(self.correct)
        for name, seq in (("decisions", self.decisions), ("losses", self.losses)):
            if len(seq) != n:
                raise ConfigurationError(f"{name} length {len(seq)} != {n} steps")

    @property
    def num_steps(self) -> int:
        return len(self.correct)


@dataclass
class MetricsSummary:
    tta_acc: float
    generalization: float
    forgetting: float
    selection_frequency: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, v in (("tta_acc", self.tta_acc), ("generalization", self.generalization)):
            if not (0.0 <= v <= 100.0):
                raise ConfigurationError(f"{name} must lie in [0, 100]")
        for g, f in self.selection_frequency.items():
            if not (0.0 <= f <= 1.0):
                raise ConfigurationError(f"selection frequency of {g} must lie in [0, 1]")


def config_fingerprint(payload: dict) -> str:
    """Short stable digest of a JSON-serializable configuration."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def tta_accuracy(record: RunRecord) -> float:
    """Online accuracy over all adaptation samples, post-update, percent."""
    if record.num_steps == 0:
        raise ConfigurationError("empty run record")
    flat = np.concatenate([np.asarray(c, dtype=bool) for c in record.correct])
    return float(flat.mean() * 100.0)


def generalization(network: Network, final_params: ModelParameters, holdout: Batch) -> float:
    """Accuracy of the adapted model on a held-out labeled split."""
    return accuracy(network, final_params, holdout)


def forgetting(
    network: Network,
    pretrained: ModelParameters,
    final_params: ModelParameters,
    source_holdout: Batch,
) -> float:
    """Source accuracy lost during adaptation; negative means a gain."""
    return accuracy(network, pretrained, source_holdout) - accuracy(
        network, final_params, source_holdout
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of tied values gets the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman_rank_correlation(rank_a, rank_b) -> float:
    """Spearman correlation with average ranks for ties.

    Undefined cases (length mismatch, fewer than two entries, a nan
    entry, or a constant list) are reported as nan rather than raised.
    """
    a = np.asarray(rank_a, dtype=float)
    b = np.asarray(rank_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 2:
        return math.nan
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    va = ra.var()
    vb = rb.var()
    if va == 0.0 or vb == 0.0:
        return math.nan
    cov = ((ra - ra.mean()) * (rb - rb.mean())).mean()
    return float(cov / math.sqrt(va * vb))


def selection_frequency(record: RunRecord) -> dict[str, float]:
    """Fraction of non-first-window steps on which each group updated.

    First samples of a window update everything by construction and are
    excluded; skipped steps stay in the denominator.
    """
    counts = np.zeros(len(record.group_names))
    denom = 0
    for d in record.decisions:
        if d.first_sample:
            continue
        denom += 1
        counts += d.mask
    if denom == 0:
        return {g: 0.0 for g in record.group_names}
    return {g: float(c / denom) for g, c in zip(record.group_names, counts)}


def summarize(
    network: Network,
    pretrained: ModelParameters,
    record: RunRecord,
    target_holdout: Batch,
    source_holdout: Batch,
) -> MetricsSummary:
    """The run's metrics."""
    return MetricsSummary(
        tta_acc=tta_accuracy(record),
        generalization=generalization(network, record.final_params, target_holdout),
        forgetting=forgetting(network, pretrained, record.final_params, source_holdout),
        selection_frequency=selection_frequency(record),
    )


def geometry_grid(t_values, u_values, beta_values) -> np.ndarray:
    """Dense [len(T), len(u), len(beta)] table of criterion values.

    Undefined cells hold nan; axes must be nonempty.
    """
    t_values = np.asarray(t_values, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    beta_values = np.asarray(beta_values, dtype=float)
    if t_values.size == 0 or u_values.size == 0 or beta_values.size == 0:
        raise ConfigurationError("geometry grid axes must be nonempty")
    grid = np.empty((t_values.size, u_values.size, beta_values.size))
    for i, t in enumerate(t_values):
        for j, u in enumerate(u_values):
            for k, beta in enumerate(beta_values):
                grid[i, j, k] = cosine_via_decomposition(float(t), float(u), float(beta))
    return grid


def export_geometry_grid(path: str | Path, t_values, u_values, beta_values) -> np.ndarray:
    """Write the grid in long format (one T,u,beta,cos row per cell)."""
    grid = geometry_grid(t_values, u_values, beta_values)
    lines = ["td_norm\tu_norm\tbeta\tcos"]
    for i, t in enumerate(np.asarray(t_values, dtype=float)):
        for j, u in enumerate(np.asarray(u_values, dtype=float)):
            for k, beta in enumerate(np.asarray(beta_values, dtype=float)):
                lines.append(f"{float(t)!r}\t{float(u)!r}\t{float(beta)!r}"
                             f"\t{float(grid[i, j, k])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return grid


def write_trace(path: str | Path, record: RunRecord) -> None:
    """Per-step decision trace as tab-delimited text."""
    groups = record.group_names
    header = list(TRACE_COLUMNS) + [f"cos:{g}" for g in groups] + [f"mask:{g}" for g in groups]
    lines = ["\t".join(header)]
    for i, d in enumerate(record.decisions):
        row = [str(i + 1), str(int(d.skipped)), repr(float(d.warmup)), str(int(d.reset))]
        row += [repr(float(c)) for c in d.cosines]
        row += [str(int(m)) for m in d.mask]
        lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_trace(path: str | Path) -> tuple[list[str], list[SelectionDecision]]:
    """Read a trace back as its group names and one decision per step.

    first_sample is derived (step 1 or a step right after a reset), and
    the skipped column must agree with the mask. A missing file, a
    foreign header or a malformed row raises a ConfigurationError naming
    the path (and the row's line).
    """
    p = Path(path)
    lines = read_input(p, "trace", as_json=False).strip().split("\n")
    header = lines[0].split("\t")
    groups = [h[4:] for h in header if h.startswith("cos:")]
    n = len(groups)
    if header != [*TRACE_COLUMNS, *(f"cos:{g}" for g in groups), *(f"mask:{g}" for g in groups)]:
        raise ConfigurationError(f"{p} is not a decision trace")
    decisions = []
    first = True
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells for {len(header)} columns")
            if int(cells[0]) != number - 1:
                raise ValueError(f"step {cells[0]} on row {number - 1}")
            skipped = bool(int(cells[1]))
            d = SelectionDecision(
                np.array([float(c) for c in cells[4:4 + n]], dtype=np.float64),
                np.array([int(m) for m in cells[4 + n:]], dtype=np.int64),
                first, float(cells[2]), bool(int(cells[3])))
            if skipped != d.skipped:
                raise ValueError(f"skipped {int(skipped)} disagrees with the mask")
        except ValueError as e:
            raise ConfigurationError(f"trace {p} line {number} is malformed: {e}") from e
        decisions.append(d)
        first = d.reset
    return groups, decisions


def write_summary(path: str | Path, summary: MetricsSummary, *, fingerprint: str,
                  seed: int) -> None:
    payload = {
        "format": SUMMARY_FORMAT,
        "format_version": 2,
        "config_fingerprint": fingerprint,
        "seed": int(seed),
        "metrics": {
            "tta_acc": summary.tta_acc,
            "generalization": summary.generalization,
            "forgetting": summary.forgetting,
            "selection_frequency": summary.selection_frequency,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def parse_summary(path: str | Path) -> tuple[MetricsSummary, dict]:
    """Read a summary written by ``write_summary``; a version 1 file's
    ``rank_correlation`` and ``extra`` are ignored.

    A missing, undecodable or malformed file raises a
    ConfigurationError naming the path.
    """
    p = Path(path)
    payload = read_input(p, "summary")
    if not isinstance(payload, dict) or payload.get("format") != SUMMARY_FORMAT:
        raise ConfigurationError(f"{p} is not a run summary")
    try:
        m = payload["metrics"]
        summary = MetricsSummary(
            tta_acc=m["tta_acc"],
            generalization=m["generalization"],
            forgetting=m["forgetting"],
            selection_frequency=dict(m["selection_frequency"]),
        )
    except KeyError as e:
        raise ConfigurationError(f"summary {p} lacks field {e}") from e
    except (TypeError, ValueError) as e:  # ValueError covers ConfigurationError
        raise ConfigurationError(f"summary {p} is malformed: {e}") from e
    return summary, payload


def write_aggregate_csv(path: str | Path, rows: list[dict]) -> None:
    """Per-seed rows plus mean/std rows over every numeric column."""
    if not rows:
        raise ConfigurationError("aggregate table needs at least one row")
    fields = list(rows[0].keys())
    # first column labels the row; only the rest get mean/std entries
    numeric = [f for f in fields[1:]
               if all(isinstance(r.get(f), (int, float)) for r in rows)]
    out = [dict(r) for r in rows]
    for stat, fn in (("mean", np.mean), ("std", np.std)):
        row = {f: "" for f in fields}
        row[fields[0]] = stat
        for f in numeric:
            vals = [float(r[f]) for r in rows]
            row[f] = repr(float(fn(vals)))
        out.append(row)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for r in out:
            writer.writerow(r)
