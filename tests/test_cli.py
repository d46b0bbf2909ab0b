"""Configuration loading and the command-line experiment cycle."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gala.cli
from gala import (ConfigurationError, GalaConfig, LayerSpec, LossKind, OptimizerConfig,
                  SelectorKind, ShiftSpec, TaskSpec, build_grouping, config, load_config,
                  oracle_sweep, parse_config, parse_summary, run_gala, save_checkpoint,
                  selection_frequency, spearman_rank_correlation)
from gala.cli import main
from gala.shiftbench import _ALLOWED_PARAMS
from helpers import diverging_relu_net

QUICKSTART = Path(__file__).resolve().parent.parent / "demos" / "configs" / "quickstart.json"


def base_config(**overrides):
    cfg = {
        "task": {"num_classes": 3, "input_dim": 2, "samples_per_domain": 300,
                 "seed": 21},
        "shifts": [{"kind": "rotation", "severity": 2}],
        "shift_mode": "single",
        "batch_size": 16,
        "model": [
            {"kind": "dense", "input_dim": 2, "output_dim": 8, "activation": "relu"},
            {"kind": "dense", "input_dim": 8, "output_dim": 3},
        ],
        "loss": {"variant": "pseudo_label"},
        "optimizer": {"learning_rate": 0.1},
        "selector": {"gala": {"threshold": 0.75, "window_size": 20,
                              "granularity": "single_layer"}},
        "pretrain": {"steps": 400, "batch_size": 25, "learning_rate": 0.1,
                     "seed": 2},
        "seeds": [0, 1],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="exp.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return path


def test_parse_config_builds_typed_experiment():
    cfg = parse_config(base_config())
    assert cfg.task.num_classes == 3
    assert cfg.shifts[0].kind == "rotation"
    assert [l.output_dim for l in cfg.model] == [8, 3]
    assert cfg.loss.variant == "pseudo_label"
    assert isinstance(cfg.selector, GalaConfig)
    assert cfg.selector.threshold == 0.75
    assert cfg.seeds == [0, 1]


def test_parse_config_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="task.radius"):
        parse_config(base_config(task={"num_classes": 3, "input_dim": 2,
                                       "radius": 5}))
    with pytest.raises(ConfigurationError, match="colour"):
        parse_config(base_config(colour="red"))
    raw = base_config()
    raw["selector"] = {"gala": {"treshold": 0.5}}
    with pytest.raises(ConfigurationError, match="selector.gala.treshold"):
        parse_config(raw)
    raw = base_config()
    raw["model"][0]["bias"] = True
    with pytest.raises(ConfigurationError, match=r"model\[0\].bias"):
        parse_config(raw)


def test_parse_config_names_missing_fields():
    raw = base_config()
    del raw["loss"]
    with pytest.raises(ConfigurationError, match="loss"):
        parse_config(raw)
    raw = base_config()
    del raw["optimizer"]["learning_rate"]
    with pytest.raises(ConfigurationError, match="optimizer.learning_rate"):
        parse_config(raw)


def test_parse_config_selector_exactly_one():
    raw = base_config()
    raw["selector"] = {}
    with pytest.raises(ConfigurationError, match="gala.*baseline|baseline.*gala"):
        parse_config(raw)
    raw["selector"] = {"gala": {"threshold": 0.5},
                       "baseline": {"variant": "erm"}}
    with pytest.raises(ConfigurationError):
        parse_config(raw)


def test_parse_config_null_window_means_no_resets():
    raw = base_config()
    raw["selector"]["gala"]["window_size"] = None
    cfg = parse_config(raw)
    assert cfg.selector.window_size == math.inf


def test_parse_config_seed_list_validation():
    for bad in ([], [0.5], ["a"], [True], "seeds"):
        with pytest.raises(ConfigurationError, match="seeds"):
            parse_config(base_config(seeds=bad))


def test_parse_config_batch_size_validation(tmp_path, capsys):
    for bad in ("8", True, 0):
        with pytest.raises(ConfigurationError, match="batch_size"):
            parse_config(base_config(batch_size=bad))
    assert main(["adapt", "--config", str(write_config(tmp_path, batch_size="8"))]) == 2
    assert "batch_size" in capsys.readouterr().err



def with_leaf(raw, path, value):
    """A copy of ``raw`` with the leaf at ``path`` (keys and list indices)
    set to ``value``."""
    raw = json.loads(json.dumps(raw))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize("path,value,field", [
    (("pretrain", "steps"), "20", "pretrain.steps"),
    (("pretrain", "steps"), True, "pretrain.steps"),
    (("pretrain", "learning_rate"), "0.1", "pretrain.learning_rate"),
    (("task", "num_classes"), "4", "task.num_classes"),
    (("task", "seed"), 1.5, "task.seed"),
    (("optimizer", "learning_rate"), "0.3", "optimizer.learning_rate"),
    (("selector", "gala", "threshold"), "0.5", "selector.gala.threshold"),
    (("selector", "gala", "warmup_len"), True, "selector.gala.warmup_len"),
    (("geometry",), {"td_norms": ["x"]}, "geometry.td_norms[0]"),
])
def test_numeric_config_fields_type_checked(tmp_path, capsys, path, value, field):
    """A numeric field of the wrong type exits 2 naming the field, before
    any work runs."""
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(with_leaf(base_config(), path, value)))
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path,value", [(("selector", "gala", "warmup_mode"), "none"),
                                        (("optimizer", "kind"), "sgd")],
                         ids=["warmup_mode", "optimizer_kind"])
def test_removed_config_fields_exit_2_naming_them(tmp_path, capsys, path, value):
    """warmup_len 0 is the way to turn warm-up off and plain SGD is the only
    optimizer, so neither has a field of its own."""
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps(with_leaf(base_config(), path, value)))
    assert main(["adapt", "--config", str(cfg)]) == 2
    assert f"unknown config field: {'.'.join(path)}" in capsys.readouterr().err


@pytest.mark.parametrize("path,value,field", [
    (("model", 1, "kind"), "conv", "model[1].kind"),
    (("model", 1, "kind"), "activation", "model[1].kind"),
    (("model", 0, "activation"), "softplus", "model[0].activation"),
    (("loss", "variant"), "mse", "loss.variant"),
    (("shifts", 0, "kind"), "blur", "shifts[0].kind"),
    (("task", "class_geometry"), "spirals", "task.class_geometry"),
    (("selector",), {"baseline": {"variant": "oracle"}}, "selector.baseline.variant"),
], ids=["layer_kind", "activation_kind", "activation", "loss_variant", "shift_kind",
        "class_geometry", "baseline_variant"])
def test_enum_config_fields_exit_2_naming_them(tmp_path, capsys, path, value, field):
    """A named option that is not one of its values exits 2 naming its path
    and the values, before any work runs; a layer of the removed
    parameter-free kind "activation" is one such value."""
    cfg = tmp_path / "enum.json"
    cfg.write_text(json.dumps(with_leaf(base_config(), path, value)))
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be one of " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode,num_shifts", [
    (5, 1), ("sequential", 1), (None, 1), (["continual"], 1), (True, 1), ("single", 2),
])
def test_shift_mode_checked_at_parse(tmp_path, capsys, mode, num_shifts):
    """shift_mode names a stream mode, and single mode takes one shift;
    anything else exits 2 naming the field, before any work runs."""
    raw = base_config(shift_mode=mode)
    raw["shifts"] = raw["shifts"] * num_shifts
    cfg = tmp_path / "mode.json"
    cfg.write_text(json.dumps(raw))
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "shift_mode" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis,value", [
    ("batch_size", True), ("batch_size", 2.7), ("batch_size", "8"), ("batch_size", 0),
    ("threshold", "abc"), ("threshold", True), ("threshold", None),
    ("window_size", 2.5), ("window_size", False), ("granularity", 3),
])
def test_sweep_values_checked_by_axis(tmp_path, capsys, axis, value):
    cfg = write_config(tmp_path, sweep={"axis": axis, "values": [0.5, value]
                                        if axis == "threshold" else [value]})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    index = 1 if axis == "threshold" else 0
    assert f"sweep.values[{index}]" in err and "Traceback" not in err


@pytest.mark.parametrize("path,bad,good,field", [
    (("batch_size",), 33, 32, "batch_size"),
    (("sweep",), {"axis": "batch_size", "values": [8, 33]},
     {"axis": "batch_size", "values": [8, 32]}, "sweep.values[1]"),
    (("pretrain", "batch_size"), 41, 40, "pretrain.batch_size"),
], ids=["batch_size", "sweep_value", "pretrain_batch_size"])
def test_oversized_batch_size_exits_2_naming_its_field(tmp_path, capsys, fuzz_checkpoint_root,
                                                       path, bad, good, field):
    """A batch larger than a segment's 32 adapt samples (four fifths of the
    40 samples per domain), or a pretraining batch larger than the 40
    samples, exits 2 naming its field when the config is read: sweep
    prints no row before it exits."""
    parse_config(with_leaf(_FUZZ_BASE, path, good))
    shutil.copytree(fuzz_checkpoint_root / "pretrain", tmp_path / "pretrain")
    cfg = tmp_path / "oversized.json"
    cfg.write_text(json.dumps(with_leaf(_FUZZ_BASE, path, bad)))
    for command in ("pretrain", "adapt", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {field} must be in [1, "), command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["oversized.json", "pretrain"]


@pytest.mark.parametrize("selector,field", [
    ({"baseline": {"variant": "random_block", "granularity": "block", "num_blocks": 0}},
     "selector.baseline.num_blocks"),
    ({"baseline": {"variant": "erm", "granularity": "blok"}}, "selector.baseline.granularity"),
    ({"baseline": {"variant": "all_layers", "granularity": "block", "num_blocks": 3}},
     "selector.baseline.num_blocks"),
    ({"gala": {"granularity": "block", "num_blocks": 3}}, "selector.gala.num_blocks"),
], ids=["baseline_zero_blocks", "baseline_unknown_granularity", "baseline_too_many_blocks",
        "gala_too_many_blocks"])
def test_grouping_fields_checked_at_parse(tmp_path, capsys, selector, field):
    """A granularity that is not a mode, or a block count below 1 or above
    the two layers of the model, exits 2 naming the field before any work
    runs; adapt does the same instead of failing mid-run."""
    cfg = write_config(tmp_path, selector=selector)
    for command in ("pretrain", "adapt"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err, command
    assert not (tmp_path / "out").exists()


def test_config_tables_match_dataclass_fields():
    """Each section's field table names exactly the fields of the dataclass
    it builds, so no dataclass field is unreachable from a config file; the
    one exception is a baseline's rng_seed, which comes from the run seed."""
    names = lambda cls: {f.name for f in dataclasses.fields(cls)}
    for table, cls in ((config._TASK, TaskSpec), (config._SHIFT, ShiftSpec),
                       (config._LAYER, LayerSpec), (config._LOSS, LossKind),
                       (config._OPTIMIZER, OptimizerConfig), (config._GALA, GalaConfig),
                       (config._PRETRAIN, config.PretrainSettings),
                       (config._GEOMETRY, config.GeometrySettings),
                       (config._SWEEP, config.SweepSettings)):
        assert set(table) == names(cls), cls.__name__
    assert set(config._TOP) == names(config.ExperimentConfig) - {"raw"}
    assert set(config._SELECTOR) == {"gala", "baseline"}
    assert set(config._BASELINE) == names(SelectorKind) - {"rng_seed"}
    assert set(config._SHIFT_PARAMS) == set().union(*_ALLOWED_PARAMS.values())


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


# a small geometry grid keeps each geometry run to milliseconds
_FUZZ_BASE = with_leaf(with_leaf(with_leaf(
    json.loads(QUICKSTART.read_text()), ("pretrain", "steps"), 5),
    ("task", "samples_per_domain"), 40),
    ("geometry",), {"td_norms": [0.5, 2.0], "u_norms": [1.0], "betas": [0.0, 1.5]})
_OTHER_TYPES = {
    str: st.text(max_size=4),
    bool: st.booleans(),
    float: st.floats(),
    type(None): st.none(),
    list: st.lists(st.integers(-2, 2) | st.text(max_size=2), max_size=2),
}


@st.composite
def mutated_quickstart(draw):
    path, leaf = draw(st.sampled_from(list(_leaves(_FUZZ_BASE))))
    value = draw(st.one_of(*[s for t, s in _OTHER_TYPES.items() if type(leaf) is not t]))
    return with_leaf(_FUZZ_BASE, path, value)


@pytest.fixture(scope="module")
def fuzz_checkpoint_root(tmp_path_factory):
    """An output root holding the fuzz base config's checkpoint, pretrained
    once for every example's adapt and oracle runs."""
    root = tmp_path_factory.mktemp("fuzz_base")
    cfg = root / "base.json"
    cfg.write_text(json.dumps(_FUZZ_BASE))
    assert main(["pretrain", "--config", str(cfg), "--out", str(root / "out")]) == 0
    return root / "out"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw=mutated_quickstart())
def test_fuzzed_quickstart_leaf_exits_0_or_2(tmp_path_factory, fuzz_checkpoint_root, raw):
    """Any one leaf of the quickstart config swapped for a value of another
    JSON type: pretrain runs or exits 2, and adapt, oracle, geometry and
    report on the base checkpoint exit 0, 1 or 2. No command raises or
    prints a traceback."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "fuzz.json"
    cfg.write_text(json.dumps(raw))
    assert main(["pretrain", "--config", str(cfg), "--out", str(root / "out")]) in (0, 2)
    for command in ("adapt", "oracle", "geometry", "report"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(fuzz_checkpoint_root)])
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), command


def without_key(raw, path):
    """A copy of ``raw`` with the key at ``path`` removed."""
    raw = json.loads(json.dumps(raw))
    node = raw
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return raw


def _objects(node, path=()):
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from _objects(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _objects(value, path + (i,))


def _key_and_range_mutations(name, raw):
    """Every config one edit away from ``raw``, with a test id: one key
    dropped, an unknown key added to one object, or one integer leaf set to
    0 or -1."""
    show = lambda path: ".".join(map(str, (name,) + path))
    for path, obj in _objects(raw):
        for key in obj:
            yield pytest.param(without_key(raw, path + (key,)), id=f"drop:{show(path + (key,))}")
        yield pytest.param(with_leaf(raw, path + ("unknown_field",), 1), id=f"add:{show(path)}")
    for path, leaf in _leaves(raw):
        if type(leaf) is int:
            for value in (0, -1):
                yield pytest.param(with_leaf(raw, path, value), id=f"{show(path)}={value}")


_BLOCK_BASE = with_leaf(_FUZZ_BASE, ("selector",), {"baseline": {
    "variant": "random_block", "granularity": "block", "num_blocks": 2}})


@pytest.mark.parametrize("raw", [
    *_key_and_range_mutations("quickstart", _FUZZ_BASE),
    *(p for p in _key_and_range_mutations("block", _BLOCK_BASE) if ".selector" in p.id)])
def test_quickstart_key_and_range_edits_exit_0_or_2(tmp_path, fuzz_checkpoint_root, raw):
    """The quickstart config, and its selector swapped for a block-grouped
    baseline, with one key dropped or added or one integer set to 0 or -1
    (the variant's edits are those of its selector): pretrain
    runs or exits 2, and adapt, oracle, sweep, geometry and report on the
    base checkpoint exit 0, 1 or 2 (on one seed, to keep the test fast). No
    command raises or prints a traceback."""
    cfg = tmp_path / "edited.json"
    cfg.write_text(json.dumps(raw))
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 2)
    for command in ("adapt", "oracle", "sweep", "geometry", "report"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(fuzz_checkpoint_root),
                         "--seed", "0"])
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), command


def test_parse_config_sweep_axis_whitelist():
    raw = base_config(sweep={"axis": "learning_rate", "values": [0.1]})
    with pytest.raises(ConfigurationError, match="sweep.axis"):
        parse_config(raw)
    raw = base_config(sweep={"axis": "threshold", "values": []})
    with pytest.raises(ConfigurationError, match="sweep.values"):
        parse_config(raw)
    raw = base_config(sweep={"axis": "window_size", "values": [20, None]})
    assert parse_config(raw).sweep.values == [20, math.inf]


@pytest.mark.parametrize("axis,values", [
    ("threshold", [0.5]), ("window_size", [5, None]), ("granularity", ["multi_layer"]),
])
def test_gala_sweep_axis_needs_a_gala_selector(tmp_path, capsys, axis, values):
    """A threshold, window_size or granularity sweep over a baseline is
    rejected when the config is read, naming sweep.axis, so pretrain
    exits 2 before any run; a batch_size sweep over a baseline parses."""
    baseline = {"baseline": {"variant": "random_block"}}
    raw = base_config(selector=baseline, sweep={"axis": axis, "values": values})
    with pytest.raises(ConfigurationError, match=f"sweep.axis {axis} needs a gala selector"):
        parse_config(raw)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    assert main(["pretrain", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "sweep.axis" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    raw["sweep"] = {"axis": "batch_size", "values": [4]}
    assert parse_config(raw).sweep.values == [4]


def test_load_config_missing_or_invalid(tmp_path):
    with pytest.raises(ConfigurationError, match="nope.json"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(bad)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One pretrained checkpoint plus adapt artifacts, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(base_config(output_dir=str(root / "out"))))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["adapt", "--config", str(cfg_path)]) == 0
    return root, cfg_path


def test_pretrain_writes_checkpoint_and_manifest(workspace):
    root, _ = workspace
    ckpt = json.loads((root / "out" / "pretrain" / "checkpoint.json").read_text())
    assert ckpt["metadata"]["val_accuracy"] > 90.0
    manifest = json.loads((root / "out" / "pretrain" / "manifest.json").read_text())
    assert manifest["format"] == "gala-experiment-manifest"
    assert manifest["command"] == "pretrain"
    assert "numpy" in manifest["versions"]
    assert manifest["config"]["task"]["num_classes"] == 3


def test_adapt_writes_per_seed_artifacts(workspace):
    root, _ = workspace
    for seed in (0, 1):
        rundir = root / "out" / "adapt" / f"seed{seed}"
        assert (rundir / "summary.json").exists()
        assert (rundir / "trace.tsv").exists()
        summary, payload = parse_summary(rundir / "summary.json")
        assert payload["seed"] == seed
        assert 0.0 <= summary.tta_acc <= 100.0
    with open(root / "out" / "adapt" / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["0", "1", "mean", "std"]


def test_adapt_rerun_byte_identical(workspace):
    root, cfg_path = workspace
    target = root / "out" / "adapt" / "seed0" / "summary.json"
    before = target.read_bytes()
    assert main(["adapt", "--config", str(cfg_path)]) == 0
    assert target.read_bytes() == before


def test_report_rebuilds_aggregate_idempotently(workspace):
    root, cfg_path = workspace
    agg = root / "out" / "adapt" / "aggregate.csv"
    first = agg.read_bytes()
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert agg.read_bytes() == first
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert agg.read_bytes() == first


def test_adapt_seed_override_runs_single_seed(workspace, tmp_path):
    root, cfg_path = workspace
    out = tmp_path / "solo"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["adapt", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "7"]) == 0
    rundirs = sorted(p.name for p in (out / "adapt").glob("seed*"))
    assert rundirs == ["seed7"]


def test_adapt_no_trace_skips_trace_file(workspace, tmp_path):
    root, cfg_path = workspace
    out = tmp_path / "quiet"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["adapt", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "0", "--no-trace"]) == 0
    rundir = out / "adapt" / "seed0"
    assert (rundir / "summary.json").exists()
    assert not (rundir / "trace.tsv").exists()


@pytest.mark.parametrize("argv", [
    ["pretrain", "--no-trace"], ["oracle", "--no-trace"], ["sweep", "--no-trace"],
    ["geometry", "--no-trace"], ["report", "--no-trace"], ["adapt", "--trace"],
], ids=["pretrain", "oracle", "sweep", "geometry", "report", "adapt_trace"])
def test_trace_switch_is_adapts_no_trace_only(tmp_path, argv):
    """Only adapt writes a trace, so only adapt takes --no-trace; --trace,
    the default, is no flag at all. Anything else is a usage error."""
    cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    with pytest.raises(SystemExit) as info:
        main([*argv, "--config", str(cfg_path)])
    assert info.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["adapt", "oracle", "sweep"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    """A negative --seed exits 2 naming --seed, before any output is made,
    as the config's seeds list refuses one."""
    cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(cfg_path), "--seed", "-1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a nonnegative integer, got '-1'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_adapt_missing_checkpoint_names_path(tmp_path, capsys):
    cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "empty"))
    assert main(["adapt", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.json" in err
    assert "pretrain" in err


def _broken_checkpoint(workspace, tmp_path, corrupt):
    """A config whose output dir holds the workspace checkpoint, corrupted;
    its stream comes in batches of one, which read running statistics."""
    root, _ = workspace
    text = (root / "out" / "pretrain" / "checkpoint.json").read_text()
    ckpt = tmp_path / "broken" / "pretrain" / "checkpoint.json"
    ckpt.parent.mkdir(parents=True)
    ckpt.write_text(corrupt(text))
    return write_config(tmp_path, output_dir=str(tmp_path / "broken"), batch_size=1), ckpt


def _without_layer_specs(text):
    payload = json.loads(text)
    del payload["layer_specs"]
    return json.dumps(payload)


def _foreign_layer_names(text):
    payload = json.loads(text)
    payload["layer_names"] = ["x"]
    return json.dumps(payload)


def _with_activation_layer(text):
    """The checkpoint with a parameter-free activation layer between its two
    dense layers, a kind of layer that no longer exists."""
    payload = json.loads(text)
    payload["layer_specs"].insert(1, {"kind": "activation", "input_dim": 8, "output_dim": 8,
                                      "activation": "tanh"})
    payload["params"].insert(1, [])
    payload["layer_names"] = [f"L{i}_{s['kind']}" for i, s in enumerate(payload["layer_specs"])]
    return json.dumps(payload)


def _stacked_params(text):
    """The checkpoint with each layer's parameters stacked twice, as two runs."""
    payload = json.loads(text)
    payload["params"] = [[v, v] for v in payload["params"]]
    return json.dumps(payload)


def _with_norm_stats(mean, var, layer="normalization"):
    """The checkpoint with the running statistics ``mean`` and ``var`` for
    layer 1: a normalization layer of width 8 put between its two dense
    layers, or with ``layer`` "dense", its second dense layer."""
    def corrupt(text):
        payload = json.loads(text)
        if layer == "normalization":
            payload["layer_specs"].insert(1, {"kind": "normalization", "input_dim": 8,
                                              "output_dim": 8, "activation": "identity"})
            payload["params"].insert(1, [1.0] * 8 + [0.0] * 8)
            payload["layer_names"] = [f"L{i}_{s['kind']}"
                                      for i, s in enumerate(payload["layer_specs"])]
        payload["norm_stats"] = {"1": {"mean": mean, "var": var}}
        return json.dumps(payload)
    return corrupt


@pytest.mark.parametrize("corrupt", [lambda text: text[: len(text) // 2], _without_layer_specs,
                                     _foreign_layer_names, _with_activation_layer,
                                     _stacked_params, _with_norm_stats([0.0] * 3, [1.0] * 8),
                                     _with_norm_stats([0.0] * 8, [1.0] * 8, layer="dense"),
                                     _with_norm_stats([0.0] * 8, [1.0] * 7 + [-1.0])],
                         ids=["truncated", "no_layer_specs", "foreign_layer_names",
                              "activation_layer", "stacked_params", "norm_mean_of_length_3",
                              "norm_stats_of_a_dense_layer", "negative_norm_var"])
def test_adapt_malformed_checkpoint_names_path(workspace, tmp_path, capsys, corrupt):
    cfg_path, ckpt = _broken_checkpoint(workspace, tmp_path, corrupt)
    assert main(["adapt", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err
    assert "Traceback" not in err


def test_erm_adapt_reports_zero_forgetting(workspace, tmp_path):
    """The no-update selector must leave source accuracy untouched."""
    root, _ = workspace
    out = tmp_path / "erm"
    cfg_path = write_config(tmp_path, name="erm.json",
                            selector={"baseline": {"variant": "erm",
                                                   "granularity": "single_layer"}},
                            output_dir=str(out))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["adapt", "--config", str(cfg_path), "--seed", "0"]) == 0
    summary, _ = parse_summary(out / "adapt" / "seed0" / "summary.json")
    assert summary.forgetting == 0.0


def test_sweep_rows_keyed_by_threshold(workspace, tmp_path):
    root, _ = workspace
    out = tmp_path / "sweeps"
    cfg_path = write_config(tmp_path, name="sweep.json",
                            sweep={"axis": "threshold",
                                   "values": [0.5, 0.75, 0.99]},
                            seeds=[0], output_dir=str(out))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    with open(out / "sweep" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["threshold"] for r in rows[:3]] == ["0.5", "0.75", "0.99"]
    assert rows[3]["threshold"] == "mean"
    assert rows[4]["threshold"] == "std"
    for row in rows[:3]:
        assert 0.0 <= float(row["tta_acc"]) <= 100.0


def test_sweep_without_section_errors(workspace, tmp_path, capsys):
    root, cfg_path = workspace
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "sweep" in capsys.readouterr().err


def test_oracle_writes_rankings(workspace):
    root, cfg_path = workspace
    assert main(["oracle", "--config", str(cfg_path), "--seed", "0"]) == 0
    payload = json.loads((root / "out" / "oracle" / "seed0.json").read_text())
    assert payload["format"] == "gala-oracle-result"
    assert set(payload["group_names"]) == set(payload["selection_frequency"])
    assert payload["best_group"] in payload["group_names"]
    accs = payload["oracle_accuracies"]
    assert payload["best_group"] == payload["group_names"][accs.index(max(accs))]


def test_baseline_rng_seed_field_rejected(tmp_path, capsys):
    """random_block draws from the run seed; the config has no seed of its own."""
    raw = base_config(selector={"baseline": {"variant": "random_block", "rng_seed": 3}})
    with pytest.raises(ConfigurationError, match="selector.baseline.rng_seed"):
        parse_config(raw)
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(raw))
    assert main(["adapt", "--config", str(path)]) == 2
    assert "selector.baseline.rng_seed" in capsys.readouterr().err


def test_quickstart_erm_adapts_with_default_grouping(tmp_path):
    """A baseline without a granularity adapts per layer, which fits the
    two-layer quickstart network."""
    raw = json.loads(QUICKSTART.read_text())
    del raw["sweep"]  # a threshold sweep needs a gala selector
    raw.update(selector={"baseline": {"variant": "erm"}}, seeds=[0],
               output_dir=str(tmp_path / "erm"))
    path = tmp_path / "quickstart_erm.json"
    path.write_text(json.dumps(raw))
    assert main(["pretrain", "--config", str(path)]) == 0
    assert main(["adapt", "--config", str(path)]) == 0
    summary, _ = parse_summary(tmp_path / "erm" / "adapt" / "seed0" / "summary.json")
    assert sorted(summary.selection_frequency) == ["L0_dense", "L1_dense"]
    assert summary.forgetting == 0.0


@pytest.mark.parametrize("selector, passes", [
    ({"gala": {"granularity": "single_layer"}}, 1),
    ({"baseline": {"variant": "all_layers"}}, 1),
    ({"baseline": {"variant": "random_block"}}, 1),
    ({"baseline": {"variant": "auto_rgn"}}, 1),
    ({"baseline": {"variant": "oracle_best", "fixed_group": "L0_dense"}}, 1),
    ({"baseline": {"variant": "oracle_best"}}, 1),
    # erm never moves: its frozen evaluation iterates the stream by itself
    ({"baseline": {"variant": "erm"}}, 2),
], ids=["gala", "all_layers", "random_block", "auto_rgn", "pinned_oracle_best", "oracle_best",
        "erm"])
def test_oracle_runs_one_sweep_per_seed(tmp_path, monkeypatch, selector, passes):
    """Each seed steps the configured selector beside the sweep's trials in
    one lockstep pass over the stream; an unpinned oracle selector adds no
    run and takes the record of the sweep's trial on its group."""
    counts = []

    class CountedBatches(list):
        def __iter__(self):
            counts[-1] += 1
            return super().__iter__()

    def counted_stream(*args, **kwargs):
        stream = build_stream(*args, **kwargs)
        stream.adapt_batches = CountedBatches(stream.adapt_batches)
        counts.append(0)
        return stream

    build_stream = gala.cli.build_stream
    monkeypatch.setattr(gala.cli, "build_stream", counted_stream)
    path = write_config(tmp_path, selector=selector, output_dir=str(tmp_path / "oracle"))
    assert main(["pretrain", "--config", str(path)]) == 0
    assert main(["oracle", "--config", str(path)]) == 0
    assert counts == [passes, passes]


def test_oracle_seed_file_equals_separate_sweep_and_run(workspace, tmp_path):
    """The one shared pass writes the seed file that a separate oracle_sweep
    and run_gala over the same stream give."""
    root, cfg_path = workspace
    out = tmp_path / "out"
    shutil.copytree(root / "out" / "pretrain", out / "pretrain")
    assert main(["oracle", "--config", str(cfg_path), "--seed", "1", "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    network, params, _, _ = gala.cli._load_pretrained(out)
    stream = gala.cli.build_stream(cfg.task, cfg.shifts, cfg.shift_mode, cfg.batch_size, seed=1)
    grouping = build_grouping(network.layer_names, [s.param_count for s in network.specs],
                              "single_layer")
    sweep = oracle_sweep(network, params, stream, cfg.loss, cfg.optimizer, grouping)
    record = run_gala(network, params, stream, cfg.loss, cfg.optimizer, cfg.selector, seed=1)
    freqs = selection_frequency(record)
    rank = spearman_rank_correlation(sweep.accuracies, [freqs[g] for g in sweep.group_names])
    reference = {
        "format": "gala-oracle-result",
        "format_version": 1,
        "seed": 1,
        "group_names": sweep.group_names,
        "oracle_accuracies": sweep.accuracies,
        "best_group": sweep.best_group,
        "worst_group": sweep.worst_group,
        "selection_frequency": freqs,
        "rank_correlation": None if math.isnan(rank) else rank,
    }
    assert (out / "oracle" / "seed1.json").read_text() == json.dumps(reference, indent=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_divergence_exits_1_naming_the_group(tmp_path, capsys):
    """A sweep whose trial on one group goes non-finite exits 1 with an
    error naming that group, and no traceback or numpy warning."""
    net, params = diverging_relu_net()
    out = tmp_path / "out"
    (out / "pretrain").mkdir(parents=True)
    save_checkpoint(out / "pretrain" / "checkpoint.json", net, params, seed=0)
    model = [{"kind": s.kind, "input_dim": s.input_dim, "output_dim": s.output_dim,
              "activation": s.activation} for s in net.specs]
    path = write_config(tmp_path, model=model, batch_size=4, seeds=[0],
                        task={"num_classes": 3, "input_dim": 2, "samples_per_domain": 40,
                              "seed": 4},
                        optimizer={"learning_rate": 1e305})
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "oracle trial on L1_dense diverged" in err and "Traceback" not in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("selector, diverged", [
    ({"gala": {"granularity": "single_layer"}}, "gala run and oracle trial on L1_dense"),
    ({"baseline": {"variant": "all_layers"}}, "all_layers run and oracle trial on L1_dense"),
    ({"baseline": {"variant": "oracle_best", "fixed_group": "L0_dense"}},
     "error: oracle trial on L1_dense"),
], ids=["gala", "all_layers", "pinned_oracle_best"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_selector_divergence_exits_1_naming_it(tmp_path, capsys, selector, diverged):
    """A selector whose run goes non-finite in the pass it shares with the
    sweep's trials exits 1 naming it beside the trial that did too, with no
    traceback or numpy warning; a selector that stays finite is not named."""
    net, params = diverging_relu_net()
    out = tmp_path / "out"
    (out / "pretrain").mkdir(parents=True)
    save_checkpoint(out / "pretrain" / "checkpoint.json", net, params, seed=0)
    model = [{"kind": s.kind, "input_dim": s.input_dim, "output_dim": s.output_dim,
              "activation": s.activation} for s in net.specs]
    path = write_config(tmp_path, model=model, batch_size=4, seeds=[0], selector=selector,
                        task={"num_classes": 3, "input_dim": 2, "samples_per_domain": 40,
                              "seed": 4},
                        optimizer={"learning_rate": 1e305})
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{diverged} diverged: non-finite activation at layer 1" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_erm_divergence_exits_1(tmp_path, capsys):
    """erm on a checkpoint whose activations overflow exits 1 naming the
    non-finite layer, with no traceback."""
    net, params = diverging_relu_net()
    for v in params.layers:
        v *= 1e120
    out = tmp_path / "out"
    (out / "pretrain").mkdir(parents=True)
    save_checkpoint(out / "pretrain" / "checkpoint.json", net, params, seed=0)
    model = [{"kind": s.kind, "input_dim": s.input_dim, "output_dim": s.output_dim,
              "activation": s.activation} for s in net.specs]
    path = write_config(tmp_path, model=model, batch_size=4, seeds=[0],
                        task={"num_classes": 3, "input_dim": 2, "samples_per_domain": 40,
                              "seed": 4},
                        selector={"baseline": {"variant": "erm"}})
    assert main(["adapt", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "non-finite activation" in err and "Traceback" not in err


def test_sweep_block_value_checked_against_the_model(tmp_path, capsys):
    """A granularity sweep's block value needs selector.gala.num_blocks to
    fit the model's layers: parse time rejects it naming the value, so
    pretrain exits 2 before any run; a count that fits parses."""
    raw = json.loads(QUICKSTART.read_text())
    raw["selector"]["gala"]["num_blocks"] = 3
    raw["sweep"] = {"axis": "granularity", "values": ["single_layer", "block"]}
    with pytest.raises(ConfigurationError, match=r"sweep.values\[1\] block needs "
                                                 r"selector.gala.num_blocks 3"):
        parse_config(raw)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    assert main(["pretrain", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "sweep.values[1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    raw["selector"]["gala"]["num_blocks"] = 2
    assert parse_config(raw).sweep.values == ["single_layer", "block"]


def test_geometry_runs_without_config(tmp_path):
    assert main(["geometry", "--out", str(tmp_path / "geo")]) == 0
    lines = (tmp_path / "geo" / "geometry" / "grid.tsv").read_text().strip().split("\n")
    assert lines[0].split("\t") == ["td_norm", "u_norm", "beta", "cos"]
    assert len(lines) == 1 + 41 * 41 * 41


def test_geometry_without_config_uses_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("GALA_OUTPUT_ROOT", str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    assert main(["geometry"]) == 0
    assert (tmp_path / "envroot" / "geometry" / "grid.tsv").exists()
    assert not (tmp_path / "runs").exists()


def test_geometry_uses_config_axes(workspace, tmp_path):
    root, _ = workspace
    out = tmp_path / "geo2"
    cfg_path = write_config(tmp_path, name="geo.json",
                            geometry={"td_norms": [0.5, 1.0],
                                      "u_norms": [1.0],
                                      "betas": [0.0, 2.0]},
                            output_dir=str(out))
    assert main(["geometry", "--config", str(cfg_path)]) == 0
    lines = (out / "geometry" / "grid.tsv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 1 * 2


def test_output_root_env_fallback(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path)  # no output_dir in config
    monkeypatch.setenv("GALA_OUTPUT_ROOT", str(tmp_path / "envroot"))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envroot" / "pretrain" / "checkpoint.json").exists()


def test_output_root_env_prefixes_relative_dir(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, output_dir="exp1")
    monkeypatch.setenv("GALA_OUTPUT_ROOT", str(tmp_path / "envroot"))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envroot" / "exp1" / "pretrain" / "checkpoint.json").exists()


def test_out_flag_beats_config_and_env(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "cfgdir"))
    monkeypatch.setenv("GALA_OUTPUT_ROOT", str(tmp_path / "envroot"))
    assert main(["pretrain", "--config", str(cfg_path), "--out",
                 str(tmp_path / "flagdir")]) == 0
    assert (tmp_path / "flagdir" / "pretrain" / "checkpoint.json").exists()
    assert not (tmp_path / "cfgdir").exists()
    assert not (tmp_path / "envroot").exists()


def test_report_without_runs_errors(tmp_path, capsys):
    cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "none"))
    assert main(["report", "--config", str(cfg_path)]) == 2
    assert "adapt" in capsys.readouterr().err


def _truncated(rundir):
    summary = rundir / "summary.json"
    summary.write_text(summary.read_text()[:40])
    return summary


def _metrics_missing(rundir):
    summary = rundir / "summary.json"
    summary.write_text(json.dumps({"format": "gala-run-summary"}))
    return summary


def _stray_run_dir(rundir):
    stray = rundir.parent / "seedX"
    stray.mkdir()
    (stray / "summary.json").write_text((rundir / "summary.json").read_text())
    return stray


@pytest.mark.parametrize("corrupt", [_truncated, _metrics_missing, _stray_run_dir],
                         ids=["truncated", "metrics_missing", "stray_run_dir"])
def test_report_malformed_runs_name_path(workspace, tmp_path, capsys, corrupt):
    """A summary that is not valid JSON or lacks its metrics, or a seed*
    directory whose suffix is not an integer, exits 2 naming that path."""
    root, _ = workspace
    out = tmp_path / "out"
    shutil.copytree(root / "out" / "adapt", out / "adapt")
    bad = corrupt(out / "adapt" / "seed0")
    cfg_path = write_config(tmp_path, output_dir=str(out))
    assert main(["report", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


def test_config_required_for_non_geometry(capsys):
    assert main(["adapt"]) == 2
    assert "--config" in capsys.readouterr().err


def _config_is_a_directory(tmp_path):
    return ["adapt", "--config", str(tmp_path)], 2, tmp_path


def _config_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(base_config(output_dir="caf\xe9"),
                                ensure_ascii=False).encode("latin-1"))
    return ["adapt", "--config", str(path)], 2, path


def _checkpoint_is_a_directory(tmp_path):
    ckpt = tmp_path / "out" / "pretrain" / "checkpoint.json"
    ckpt.mkdir(parents=True)
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    return ["adapt", "--config", str(cfg)], 2, ckpt


def _summary_is_a_directory(tmp_path):
    summary = tmp_path / "out" / "adapt" / "seed0" / "summary.json"
    summary.mkdir(parents=True)
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    return ["report", "--config", str(cfg)], 2, summary


def _out_is_a_file(tmp_path):
    out = tmp_path / "taken"
    out.write_text("")
    return ["pretrain", "--config", str(write_config(tmp_path)), "--out", str(out)], 1, out


@pytest.mark.parametrize("case", [_config_is_a_directory, _config_not_utf8,
                                  _checkpoint_is_a_directory, _summary_is_a_directory,
                                  _out_is_a_file],
                         ids=["config_dir", "config_not_utf8", "checkpoint_dir", "summary_dir",
                              "out_is_file"])
def test_unreadable_input_or_unwritable_output_names_path(tmp_path, capsys, case):
    """An input that cannot be read or decoded exits 2 and an output that
    cannot be written exits 1, each naming the path, with no traceback."""
    argv, code, path = case(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_adapt_pins_run_fingerprints(tmp_path):
    """summary.json's fingerprints for the quickstart config and its
    random_block block-2 variant, seeds 0 and 1."""
    raw = json.loads(QUICKSTART.read_text())
    raw["output_dir"] = str(tmp_path / "out")
    random_block = {key: value for key, value in raw.items() if key != "sweep"}
    random_block["selector"] = {"baseline": {"variant": "random_block",
                                             "granularity": "block", "num_blocks": 2}}
    expected = [(raw, ["bf9b2fa4961a498e", "36380e41d6bab215"]),
                (random_block, ["f3a7b481430a660e", "b50f869aebc1dd95"])]
    for i, (cfg, fingerprints) in enumerate(expected):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        if i == 0:
            assert main(["pretrain", "--config", str(path)]) == 0
        assert main(["adapt", "--config", str(path), "--no-trace"]) == 0
        for seed, fingerprint in enumerate(fingerprints):
            _, payload = parse_summary(tmp_path / "out" / "adapt" / f"seed{seed}" /
                                       "summary.json")
            assert payload["config_fingerprint"] == fingerprint


def test_integer_written_reals_give_one_fingerprint(tmp_path, fuzz_checkpoint_root):
    """A real field reads as a float, so learning_rate 1 and 1.0 are one run
    with one fingerprint in summary.json."""
    shutil.copytree(fuzz_checkpoint_root / "pretrain", tmp_path / "pretrain")
    fingerprints = []
    for lr in (1, 1.0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(with_leaf(_FUZZ_BASE, ("optimizer", "learning_rate"), lr)))
        assert type(json.loads(cfg.read_text())["optimizer"]["learning_rate"]) is type(lr)
        assert main(["adapt", "--config", str(cfg), "--out", str(tmp_path), "--no-trace",
                     "--seed", "0"]) == 0
        _, payload = parse_summary(tmp_path / "adapt" / "seed0" / "summary.json")
        fingerprints.append(payload["config_fingerprint"])
    assert fingerprints[0] == fingerprints[1]


# One edit per field of the run's settings: the config path and its new
# value, or None for seed 1 in place of seed 0. A baseline's rng_seed is the
# run seed, so its edit is the seed's.
_FINGERPRINT_EDITS = {
    "GalaConfig.threshold": (("selector", "gala", "threshold"), 0.5),
    "GalaConfig.window_size": (("selector", "gala", "window_size"), None),
    "GalaConfig.granularity": (("selector", "gala", "granularity"), "multi_layer"),
    "GalaConfig.warmup_len": (("selector", "gala", "warmup_len"), 0),
    "GalaConfig.epsilon": (("selector", "gala", "epsilon"), 10.0),
    "GalaConfig.num_blocks": (("selector", "gala", "num_blocks"), 2),
    "SelectorKind.variant": (("selector", "baseline", "variant"), "all_layers"),
    "SelectorKind.rng_seed": None,
    "SelectorKind.fixed_group": (("selector", "baseline", "fixed_group"), "B0"),
    "SelectorKind.granularity": (("selector", "baseline", "granularity"), "single_layer"),
    "SelectorKind.num_blocks": (("selector", "baseline", "num_blocks"), 1),
    "LossKind.variant": (("loss", "variant"), "shot_im"),
    "LossKind.shot_pl_weight": (("loss", "shot_pl_weight"), 0.5),
    "OptimizerConfig.learning_rate": (("optimizer", "learning_rate"), 0.2),
    "seed": None,
}


@pytest.mark.parametrize("name", [f"{cls.__name__}.{f.name}" for cls in
                                  (GalaConfig, SelectorKind, LossKind, OptimizerConfig)
                                  for f in dataclasses.fields(cls)] + ["seed"])
def test_fingerprint_sees_every_field(tmp_path, fuzz_checkpoint_root, name):
    """Changing any one field of the selector, the loss or the optimizer,
    or the seed, changes the fingerprint in summary.json. A field added to
    one of these dataclasses fails here until it has an edit."""
    shutil.copytree(fuzz_checkpoint_root / "pretrain", tmp_path / "pretrain")
    edit = _FINGERPRINT_EDITS[name]
    # a threshold sweep needs a gala selector
    base = (without_key(_BLOCK_BASE, ("sweep",)) if name.startswith("SelectorKind.")
            else _FUZZ_BASE)
    fingerprints = []
    for raw, seed in ((base, "0"), (base, "1") if edit is None else (with_leaf(base, *edit), "0")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["adapt", "--config", str(cfg), "--out", str(tmp_path), "--no-trace",
                     "--seed", seed]) == 0
        _, payload = parse_summary(tmp_path / "adapt" / f"seed{seed}" / "summary.json")
        fingerprints.append(payload["config_fingerprint"])
    assert fingerprints[0] != fingerprints[1]
