from __future__ import annotations

import json
import math
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from corrsel.cli import main
from corrsel.harness import _usable_cpus
from corrsel.data import load_csv
from corrsel.stats import spearman


@pytest.fixture()
def clone_csv(tmp_path):
    path = tmp_path / "data.csv"
    rows = ["a,b,c,bug"]
    rng = np.random.default_rng(0)
    a = rng.standard_normal(60)
    c = rng.standard_normal(60)
    y = rng.random(60) < 1 / (1 + np.exp(-a))
    for i in range(60):
        rows.append(f"{float(a[i])!r},{float(a[i])!r},{float(c[i])!r},{int(y[i])}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_select_autospearman_happy_path(clone_csv, capsys):
    code = main(["select", str(clone_csv), "--outcome", "bug", "--selector", "AutoSpearman"])
    assert code == 0
    out = capsys.readouterr()
    listed = out.out.strip().splitlines()
    assert listed == ["a", "c"]
    assert "removed b" in out.err


def test_select_json_includes_trace(clone_csv, capsys):
    code = main(
        ["select", str(clone_csv), "--outcome", "bug", "--selector", "autospearman", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["selected"] == ["a", "c"]
    assert doc["trace"][0]["removed"] == "b"
    assert doc["trace"][0]["statistic"] == 1.0


def test_select_explicit_defaults_equal_omitted(clone_csv, capsys):
    main(["select", str(clone_csv), "--outcome", "bug", "--selector", "AutoSpearman"])
    first = capsys.readouterr().out
    main(
        [
            "select", str(clone_csv), "--outcome", "bug", "--selector", "AutoSpearman",
            "--sp-t", "0.7", "--vif-t", "5",
        ]
    )
    assert capsys.readouterr().out == first


def test_select_other_selector(clone_csv, capsys):
    code = main(["select", str(clone_csv), "--outcome", "bug", "--selector", "IG"])
    assert code == 0
    assert capsys.readouterr().out.strip()


def test_select_autospearman_all_constant_metrics(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("a,b,bug\n1,5,0\n1,5,1\n1,5,0\n1,5,1\n", encoding="utf-8")
    code = main(["select", str(path), "--outcome", "bug", "--selector", "AutoSpearman", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["selected"] == []
    assert doc["trace"] == [
        {"phase": "spearman", "removed": "a", "kept": None, "statistic": 0.0},
        {"phase": "spearman", "removed": "b", "kept": None, "statistic": 0.0},
    ]
    assert main(["select", str(path), "--outcome", "bug", "--selector", "IG"]) == 0


def test_unknown_selector_exit_2(clone_csv, capsys):
    code = main(["select", str(clone_csv), "--outcome", "bug", "--selector", "magic"])
    assert code == 2
    err = capsys.readouterr().err
    assert "AutoSpearman" in err and "RFE-LR" in err


def test_missing_file_exit_3(capsys):
    code = main(["select", "/nonexistent.csv", "--outcome", "bug", "--selector", "IG"])
    assert code == 3


def test_bad_outcome_column_exit_3(clone_csv):
    assert main(["select", str(clone_csv), "--outcome", "nope", "--selector", "IG"]) == 3


def test_single_class_dataset_exit_4(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("a,bug\n1,0\n2,0\n3,0\n", encoding="utf-8")
    assert main(["select", str(path), "--outcome", "bug", "--selector", "IG"]) == 4


def test_diagnose_clone_pair(clone_csv, capsys):
    code = main(["diagnose", str(clone_csv), "--outcome", "bug"])
    assert code == 0
    out = capsys.readouterr().out
    assert "has_collinearity" in out and "yes" in out
    assert "inf" in out  # duplicate column has unbounded VIF


def test_diagnose_json_flags_match(clone_csv, capsys):
    main(["diagnose", str(clone_csv), "--outcome", "bug", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["has_collinearity"] is True
    assert doc["vif"]["a"] == "inf"
    from corrsel.harness import correlation_flags

    d = load_csv(clone_csv, "bug")
    flags = correlation_flags(list(d.metric_names), d)
    assert doc["has_collinearity"] == flags.has_collinearity
    assert doc["has_multicollinearity"] == flags.has_multicollinearity


def test_diagnose_metric_subset_singleton(clone_csv, capsys):
    code = main(["diagnose", str(clone_csv), "--outcome", "bug", "--metrics", "c"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.0000" in out
    assert out.count("no") >= 2


def test_diagnose_constant_metric_scores_one(tmp_path, capsys):
    x = np.random.default_rng(85).standard_normal((91, 3))
    x[:, 0] = 0.1
    rows = ["a,b,c,bug"] + [f"{a!r},{b!r},{c!r},{i % 2}" for i, (a, b, c) in enumerate(x.tolist())]
    path = tmp_path / "constant.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["diagnose", str(path), "--outcome", "bug", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vif"]["a"] == 1.0
    assert doc["has_multicollinearity"] is False


def test_synth_writes_clone_csv(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    code = main(
        [
            "synth", "--out", str(out), "--metrics", "5", "--modules", "300",
            "--clones", "1:1:0.01,2:1:0.01,3:1:0.01", "--signal", "1.0,1.0",
            "--seed", "3",
        ]
    )
    assert code == 0
    d = load_csv(out, "bug")
    assert d.n_metrics == 8
    for src in ("m1", "m2", "m3"):
        rho = spearman(d.column(src), d.column(f"{src}_clone1"))
        assert abs(rho) >= 0.99


def test_synth_bad_clone_spec_exit_3(tmp_path, capsys):
    for option, value in [("--clones", "1:1"), ("--clones", "1:x:0.1"), ("--clones", "1.5:1:0.1"),
                          ("--signal", "a,b")]:
        assert main(["synth", "--out", str(tmp_path / "x.csv"), option, value]) == 3
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        # the message names the bad group, or the bad coefficient
        assert repr(value if option == "--clones" else value.split(",")[0]) in lines[0]
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("source", ["0", "5"])
def test_synth_clone_source_out_of_range_names_the_typed_value(tmp_path, capsys, source):
    out = tmp_path / "x.csv"
    assert main(["synth", "--out", str(out), "--metrics", "4", "--clones", f"{source}:1:0.1"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: clone source {source} out of range 1..4"]
    assert not out.exists()


def test_experiment_smoke_and_rerun_identical(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    config = {
        "dataset": {
            "base_metric_count": 4,
            "module_count": 120,
            "signal_coefficients": [1.5, 0, 0, 0],
            "clone_groups": [[0, 1, 0.01]],
            "seed": 13,
        },
        "selectors": ["AutoSpearman", "IG"],
        "bootstrap_count": 5,
        "base_seed": 7,
        "classifiers": ["logistic"],
        "output": str(report_path),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    assert main(["experiment", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "consistency across samples" in out
    first = json.loads(report_path.read_text())
    first.pop("timestamp")

    assert main(["experiment", str(cfg_path)]) == 0
    second = json.loads(report_path.read_text())
    second.pop("timestamp")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def _every_cell_failing_config(tmp_path) -> str:
    """A config whose every grid cell fails: RFE-LR asked for 100 metrics of 5."""
    rng = np.random.default_rng(5)
    rows = ["m1,m2,m3,m4,m5,bug"] + [
        ",".join(f"{v:.4f}" for v in row) + f",{i % 2}" for i, row in enumerate(rng.standard_normal((40, 5)))
    ]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = {
        "dataset": str(tmp_path / "data.csv"),
        "outcome_column": "bug",
        "selectors": ["RFE-LR"],
        "bootstrap_count": 2,
        "selector_config": {"rfe_sizes": [100]},
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return str(tmp_path / "config.json")


def test_experiment_reports_failed_cells_on_stderr(tmp_path, capsys):
    assert main(["experiment", _every_cell_failing_config(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "consistency across samples" in captured.out
    assert captured.err.splitlines() == [
        "warning: RFE-LR: no successful samples",
        "warning: 2 of 2 grid cells failed",
    ]


def test_experiment_prints_one_line_for_each_empty_table(tmp_path, capsys):
    assert main(["experiment", _every_cell_failing_config(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "consistency across samples (%): none, no selector succeeded on any sample",
        "median performance delta (%pts, selected - all): none, no sample has a delta",
    ]


def test_experiment_bad_config_exit_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["experiment", str(path)]) == 3
    path.write_text(json.dumps({"selectors": ["IG"]}), encoding="utf-8")
    assert main(["experiment", str(path)]) == 3
    assert main(["experiment", str(tmp_path / "missing.json")]) == 3


_GOOD_CONFIG = {
    "dataset": {
        "base_metric_count": 3,
        "module_count": 60,
        "signal_coefficients": [1.0, 0, 0],
        "seed": 2,
    },
    "selectors": ["AutoSpearman"],
    "bootstrap_count": 1,
    "classifiers": ["logistic"],
}


@pytest.mark.parametrize(
    "outputs",
    [{"output": "missing/report.json"}, {"output_csv": "missing/cells.csv"},
     {"output": "same.out", "output_csv": "same.out"}],
    ids=["report-in-missing-dir", "csv-in-missing-dir", "report-is-csv"],
)
def test_experiment_bad_output_paths_exit_3_before_any_work(tmp_path, capsys, monkeypatch, outputs):
    def never(spec):
        raise AssertionError("the dataset was made before the output paths were checked")

    monkeypatch.setattr("corrsel.harness.generate_synthetic", never)
    outputs = {key: str(tmp_path / name) for key, name in outputs.items()}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_GOOD_CONFIG, **outputs}), encoding="utf-8")
    assert main(["experiment", str(path)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert repr(outputs.get("output", outputs.get("output_csv"))) in lines[0]
    assert list(tmp_path.iterdir()) == [path]


def test_experiment_writes_through_output_symlinks(tmp_path, capsys):
    # the report's link points to a file not yet made, the CSV's to an old file
    (tmp_path / "out").mkdir()
    report_target, csv_target = tmp_path / "out" / "report.json", tmp_path / "out" / "cells.csv"
    csv_target.write_text("old\n", encoding="utf-8")
    report_link, csv_link = tmp_path / "report.json", tmp_path / "cells.csv"
    report_link.symlink_to(report_target)
    csv_link.symlink_to(csv_target)
    path = tmp_path / "config.json"
    config = {**_GOOD_CONFIG, "output": str(report_link), "output_csv": str(csv_link)}
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", str(path)]) == 0
    assert report_link.is_symlink() and csv_link.is_symlink()
    assert json.loads(report_target.read_text(encoding="utf-8"))["schema_version"] == 1
    assert csv_target.read_text(encoding="utf-8").startswith("selector,sample,")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["cells.csv", "report.json"]


def test_experiment_special_file_output_exit_3_before_any_work(tmp_path, capsys, monkeypatch):
    def never(spec):
        raise AssertionError("the dataset was made before the output paths were checked")

    monkeypatch.setattr("corrsel.harness.generate_synthetic", never)
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_GOOD_CONFIG, "output": str(fifo)}), encoding="utf-8")
    assert main(["experiment", str(path)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and repr(str(fifo)) in lines[0]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_select_to_a_closed_pipe_exit_141_silently(clone_csv):
    # the pipe's read end is closed before the child starts, as when the
    # reader of ``corrsel select ... | head`` has already exited
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "corrsel.cli", "select", str(clone_csv), "--outcome", "bug",
             "--selector", "AutoSpearman", "--json"],
            env={**os.environ, "PYTHONPATH": str(src)}, stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_experiment_one_row_dataset_exit_3(tmp_path):
    # every bootstrap draw of one row takes that row, so a split never has a
    # test side; run in a child process so a reseed loop fails the test
    # instead of hanging the suite
    data = tmp_path / "one.csv"
    data.write_text("a,b,bug\n1.0,2.0,1\n", encoding="utf-8")
    cfg_path = tmp_path / "config.json"
    config = {
        "dataset": str(data), "outcome_column": "bug",
        "selectors": ["AutoSpearman"], "classifiers": ["logistic"],
    }
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "corrsel.cli", "experiment", str(cfg_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3, done.stderr
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert "2 rows" in lines[0]


# A forest experiment, run by ``main`` in a child process in its own session,
# whose cells of sample 1 first run ``{action}``. The test drives the child
# from outside with a timeout, so a hang fails the test, not the suite.
_PLANTED_CELL = """
import os, signal, sys, time
import corrsel.harness as harness
from corrsel.cli import main

caller, real = os.getpid(), harness._cell_measures

def planted(grid, cell):
    if cell[0] == 1:
        {action}
    return real(grid, cell)

harness._cell_measures = planted
sys.exit(main(["experiment", sys.argv[1]]))
"""


def _start_planted_experiment(tmp_path, action: str) -> subprocess.Popen:
    cfg_path = tmp_path / "config.json"
    config = {
        "dataset": {
            "base_metric_count": 4, "module_count": 120, "signal_coefficients": [1.5, 0, 0, 0],
            "clone_groups": [[0, 1, 0.01]], "seed": 13,
        },
        "selectors": ["AutoSpearman"], "bootstrap_count": 4, "classifiers": ["forest"],
    }
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.Popen(
        [sys.executable, "-c", _PLANTED_CELL.format(action=action), str(cfg_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )


def _finish(proc: subprocess.Popen, timeout: float) -> tuple[int, str, bool]:
    """The child's exit code and stderr, and whether its session is empty
    once it has exited. A child still running after ``timeout`` seconds
    fails the test, and its whole session is killed."""
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the experiment was still running after {timeout} s")
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return proc.returncode, err, True
    os.killpg(proc.pid, signal.SIGKILL)
    return proc.returncode, err, False


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or _usable_cpus() < 2,
    reason="needs forked workers on two CPUs",
)
def test_experiment_worker_killed_exit_4(tmp_path):
    proc = _start_planted_experiment(tmp_path, "if os.getpid() != caller: os.kill(os.getpid(), signal.SIGKILL)")
    code, err, empty = _finish(proc, 60)
    assert code == 4, err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: a worker died"), err
    assert empty, "a process of the experiment outlived it"


def test_experiment_interrupted_exit_130(tmp_path):
    started = tmp_path / "started"
    proc = _start_planted_experiment(tmp_path, f"open({str(started)!r}, 'w').close(); time.sleep(600)")
    deadline = time.monotonic() + 60
    while not started.exists() and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.05)
    if started.exists():
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C in a terminal does
    code, err, empty = _finish(proc, 30)
    assert started.exists(), err
    assert code == 130, err
    assert err.splitlines() == ["error: interrupted"]
    assert empty, "a process of the experiment outlived it"


def test_synth_negative_seed_exit_3(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["synth", "--out", str(out), "--seed", "-1"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "seed" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("sp_t", 2),
        ("sp_t", "x"),
        ("vif_t", 1),
        ("bootstrap_count", "x"),
        ("bootstrap_count", 0),
        ("bootstrap_count", 2.5),
        ("bootstrap_count", True),
        ("base_seed", [1]),
        ("bins", 1),
        ("selectors", "AutoSpearman"),
        ("selectors", [5]),
        ("classifiers", ["svm"]),
        ("classifiers", "forest"),
        ("selector_config", [1]),
        ("selector_config", {"rfe_sizes": 3}),
        ("output", 5),
        ("dataset", {"base_metric_count": 3, "module_count": 60.5, "signal_coefficients": [1, 0, 0]}),
        ("selector_config", {"rfe_resamples": 2.5}),
        ("selector_config", {"stepwise_max_steps": 1.5}),
        ("selector_config", {"ranking_rule": "top_k", "ranking_top_k": 2.5}),
        ("selector_config", {"rfe_ntree": True}),
        ("selector_config", {"rfe_sizes": ["a"]}),
        ("selector_config", {"rfe_sizes": [1.5]}),
        ("selectors", ["IG", "IG"]),
        ("selector_config", {"stepwise_max_steps": -1}),
        ("selector_config", {"stepwise_max_steps": 0}),
        ("selector_config", {"rfe_sizes": [0]}),
        ("dataset", {"base_metric_count": 3, "module_count": 60, "signal_coefficients": [math.nan, 0, 0]}),
        ("dataset", {"base_metric_count": 3, "module_count": 60, "signal_coefficients": [0, math.inf, 0]}),
        ("dataset", {"base_metric_count": 3, "module_count": 60, "signal_coefficients": [1, 0, 0], "seed": -1}),
        ("vif_t", math.inf),  # JSON Infinity, which a report could not echo
        ("selectors", []),
        ("classifiers", ["logistic", "logistic"]),
    ],
)
def test_experiment_malformed_config_exit_3_before_any_work(tmp_path, capsys, monkeypatch, field, value):
    def never(cfg):
        raise AssertionError("a malformed config reached run_experiment")

    monkeypatch.setattr("corrsel.cli.run_experiment", never)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_GOOD_CONFIG, field: value}), encoding="utf-8")
    assert main(["experiment", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["select"])  # missing required arguments
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, option, value",
    [pytest.param("select", o, v, id=f"{o}-{v}") for o, v in [
        ("--sp-t", "2"), ("--sp-t", "0"), ("--sp-t", "nan"), ("--sp-t", "x"),
        ("--vif-t", "1"), ("--vif-t", "0.5"), ("--bins", "1"), ("--bins", "x")]]
    + [pytest.param("diagnose", o, v, id=f"diagnose{o}-{v}") for o, v in [
        ("--sp-t", "nan"), ("--sp-t", "0"), ("--vif-t", "1"), ("--vif-t", "0.5")]],
)
def test_select_out_of_range_threshold_exit_2(clone_csv, capsys, command, option, value):
    selector = ["--selector", "AutoSpearman"] if command == "select" else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(clone_csv), "--outcome", "bug", *selector, option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(f"corrsel {command}: error: argument {option}")


# -- malformed CSVs: one error line, exit 2/3/4, never a traceback -----------------------

def _metrics_csv(rows=40, outcome=("0", "1"), quote_outcome=False, underscores=False, blank_lines=False):
    """Integer metrics a, b (a clone of a) and c, plus the outcome column bug."""
    rng = np.random.default_rng(7)
    a = rng.integers(10, 100, rows)
    c = rng.integers(10, 100, rows)
    y = rng.random(rows) < 0.5
    lines = ["a,b,c,bug"]
    for i in range(rows):
        cell_c = f"{str(c[i])[0]}_{str(c[i])[1:]}" if underscores else str(c[i])
        label = outcome[int(y[i])]
        if quote_outcome:
            label = f'"{label}"'
        lines.append(f"{a[i]},{a[i]},{cell_c},{label}")
        if blank_lines:
            lines.append("")
    return "\n".join(lines) + "\n"


_MALFORMED_CSVS = [
    ("nul byte", "a,b,bug\n1,5,0\n2,4\x00,1\n", "row 2, column 'b'"),
    ("invalid utf-8", b"a,b,bug\n1,5,0\n2,\xff\xfe,1\n", "not UTF-8"),
    ("duplicate header", "a,a,bug\n1,5,0\n2,4,1\n", "duplicate metric names"),
    ("duplicate outcome header", "a,bug,bug\n1,0,0\n2,1,1\n", "duplicate column name 'bug'"),
    ("empty header name", "a,,bug\n1,5,0\n2,4,1\n", "empty metric name"),
    ("header only", "a,b,bug\n", "no data rows"),
    ("empty file", "", "file is empty"),
    ("whitespace-only line", "a,b,bug\n1,5,0\n   \n2,4,1\n", "row 2: 1 cells, expected 3"),
    ("short row", "a,b,bug\n1,5,0\n2,1\n", "row 2: 2 cells, expected 3"),
    ("long row", "a,b,bug\n1,5,0,9\n", "row 1: 4 cells, expected 3"),
    ("unterminated quote", 'a,b,bug\n1,5,0\n2,"4,1\n3,6,0\n', "row 2: 2 cells, expected 3"),
    ("200k-char field", "a,b,bug\n1," + "x" * 200_000 + ",0\n", "field larger than field limit"),
    ("200k-char numeric field", "a,b,bug\n1,5" + " " * 200_000 + ",0\n", "field larger than field limit"),
    ("1e400", "a,b,bug\n1,5,0\n2,1e400,1\n", "row 2, column 'b': '1e400'"),
    ("nan", "a,b,bug\nnan,5,0\n2,4,1\n", "row 1, column 'a': 'nan'"),
    ("outcome 2", "a,b,bug\n1,5,0\n2,4,2\n", "row 2: outcome '2'"),
    ("outcome 0.0", "a,b,bug\n1,5,0.0\n2,4,1\n", "row 1: outcome '0.0'"),
    ("missing outcome column", "a,b,defects\n1,5,0\n", "column 'bug' not found"),
    ("directory", None, "error: "),
]


@pytest.mark.parametrize(
    "content, message", [pytest.param(c, m, id=case) for case, c, m in _MALFORMED_CSVS]
)
@pytest.mark.parametrize("selector", ["AutoSpearman", "IG"])
def test_select_malformed_csv_one_error_line(tmp_path, capsys, content, message, selector):
    path = tmp_path / "data.csv"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    code = main(["select", str(path), "--outcome", "bug", "--selector", selector])
    assert code in (2, 3, 4)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize(
    "variant",
    [
        {"quote_outcome": True},
        {"underscores": True},
        {"blank_lines": True},
        {"outcome": ("clean", "Defective")},
    ],
    ids=["quoted 1", "1_0", "blank lines", "Defective"],
)
def test_select_accepts_csv_oddities_with_same_selection(tmp_path, capsys, variant):
    plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
    plain.write_text(_metrics_csv(), encoding="utf-8")
    odd.write_text(_metrics_csv(**variant), encoding="utf-8")
    args = ["--outcome", "bug", "--selector", "AutoSpearman", "--json"]
    assert main(["select", str(plain), *args]) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["selected"] == ["a", "c"]
    assert main(["select", str(odd), *args]) == 0
    assert capsys.readouterr().out == expected
