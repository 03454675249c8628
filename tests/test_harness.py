from __future__ import annotations

import csv
import dataclasses
import gc
import itertools
import json
import multiprocessing
import os
import stat
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsel.autospearman import AutoSpearmanParams, auto_spearman
from corrsel.data import Dataset, SyntheticSpec, bootstrap_sample, generate_synthetic
from corrsel.errors import ConfigError, UnsupportedSelector
from corrsel.harness import (
    ExperimentConfig,
    _config_echo,
    _usable_cpus,
    consistency,
    correlation_flags,
    load_config,
    performance_deltas,
    run_experiment,
    run_selection_grid,
    write_report,
)
from corrsel.seeding import derive_seed
from corrsel.selectors import SelectorConfig, SelectorId
from test_digests import GOLDEN


@pytest.fixture
def one_worker(monkeypatch):
    """Run every task of a pool in this process, where a spy sees its calls."""
    import corrsel.harness as harness

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)


def _clone_fixture(seed=0):
    spec = SyntheticSpec(
        base_metric_count=4,
        module_count=200,
        signal_coefficients=(1.5, 0, 0, 0),
        clone_groups=((0, 1, 0.01),),
        seed=seed,
    )
    return generate_synthetic(spec)


# -- consistency formulas -----------------------------------------------------

def test_consistency_identical_subsets():
    res = consistency([["a", "b"]] * 7)
    assert res.percentage == 100.0
    assert res.intersection_size == 2
    assert res.union_size == 2


def test_consistency_disjoint_subsets():
    assert consistency([["a"], ["b"], ["c"]]).percentage == 0.0


def test_consistency_partial_overlap():
    res = consistency([["a", "b", "c"], ["b", "c", "d"]])
    assert res.percentage == 50.0
    assert res.intersection_size == 2
    assert res.union_size == 4


def test_consistency_all_empty_defined_zero():
    res = consistency([[], []])
    assert (res.percentage, res.intersection_size, res.union_size) == (0.0, 0, 0)


def test_consistency_of_no_subsets_raises():
    with pytest.raises(ConfigError, match="at least one subset"):
        consistency([])


def test_consistency_across_selectors_examples():
    assert consistency([["a", "b"]] * 9).percentage == 100.0
    assert consistency([["a"], [], ["a", "b"]]).percentage == 0.0
    res = consistency([["a", "b"], ["a", "c"], ["a"]])
    assert res.percentage == pytest.approx(100 / 3, abs=1e-9)


def test_consistency_monotone_under_append_exhaustive():
    universe = ["a", "b", "c", "d"]
    all_subsets = [
        list(c) for r in range(5) for c in itertools.combinations(universe, r)
    ]
    families = [[s] for s in all_subsets]
    families += [list(f) for f in itertools.product(all_subsets, repeat=2)]
    for family in families:
        base = consistency(family).percentage
        for extra in all_subsets:
            appended = consistency(family + [extra]).percentage
            assert appended <= base + 1e-12


def test_consistency_copies_always_100():
    for b in (1, 2, 5):
        assert consistency([["x", "y"]] * b).percentage == 100.0


# -- correlation flags -----------------------------------------------------------

def test_flags_clone_pair_detected():
    d = _clone_fixture(1)
    flags = correlation_flags(["m1", "m1_clone1"], d)
    assert flags.has_collinearity
    assert flags.has_multicollinearity  # pairwise perfect dependence inflates VIF


def test_flags_empty_and_singleton_false():
    d = _clone_fixture(2)
    for subset in ([], ["m2"]):
        flags = correlation_flags(subset, d)
        assert not flags.has_collinearity
        assert not flags.has_multicollinearity


def test_flags_strictly_above_threshold():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(100)
    d = Dataset(("a", "b"), np.column_stack([a, a.copy()]), rng.random(100) < 0.5)
    # exact duplicate: |rho| = 1 > 0.7 -> flagged; at sp_t = 1.0 strictness matters
    assert correlation_flags(["a", "b"], d, sp_t=0.7).has_collinearity
    assert not correlation_flags(["a", "b"], d, sp_t=1.0).has_collinearity


@pytest.mark.parametrize("thresholds", [{"sp_t": float("nan"), "vif_t": float("nan")}, {"sp_t": 0.0}, {"vif_t": 1.0}])
def test_flags_reject_out_of_range_thresholds(thresholds):
    # NaN thresholds would flag nothing at all
    with pytest.raises(ConfigError):
        correlation_flags(["m1", "m2"], _clone_fixture(2), **thresholds)


def test_flags_independent_columns_clean():
    rng = np.random.default_rng(4)
    d = Dataset(
        ("a", "b", "c"), rng.standard_normal((400, 3)), rng.random(400) < 0.5
    )
    flags = correlation_flags(["a", "b", "c"], d)
    assert not flags.has_collinearity
    assert not flags.has_multicollinearity


# -- selection grid ----------------------------------------------------------------

def test_grid_shape_and_determinism():
    d = _clone_fixture(5)
    sels = [SelectorId.AUTOSPEARMAN, SelectorId.IG]
    g1 = run_selection_grid(d, sels, B=3, config=SelectorConfig(base_seed=11))
    g2 = run_selection_grid(d, sels, B=3, config=SelectorConfig(base_seed=11))
    assert set(g1.subsets) == {(s, j) for s in sels for j in range(3)}
    assert g1.subsets == g2.subsets
    assert [s.seed for s in g1.splits] == [s.seed for s in g2.splits]
    assert not g1.failures


def test_grid_b_one():
    d = _clone_fixture(6)
    g = run_selection_grid(d, [SelectorId.AUTOSPEARMAN], B=1, config=SelectorConfig(base_seed=1))
    assert len(g.splits) == 1
    assert len(g.for_selector(SelectorId.AUTOSPEARMAN)) == 1


@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_grid_takes_its_seeds_from_the_config(seed):
    d = _clone_fixture(7)
    sels = [SelectorId.AUTOSPEARMAN, SelectorId.IG]
    grid = run_selection_grid(d, sels, 3, SelectorConfig(base_seed=seed))
    assert grid.base_seed == seed
    assert [s.seed for s in grid.splits] == [derive_seed(seed, j) for j in range(3)]
    assert len(grid.splits) == 3


def test_grid_rejects_bad_b():
    with pytest.raises(ConfigError):
        run_selection_grid(_clone_fixture(8), [SelectorId.IG], B=0)


@pytest.mark.usefixtures("one_worker")
def test_grid_logistic_wrappers_select_as_they_do_alone(monkeypatch):
    # the selectors of one sample share a logistic fit memo; each still picks
    # what it picks alone, and no memo outlives the grid
    import corrsel.harness as harness
    from corrsel.selectors import select

    d = generate_synthetic(SyntheticSpec(
        base_metric_count=5,
        module_count=150,
        signal_coefficients=(1.0, 0.7, 0.4, 0, 0),
        clone_groups=tuple((k, 1, 0.5) for k in range(5)),
        seed=3,
    ))
    sels = [SelectorId.STEP_FWD, SelectorId.STEP_BWD, SelectorId.STEP_BOTH, SelectorId.RFE_LR]
    memos = []

    def spy(sel, train, config, seed, memo):
        memos.append(memo)
        return select(sel, train, config, seed, memo)

    monkeypatch.setattr(harness, "select", spy)
    grid = run_selection_grid(d, sels, B=2, config=SelectorConfig(base_seed=19))
    monkeypatch.undo()
    assert not grid.failures
    for j, split in enumerate(grid.splits):
        for i, sel in enumerate(sels):
            assert select(sel, split.train, seed=derive_seed(19, j, i)) == grid.subsets[(sel, j)]
    # one memo per sample, shared by its four selectors
    assert len(memos) == 8 and memos[0] is not memos[4]
    assert all(m is memos[0] for m in memos[:4]) and all(m is memos[4] for m in memos[4:])
    for k in (0, 4):
        assert memos[k]
        assert gc.get_referrers(memos[k]) == [memos]


# -- performance deltas ----------------------------------------------------------------

def test_deltas_identity_selector_zero():
    # a selector that returns every metric must produce exactly zero deltas;
    # wire it through the grid by monkeypatching the grid contents
    d = _clone_fixture(9)
    grid = run_selection_grid(d, [SelectorId.AUTOSPEARMAN], B=3, config=SelectorConfig(base_seed=21))
    full = {k: list(d.metric_names) for k in grid.subsets}
    grid = dataclasses.replace(grid, subsets=full, failures={})
    deltas, _ = performance_deltas(grid, ("logistic", "forest"))
    assert {clf for _, clf, _ in deltas} == {"logistic", "forest"}
    assert all(x == 0.0 for cell in deltas.values() for x in cell.values())


def _shared_subset_grid(d):
    """A two-selector grid where both selectors pick the first two metrics,
    in order, on sample 0, and in opposite orders on sample 1."""
    sels = [SelectorId.AUTOSPEARMAN, SelectorId.IG]
    grid = run_selection_grid(d, sels, B=2, config=SelectorConfig(base_seed=23))
    a, b = d.metric_names[:2]
    subsets = {
        (sels[0], 0): [a, b], (sels[1], 0): [a, b],
        (sels[0], 1): [a, b], (sels[1], 1): [b, a],
    }
    return sels, dataclasses.replace(grid, subsets=subsets, failures={})


@pytest.mark.usefixtures("one_worker")
def test_deltas_shared_subset_fits_one_forest(monkeypatch):
    import corrsel.harness as harness

    d = _clone_fixture(12)
    sels, grid = _shared_subset_grid(d)
    fits = []
    real = harness.fit_random_forest

    def counted(train, subset, **kw):
        fits.append(tuple(subset))
        return real(train, subset, **kw)

    monkeypatch.setattr(harness, "fit_random_forest", counted)
    deltas, records = performance_deltas(grid, ("forest",))
    a, b = d.metric_names[:2]
    # per sample: the all-metrics baseline plus one fit per distinct ordered subset
    assert fits == [d.metric_names, (a, b), d.metric_names, (a, b), (b, a)]
    for m in ("AUC", "F", "MCC"):
        assert deltas[(sels[0], "forest", m)][0] == deltas[(sels[1], "forest", m)][0]
    assert not any("forest" in r for r in records)


@pytest.mark.usefixtures("one_worker")
def test_deltas_failed_shared_fit_records_each_selector(monkeypatch):
    import corrsel.harness as harness
    from corrsel.errors import DegenerateOutcome

    d = _clone_fixture(13)
    sels, grid = _shared_subset_grid(d)
    a, b = d.metric_names[:2]
    fits = []
    real = harness.fit_random_forest

    def failing(train, subset, **kw):
        fits.append(tuple(subset))
        if tuple(subset) == (a, b):
            raise DegenerateOutcome("planted failure")
        return real(train, subset, **kw)

    monkeypatch.setattr(harness, "fit_random_forest", failing)
    deltas, records = performance_deltas(grid, ("forest",))
    assert fits.count((a, b)) == 2  # once per sample, not once per selector
    failed = [r for r in records if "planted failure" in r]
    assert failed == [
        f"sample 0 forest {sels[0].value}: DegenerateOutcome: planted failure",
        f"sample 0 forest {sels[1].value}: DegenerateOutcome: planted failure",
        f"sample 1 forest {sels[0].value}: DegenerateOutcome: planted failure",
    ]
    assert {(sel, j) for (sel, _, _), cell in deltas.items() for j in cell} == {(sels[1], 1)}


def test_deltas_record_a_single_class_test_set_once_per_sample():
    # sample 1's four test rows are all clean
    d = generate_synthetic(SyntheticSpec(3, 12, (3.0, 0.0, 0.0), (), seed=5))
    grid = run_selection_grid(d, [SelectorId.IG], 3, SelectorConfig(base_seed=2))
    assert not grid.splits[1].test.has_both_classes()
    _, records = performance_deltas(grid, ("logistic", "forest"))
    assert records == ["sample 1: single-class test set, AUC skipped"]


def test_deltas_empty_subset_auc_half():
    from corrsel.harness import _cell_measures

    d = _clone_fixture(10)
    grid = run_selection_grid(d, [SelectorId.AUTOSPEARMAN], 1, SelectorConfig(base_seed=5))
    for clf in ("logistic", "forest"):
        assert _cell_measures(grid, (0, clf, ()))["AUC"] == 0.5


def test_deltas_reject_an_unknown_classifier_before_any_fit(monkeypatch):
    import corrsel.harness as harness

    d = _clone_fixture(10)
    grid = run_selection_grid(d, [SelectorId.AUTOSPEARMAN], 2, SelectorConfig(base_seed=5))
    fits = []
    monkeypatch.setattr(harness, "fit_logistic", lambda *args, **kw: fits.append(args))
    with pytest.raises(ConfigError, match="svm"):
        performance_deltas(grid, ("logistic", "svm"))
    assert fits == []


def test_deltas_reject_a_repeated_classifier_before_any_fit(monkeypatch):
    import corrsel.harness as harness

    grid = run_selection_grid(_clone_fixture(10), [SelectorId.AUTOSPEARMAN], 1, SelectorConfig(base_seed=5))
    fits = []
    monkeypatch.setattr(harness, "fit_logistic", lambda *args, **kw: fits.append(args))
    with pytest.raises(ConfigError, match="duplicate classifiers"):
        performance_deltas(grid, ("logistic", "logistic"))
    assert fits == []


def test_deltas_same_split_for_both_terms():
    d = _clone_fixture(11)
    grid = run_selection_grid(d, [SelectorId.AUTOSPEARMAN], 2, SelectorConfig(base_seed=2))
    deltas, records = performance_deltas(grid, ("logistic",))
    by_sample = {}
    for (_, _, m), cell in deltas.items():
        for j in cell:
            by_sample.setdefault(j, []).append(m)
    for measures in by_sample.values():
        assert sorted(measures) == ["AUC", "F", "MCC"]


# -- experiment + report ------------------------------------------------------------------

def _smoke_config(tmp_path, **overrides):
    obj = {
        "dataset": {
            "base_metric_count": 4,
            "module_count": 120,
            "signal_coefficients": [1.5, 0, 0, 0],
            "clone_groups": [[0, 1, 0.01]],
            "seed": 13,
        },
        "selectors": ["AutoSpearman", "IG"],
        "bootstrap_count": 5,
        "base_seed": 77,
        "classifiers": ["logistic"],
        "output": str(tmp_path / "report.json"),
    }
    obj.update(overrides)
    return obj


def test_run_experiment_smoke(tmp_path):
    cfg = load_config(_smoke_config(tmp_path))
    run_experiment(cfg)
    path = tmp_path / "report.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert "timestamp" in doc
    assert set(doc["consistency_across_samples"]) == {"AutoSpearman", "IG"}
    assert doc["config"]["sp_t"] == 0.7
    assert doc["config"]["vif_t"] == 5.0
    assert len(doc["consistency_across_selectors"]) == 5
    for key, row in doc["performance_deltas"].items():
        assert row["n"] == 0 or row["median"] is not None


def test_report_validates_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = {
        "type": "object",
        "required": [
            "schema_version", "config", "dataset", "split_seeds",
            "consistency_across_samples", "consistency_across_selectors",
            "correlation_flags", "performance_deltas", "failures",
            "records", "warnings", "timestamp",
        ],
        "properties": {
            "schema_version": {"const": 1},
            "split_seeds": {"type": "array", "items": {"type": "integer"}},
            "consistency_across_samples": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "required": ["percentage", "intersection_size", "union_size"],
                },
            },
            "correlation_flags": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "required": ["samples", "collinearity_pct", "multicollinearity_pct"],
                },
            },
        },
    }
    cfg = load_config(_smoke_config(tmp_path))
    run_experiment(cfg)
    doc = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(doc, schema)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def test_experiment_rerun_identical_payload(tmp_path):
    cfg = load_config(_smoke_config(tmp_path))
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert _canonical(r1) == _canonical(r2)


# the golden configs, and one that sets rfe_sizes
_ROUND_TRIP = {
    **{name: raw for name, (raw, _) in GOLDEN.items()},
    "rfe-sizes": {**GOLDEN["logistic-wrappers"][0], "selector_config": {"rfe_sizes": [1, 3, 5], "rfe_resamples": 2}},
}


def test_experiment_echo_reproduces(tmp_path):
    cases = {"smoke": _smoke_config(tmp_path)}
    cases.update((name, {**raw, "output": str(tmp_path / "report.json")}) for name, raw in _ROUND_TRIP.items())
    for name, obj in cases.items():
        cfg = load_config(obj)
        r1 = run_experiment(cfg)
        echoed = json.loads((tmp_path / "report.json").read_text())["config"]
        cfg2 = load_config(echoed)
        assert cfg2 == cfg, name
        r2 = run_experiment(cfg2)
        assert _canonical(r1) == _canonical(r2), name


def test_selector_config_null_or_left_out_loads_to_the_same_echo(tmp_path):
    obj = _smoke_config(tmp_path)
    assert "selector_config" not in obj
    echo = _config_echo(load_config(obj))
    assert _config_echo(load_config({**obj, "selector_config": None})) == echo
    assert _config_echo(load_config({**obj, "selector_config": {}})) == echo


def test_no_setting_is_declared_in_both_config_classes():
    own = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert len(own) == 8
    assert not own & {f.name for f in dataclasses.fields(SelectorConfig)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.01, 1.0),
    st.floats(1.01, 100.0),
    st.integers(2, 50),
    st.integers(0, 2**64 - 1),
)
def test_top_level_settings_load_into_selector_config_and_echo_at_the_top(sp_t, vif_t, bins, base_seed):
    top = {"sp_t": sp_t, "vif_t": vif_t, "bins": bins, "base_seed": base_seed}
    cfg = load_config({"dataset": "data.csv", "outcome_column": "bug", **top})
    assert {k: getattr(cfg.selector_config, k) for k in top} == top
    echo = _config_echo(cfg)
    assert {k: echo[k] for k in top} == top
    assert not set(top) & set(echo["selector_config"])
    assert load_config(json.loads(json.dumps(echo))) == cfg


def test_experiment_runs_the_thresholds_of_its_selector_config(tmp_path):
    # clones at noise sd 1.1 correlate with their sources at |rho| ~0.65:
    # AutoSpearman removes them at sp_t 0.5 and keeps them at the default 0.7
    spec = SyntheticSpec(3, 200, (1.0, 0.5, 0.0), ((0, 1, 1.1), (1, 1, 1.1)), seed=8)
    config = SelectorConfig(sp_t=0.5)
    cfg = ExperimentConfig(
        dataset=spec, bootstrap_count=2, classifiers=("logistic",),
        output_csv=str(tmp_path / "cells.csv"), selector_config=config,
    )
    payload = run_experiment(cfg)
    assert payload["config"]["sp_t"] == 0.5
    assert "sp_t" not in payload["config"]["selector_config"]
    d = generate_synthetic(spec)
    with open(tmp_path / "cells.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for j, row in enumerate(rows):
        train = bootstrap_sample(d, derive_seed(config.base_seed, j)).train
        assert row["metrics"].split("|") == auto_spearman(train, AutoSpearmanParams(sp_t=0.5))[0]
        assert row["metrics"].split("|") != auto_spearman(train)[0]


def test_experiment_csv_cells(tmp_path):
    cfg = load_config(
        _smoke_config(tmp_path, output_csv=str(tmp_path / "cells.csv"))
    )
    run_experiment(cfg)
    lines = (tmp_path / "cells.csv").read_text().strip().splitlines()
    assert lines[0].startswith("selector,sample,subset_size,metrics")
    assert len(lines) == 1 + 2 * 5  # header + selectors x samples
    # both outputs are written atomically, with the mode a plain open gives
    umask = os.umask(0)
    os.umask(umask)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cells.csv", "report.json"]
    for name in ("cells.csv", "report.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask


def test_experiment_rerun_keeps_the_outputs_modes(tmp_path):
    cfg = load_config(_smoke_config(tmp_path, bootstrap_count=1, output_csv=str(tmp_path / "cells.csv")))
    run_experiment(cfg)
    for name in ("cells.csv", "report.json"):
        os.chmod(tmp_path / name, 0o600)
    run_experiment(cfg)
    for name in ("cells.csv", "report.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cells.csv", "report.json"]


def test_experiment_autospearman_flags_always_clean(tmp_path):
    cfg = load_config(_smoke_config(tmp_path))
    flags = run_experiment(cfg)["correlation_flags"]["AutoSpearman"]
    assert flags["collinearity_pct"] == 0.0
    assert flags["multicollinearity_pct"] == 0.0


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config({"selectors": ["IG"]})  # no dataset
    with pytest.raises(ConfigError):
        load_config({"dataset": "x.csv"})  # no outcome column
    with pytest.raises(ConfigError):
        load_config(_smoke_config(tmp_path, bogus_field=1))
    with pytest.raises(ConfigError):
        load_config(_smoke_config(tmp_path, dataset={"module_count": 5}))
    with pytest.raises(ConfigError):
        # thresholds live at the top level, not inside selector_config
        load_config(_smoke_config(tmp_path, selector_config={"sp_t": 0.9}))


def test_load_config_checks_the_selectors_after_the_dataset_and_before_the_settings(tmp_path):
    with pytest.raises(ConfigError):
        load_config({"selectors": ["magic"]})  # no dataset: exit 3
    with pytest.raises(UnsupportedSelector):  # exit 2
        load_config(_smoke_config(tmp_path, selectors=["magic"], sp_t=2, selector_config={"bins": 3}))


def test_write_report_atomic(tmp_path):
    path = tmp_path / "out.json"
    write_report({"schema_version": 1}, str(path))
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert not list(tmp_path.glob("*.tmp"))


# -- worker processes --------------------------------------------------------------------

FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


def _run_on(workers, obj, monkeypatch):
    """The report payload and cells CSV of ``obj`` run with ``workers`` workers."""
    import corrsel.harness as harness

    monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
    payload = run_experiment(load_config(obj))
    with open(obj["output_csv"], "rb") as fh:
        return _canonical(payload), fh.read()


def _rare_positive_config(tmp_path):
    """A config whose 30-row CSV has two defective rows: sample 0 of base seed
    3 draws neither, so IG fails in the grid and both all-metrics fits fail."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 4))
    path = tmp_path / "rare.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m1,m2,m3,m4,bug\n")
        for i, row in enumerate(x):
            fh.write(",".join(f"{v:.4f}" for v in row) + f",{int(i in (3, 17))}\n")
    return {
        "dataset": str(path),
        "outcome_column": "bug",
        "selectors": ["AutoSpearman", "IG"],
        "bootstrap_count": 3,
        "base_seed": 3,
        "classifiers": ["logistic", "forest"],
        "output_csv": str(tmp_path / "cells.csv"),
    }


@FORK
@pytest.mark.parametrize("B, selectors", [
    pytest.param(1, ["AutoSpearman", "IG"], id="1"),
    pytest.param(3, ["AutoSpearman", "IG"], id="3"),
    # the logistic wrappers are one task, the other selectors one each
    pytest.param(1, ["AutoSpearman", "IG", "Step-FWD", "RFE-LR"], id="1-wrappers"),
])
def test_report_and_cells_do_not_depend_on_the_worker_count(B, selectors, tmp_path, monkeypatch):
    obj = _smoke_config(
        tmp_path, bootstrap_count=B, selectors=selectors, classifiers=["logistic", "forest"], output=None,
        output_csv=str(tmp_path / "cells.csv"),
    )
    assert _run_on(1, obj, monkeypatch) == _run_on(2, obj, monkeypatch)


@FORK
def test_failing_cells_report_the_same_from_workers(tmp_path, monkeypatch):
    obj = _rare_positive_config(tmp_path)
    serial = _run_on(1, obj, monkeypatch)
    assert _run_on(2, obj, monkeypatch) == serial
    payload = json.loads(serial[0])
    assert payload["failures"] == {
        "IG|0": "DegenerateOutcome: selector needs both outcome classes in the training sample"
    }
    assert payload["records"][:2] == [
        "sample 0 logistic all-metrics: DegenerateOutcome: logistic fit needs both outcome classes",
        "sample 0 forest all-metrics: DegenerateOutcome: random forest needs both outcome classes",
    ]


@FORK
def test_report_and_cells_do_not_depend_on_the_order_tasks_finish(tmp_path, monkeypatch):
    # sample 0's AutoSpearman task sleeps on a worker, so later samples' forests finish first
    import corrsel.harness as harness

    obj = _smoke_config(
        tmp_path, bootstrap_count=3, classifiers=["logistic", "forest"], output=None,
        output_csv=str(tmp_path / "cells.csv"),
    )
    serial = _run_on(1, obj, monkeypatch)
    caller, real_cells, real_finished = os.getpid(), harness._sample_cells, harness._Tasks.finished
    order = []

    def slow_first_sample(grid, config, j, positions):
        if (j, positions) == (0, (0,)) and os.getpid() != caller:
            time.sleep(1.0)
        return real_cells(grid, config, j, positions)

    def recorded(tasks):
        for key, result in real_finished(tasks):
            order.append(key)
            yield key, result

    monkeypatch.setattr(harness, "_sample_cells", slow_first_sample)
    monkeypatch.setattr(harness._Tasks, "finished", recorded)
    assert _run_on(2, obj, monkeypatch) == serial
    # a later sample's forest cell finished before sample 0's AutoSpearman task
    assert any(len(key) == 3 and key[0] > 0 for key in order[:order.index((0, (0,)))])


@pytest.mark.usefixtures("one_worker")
def test_a_forest_experiment_runs_a_samples_logistic_wrappers_on_one_memo(tmp_path, monkeypatch):
    import corrsel.harness as harness
    from corrsel.selectors import select

    memos = []

    def spy(sel, train, config, seed, memo):
        memos.append((sel, memo))
        return select(sel, train, config, seed, memo)

    monkeypatch.setattr(harness, "select", spy)
    wrappers = ["Step-FWD", "Step-BWD", "Step-BOTH", "RFE-LR"]
    obj = _smoke_config(
        tmp_path, bootstrap_count=2, selectors=["AutoSpearman", *wrappers], classifiers=["logistic", "forest"],
        output=None,
    )
    run_experiment(load_config(obj))
    # per sample: the four wrappers' task first, then AutoSpearman's own
    assert [sel.value for sel, _ in memos] == 2 * (wrappers + ["AutoSpearman"])
    for sample in (memos[:5], memos[5:]):
        shared = sample[0][1]
        assert shared and all(memo is shared for _, memo in sample[:4])
        assert sample[4][1] is not shared
    assert memos[0][1] is not memos[5][1]


@FORK
@pytest.mark.parametrize("classifiers, pools", [(["logistic"], 0), (["logistic", "forest"], 1)])
def test_a_one_sample_experiment_starts_workers_only_for_forests(classifiers, pools, tmp_path, monkeypatch):
    # without forests the sample's selectors are its only task, which runs here
    import concurrent.futures.process

    import corrsel.harness as harness

    started = []

    class Recorded(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recorded)
    obj = _smoke_config(
        tmp_path, bootstrap_count=1, selectors=["AutoSpearman", "IG", "Step-FWD", "RFE-LR"],
        classifiers=classifiers, output=None,
    )
    run_experiment(load_config(obj))
    assert len(started) == pools


@FORK
def test_pool_runs_tasks_on_workers_by_key(monkeypatch):
    import corrsel.harness as harness

    grid = harness._plan(_clone_fixture(14), [SelectorId.IG], 1, SelectorConfig())
    keys = [(t, "forest", ()) for t in range(6)]
    monkeypatch.setattr(harness, "_cell_measures", lambda grid, cell: (cell[0] * cell[0], os.getpid()))

    def run(workers):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
        with harness._pool(grid, None, len(keys)) as tasks:
            for key in keys:
                tasks.submit(key)
            return dict(tasks.finished())

    results = run(2)
    assert {key: r for key, (r, _) in results.items()} == {key: key[0] ** 2 for key in keys}
    assert os.getpid() not in {pid for _, pid in results.values()}
    assert multiprocessing.active_children() == []
    assert {pid for _, pid in run(1).values()} == {os.getpid()}


@FORK
def test_no_worker_outlives_its_experiment(tmp_path, monkeypatch):
    import corrsel.harness as harness

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    run_experiment(load_config(_smoke_config(tmp_path, bootstrap_count=3, output=None)))
    assert multiprocessing.active_children() == []

    def broken(*args):
        raise RuntimeError("planted in a worker")

    monkeypatch.setattr(harness, "_cell_measures", broken)
    with pytest.raises(RuntimeError, match="planted in a worker"):
        run_experiment(load_config(_smoke_config(tmp_path, bootstrap_count=3, output=None)))
    assert multiprocessing.active_children() == []


@FORK
@pytest.mark.skipif(_usable_cpus() < 2, reason="needs 2 usable CPUs")
def test_a_failing_pool_leaves_the_callers_own_children_running(monkeypatch):
    import corrsel.harness as harness

    grid = harness._plan(_clone_fixture(14), [SelectorId.IG], 1, SelectorConfig())
    own = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    own.start()
    try:
        def failing(grid, cell):
            raise RuntimeError("planted in a task")

        monkeypatch.setattr(harness, "_cell_measures", failing)
        with pytest.raises(RuntimeError, match="planted in a task"):
            with harness._pool(grid, None, 4) as tasks:
                for t in range(4):
                    tasks.submit((t, "forest", ()))
                list(tasks.finished())
        own.join(0.5)
        assert own.exitcode is None
        assert multiprocessing.active_children() == [own]
    finally:
        own.terminate()
        own.join(10)
    assert not own.is_alive()


def _experiment_in_daemon(obj):
    run_experiment(load_config(obj))


@FORK
def test_experiment_in_a_daemonic_process_runs_serially(tmp_path, monkeypatch):
    # a daemonic process may not start children, so its tasks run in it
    import corrsel.harness as harness

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    obj = _smoke_config(tmp_path, bootstrap_count=3, classifiers=["logistic", "forest"])
    proc = multiprocessing.get_context("fork").Process(target=_experiment_in_daemon, args=(obj,), daemon=True)
    proc.start()
    proc.join(120)
    assert proc.exitcode == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    del doc["timestamp"]
    assert doc == run_experiment(load_config(obj))
