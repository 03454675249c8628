from __future__ import annotations

import json
import math

import numpy as np
import pytest

from corrsel.autospearman import (
    AutoSpearmanParams,
    auto_spearman,
    spearman_phase,
    vif_phase,
)
from corrsel.cli import main
from corrsel.data import Dataset, SyntheticSpec, generate_synthetic, write_csv
from corrsel.errors import ConfigError, EmptyDataset
from corrsel.stats import spearman_matrix, vif_scores


def _dataset(cols: dict[str, np.ndarray], outcome=None) -> Dataset:
    names = tuple(cols)
    rows = np.column_stack([cols[n] for n in names])
    if outcome is None:
        outcome = np.zeros(rows.shape[0], bool)
        outcome[::2] = True
    return Dataset(names, rows, outcome)


def _random_synthetic(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    p = int(rng.integers(5, 31))
    n = int(rng.integers(100, 1001))
    n_groups = int(rng.integers(0, 6))
    groups = []
    for _ in range(n_groups):
        groups.append(
            (int(rng.integers(0, p)), int(rng.integers(1, 3)), float(rng.uniform(0, 0.5)))
        )
    coef = rng.normal(0, 0.8, p)
    spec = SyntheticSpec(p, n, tuple(coef), tuple(groups), seed=seed)
    return generate_synthetic(spec)


def _assert_contract(d: Dataset, subset, sp_t=0.7, vif_t=5.0):
    assert subset, "contract check needs a nonempty output"
    corr = spearman_matrix(d.project(subset)).values
    off = np.abs(corr[np.triu_indices(len(subset), k=1)]) if len(subset) > 1 else np.array([])
    assert np.all(off < sp_t)
    for v in vif_scores(d, subset).scores.values():
        assert math.isfinite(v) and v < vif_t


# -- spearman phase ---------------------------------------------------------------

def test_spearman_phase_duplicate_keeps_earlier():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(60)
    c = rng.standard_normal(60)
    d = _dataset({"a": a, "b": a.copy(), "c": c})
    subset, trace = spearman_phase(d, 0.7)
    assert subset == ["a", "c"]
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert (step.removed, step.kept, step.phase) == ("b", "a", "spearman")
    assert step.statistic == 1.0


def test_spearman_phase_no_qualifying_pairs():
    rng = np.random.default_rng(1)
    d = _dataset({f"m{i}": rng.standard_normal(300) for i in range(4)})
    subset, trace = spearman_phase(d, 0.7)
    assert subset == list(d.metric_names)
    assert trace.steps == ()


def test_spearman_phase_threshold_boundary_inclusive():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(50)
    d = _dataset({"a": a, "b": a.copy(), "c": rng.standard_normal(50)})
    subset, trace = spearman_phase(d, 1.0)
    # |rho| = 1.0 >= sp_t = 1.0, so exactly the duplicate goes
    assert subset == ["a", "c"]
    assert [s.removed for s in trace.steps] == ["b"]


def test_spearman_phase_two_metric_tie():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    d = _dataset({"x": a, "y": a * 2})
    subset, trace = spearman_phase(d, 0.7)
    # no third metric: both means are 0, earlier column index is kept
    assert subset == ["x"]
    assert trace.steps[0].removed == "y"


def test_spearman_phase_removes_constant_columns_first():
    rng = np.random.default_rng(3)
    d = _dataset({"const": np.full(40, 7.0), "a": rng.standard_normal(40)})
    subset, trace = spearman_phase(d, 0.7)
    assert subset == ["a"]
    assert trace.steps[0].removed == "const"
    assert trace.steps[0].statistic == 0.0
    assert trace.steps[0].phase == "spearman"


def test_spearman_phase_rank_transform_invariant():
    rng = np.random.default_rng(4)
    base = {f"m{i}": rng.standard_normal(120) for i in range(4)}
    base["m0_dup"] = base["m0"] + rng.normal(0, 0.05, 120)
    d = _dataset(base)
    subset, trace = spearman_phase(d, 0.7)
    warped = dict(base)
    warped["m1"] = np.exp(base["m1"])
    warped["m2"] = base["m2"] ** 3
    d2 = _dataset(warped)
    subset2, trace2 = spearman_phase(d2, 0.7)
    assert subset == subset2
    assert [s.removed for s in trace.steps] == [s.removed for s in trace2.steps]


# -- VIF phase -----------------------------------------------------------------------

def test_vif_phase_exact_sum_fixture():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(100)
    b = rng.standard_normal(100)
    d = _dataset({"a": a, "b": b, "c": a + b})
    subset, trace = vif_phase(d, ["a", "b", "c"], 5.0)
    # all three unbounded on the first pass; the latest column is removed
    assert subset == ["a", "b"]
    assert [s.removed for s in trace.steps] == ["c"]
    assert math.isinf(trace.steps[0].statistic)


def test_vif_phase_independent_columns_untouched():
    rng = np.random.default_rng(7)
    d = _dataset({f"m{i}": rng.standard_normal(200) for i in range(4)})
    subset, trace = vif_phase(d, list(d.metric_names), 5.0)
    assert subset == list(d.metric_names)
    assert trace.steps == ()


def test_vif_phase_singleton():
    d = _dataset({"a": np.arange(12.0)})
    subset, trace = vif_phase(d, ["a"], 5.0)
    assert subset == ["a"]
    assert trace.steps == ()


def test_vif_phase_one_removal_per_pass():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(150)
    b = rng.standard_normal(150)
    d = _dataset({"a": a, "b": b, "s1": a + b, "s2": a - b})
    subset, trace = vif_phase(d, ["a", "b", "s1", "s2"], 5.0)
    assert len(subset) == 2
    _assert_contract(d, subset, sp_t=1.1)


def test_vif_phase_refuses_a_repeated_name():
    # a repeat would be kept twice, or kept once after its trace removed it
    rng = np.random.default_rng(9)
    d = _dataset({"a": rng.standard_normal(40), "b": rng.standard_normal(40)})
    with pytest.raises(EmptyDataset, match="duplicate metric names"):
        vif_phase(d, ["a", "a", "b"], 5.0)


# -- full algorithm ---------------------------------------------------------------------

def test_params_defaults():
    p = AutoSpearmanParams()
    assert p.sp_t == 0.7
    assert p.vif_t == 5.0
    with pytest.raises(ConfigError):
        AutoSpearmanParams(sp_t=0.0)
    with pytest.raises(ConfigError):
        AutoSpearmanParams(vif_t=1.0)


@pytest.mark.parametrize("thresholds", [{"sp_t": 2.0}, {"sp_t": float("nan")}, {"vif_t": float("nan")}])
def test_params_out_of_range_raise_config_error(thresholds):
    with pytest.raises(ConfigError):
        AutoSpearmanParams(**thresholds)


@pytest.mark.parametrize(
    "phase, threshold",
    [("spearman", 0.0), ("spearman", 1.5), ("spearman", float("nan")), ("vif", 0.5), ("vif", float("nan"))],
)
def test_phases_reject_out_of_range_thresholds(phase, threshold):
    # an unchecked threshold would keep one metric (sp_t = 0) or none (vif_t < 1)
    rng = np.random.default_rng(7)
    d = _dataset({f"m{i}": rng.standard_normal(50) for i in range(3)})
    with pytest.raises(ConfigError, match="must be"):
        if phase == "spearman":
            spearman_phase(d, sp_t=threshold)
        else:
            vif_phase(d, list(d.metric_names), vif_t=threshold)


def test_auto_spearman_fixed_point():
    rng = np.random.default_rng(9)
    d = _dataset({f"m{i}": rng.standard_normal(400) for i in range(5)})
    subset, trace = auto_spearman(d)
    assert subset == list(d.metric_names)
    assert trace.steps == ()


def test_auto_spearman_planted_clone_groups():
    spec = SyntheticSpec(
        base_metric_count=7,
        module_count=400,
        signal_coefficients=(1.0, 0.5, -0.5, 0, 0, 0, 0),
        clone_groups=((0, 1, 0.01), (1, 1, 0.01), (2, 1, 0.01)),
        seed=10,
    )
    d = generate_synthetic(spec)
    subset, trace = auto_spearman(d)
    assert len(subset) == 7
    for src in ("m1", "m2", "m3"):
        members = {src, f"{src}_clone1"}
        assert len(members & set(subset)) == 1
    _assert_contract(d, subset)


def test_auto_spearman_partition_and_trace():
    d = _random_synthetic(11)
    subset, trace = auto_spearman(d)
    removed = [s.removed for s in trace.steps]
    assert len(set(removed)) == len(removed)
    assert set(removed) | set(subset) == set(d.metric_names)
    assert set(removed) & set(subset) == set()


def test_auto_spearman_deterministic():
    d = _random_synthetic(12)
    s1, t1 = auto_spearman(d)
    s2, t2 = auto_spearman(d)
    assert s1 == s2
    assert t1.steps == t2.steps


def test_auto_spearman_idempotent():
    for seed in (13, 14, 15):
        d = _random_synthetic(seed)
        subset, _ = auto_spearman(d)
        again, trace = auto_spearman(d.project(subset))
        assert again == subset
        assert trace.steps == ()


def test_auto_spearman_ignores_outcome():
    d = _random_synthetic(16)
    subset, _ = auto_spearman(d)
    flipped = Dataset(d.metric_names, d.rows, ~d.outcome)
    permuted = Dataset(d.metric_names, d.rows, np.roll(d.outcome, 7))
    assert auto_spearman(flipped)[0] == subset
    assert auto_spearman(permuted)[0] == subset


def test_auto_spearman_contract_on_random_datasets():
    for seed in range(25):
        d = _random_synthetic(100 + seed)
        subset, _ = auto_spearman(d)
        _assert_contract(d, subset)


def test_phase_one_threshold_monotone():
    for seed in (17, 18):
        d = _random_synthetic(seed)
        sizes = []
        for sp_t in (0.3, 0.5, 0.7, 0.9, 1.0):
            subset, _ = spearman_phase(d, sp_t)
            sizes.append(len(subset))
        assert sizes == sorted(sizes)


def test_trace_json_serializable(tmp_path, capsys):
    rng = np.random.default_rng(19)
    a = rng.standard_normal(80)
    b = rng.standard_normal(80)
    d = _dataset({"a": a, "b": b, "c": a + b, "d": a.copy()})
    write_csv(d, tmp_path / "d.csv", "bug")
    assert main(["select", str(tmp_path / "d.csv"), "--outcome", "bug", "--selector", "AutoSpearman", "--json"]) == 0
    steps = json.loads(capsys.readouterr().out)["trace"]
    assert all(set(s) == {"phase", "removed", "kept", "statistic"} for s in steps)
    assert any(s["statistic"] == "inf" or s["statistic"] == 1.0 for s in steps)
