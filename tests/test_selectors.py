from __future__ import annotations

import itertools

import numpy as np
import pytest

from corrsel.data import Dataset, SyntheticSpec, generate_synthetic
from corrsel.errors import ConfigError, DegenerateOutcome, UnsupportedSelector
from corrsel.selectors import (
    SelectorConfig,
    SelectorId,
    parse_selector,
    select,
    select_cfs,
    select_chisq,
    select_consistency,
    select_ig,
    select_rfe,
    select_stepwise,
)
from corrsel.selectors import _cfs_merit
from corrsel.stats import discretize_equal_frequency, inconsistency_rate, spearman, spearman_matrix


def _dataset(cols: dict[str, np.ndarray], outcome) -> Dataset:
    names = tuple(cols)
    return Dataset(names, np.column_stack([cols[n] for n in names]), np.asarray(outcome, bool))


def _signal_fixture(seed=0, n=300, noise_metrics=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.random(n) < 1 / (1 + np.exp(-3 * x))
    cols = {"signal": x}
    for i in range(noise_metrics):
        cols[f"noise{i}"] = rng.standard_normal(n)
    return _dataset(cols, y)


# -- ids and parsing -----------------------------------------------------------

def test_parse_selector_case_insensitive():
    assert parse_selector("autospearman") is SelectorId.AUTOSPEARMAN
    assert parse_selector("CHISQ") is SelectorId.CHISQ
    assert parse_selector("rfe_lr") is SelectorId.RFE_LR
    assert parse_selector("step-both") is SelectorId.STEP_BOTH


def test_parse_selector_unknown():
    with pytest.raises(UnsupportedSelector) as err:
        parse_selector("pca")
    assert "AutoSpearman" in str(err.value)


def test_selector_abbreviations_frozen():
    assert {s.value for s in SelectorId} == {
        "CFS", "IG", "Chisq", "CON", "RFE-LR", "RFE-RF",
        "Step-FWD", "Step-BWD", "Step-BOTH", "AutoSpearman",
    }


# -- ranking filters -------------------------------------------------------------

def test_ig_ranks_predictive_metric_first():
    d = _signal_fixture(1)
    subset = select_ig(d)
    assert subset[0] == "signal"


def test_ig_excludes_constant_metric():
    rng = np.random.default_rng(2)
    y = rng.random(100) < 0.5
    d = _dataset({"const": np.full(100, 3.0), "a": rng.standard_normal(100)}, y)
    assert "const" not in select_ig(d)


def test_ranking_filters_select_both_clones():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(300)
    y = rng.random(300) < 1 / (1 + np.exp(-3 * x))
    d = _dataset({"x": x, "x_dup": x.copy(), "noise": rng.standard_normal(300)}, y)
    for chooser in (select_ig, select_chisq):
        subset = chooser(d)
        assert "x" in subset and "x_dup" in subset


def test_ranking_filter_upward_closed():
    from corrsel.selectors import _discrete_scores
    from corrsel.stats import information_gain

    d = _signal_fixture(4, noise_metrics=5)
    config = SelectorConfig()
    subset = select_ig(d, config)
    scores = _discrete_scores(d, config, information_gain)
    excluded = [n for n in d.metric_names if n not in subset]
    if subset and excluded:
        assert max(scores[e] for e in excluded) <= min(scores[s] for s in subset)


def test_ranking_top_k():
    d = _signal_fixture(5, noise_metrics=6)
    config = SelectorConfig(ranking_rule="top_k", ranking_top_k=2)
    subset = select_ig(d, config)
    assert len(subset) == 2
    assert subset[0] == "signal"


def test_chisq_ranks_predictive_first():
    d = _signal_fixture(6)
    assert select_chisq(d)[0] == "signal"


# -- CFS ---------------------------------------------------------------------------

def test_cfs_single_predictive_metric_exhaustive_oracle():
    d = _signal_fixture(7, n=400, noise_metrics=4)  # p = 5 <= 6
    subset = select_cfs(d)
    # independent oracle: exhaustive merit over all subsets
    p = d.n_metrics
    outcome01 = d.outcome.astype(float)
    corr_out = np.array([abs(spearman(d.rows[:, j], outcome01)) for j in range(p)])
    corr_ff = np.abs(spearman_matrix(d).values)
    best, best_merit = (), 0.0
    for k in range(1, p + 1):
        for members in itertools.combinations(range(p), k):
            m = _cfs_merit(members, corr_out, corr_ff)
            if m > best_merit:
                best, best_merit = members, m
    assert subset == [d.metric_names[i] for i in best]
    assert subset == ["signal"]


def test_cfs_exact_clones_pick_one():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(300)
    y = rng.random(300) < 1 / (1 + np.exp(-3 * x))
    d = _dataset({"x": x, "x_dup": x.copy()}, y)
    subset = select_cfs(d)
    assert len([m for m in subset if m in ("x", "x_dup")]) == 1


def test_cfs_all_noise_small_output():
    rng = np.random.default_rng(9)
    y = rng.random(200) < 0.5
    d = _dataset({f"n{i}": rng.standard_normal(200) for i in range(5)}, y)
    assert len(select_cfs(d)) <= 3


# -- consistency-based ---------------------------------------------------------------

def test_consistency_single_determining_metric():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(120)
    # boundary at the median lines up with an equal-frequency bin edge, so
    # the metric determines the outcome even after discretization
    y = x > np.quantile(x, 0.5)
    d = _dataset(
        {"det": x, "n1": rng.standard_normal(120), "n2": rng.standard_normal(120)}, y
    )
    assert select_consistency(d) == ["det"]


def test_consistency_rate_contract():
    rng = np.random.default_rng(11)
    for seed in range(5):
        r = np.random.default_rng(seed)
        d = _dataset({f"m{i}": r.standard_normal(80) for i in range(4)}, r.random(80) < 0.5)
        subset = select_consistency(d)
        labels = np.column_stack([discretize_equal_frequency(d.column(m), 10) for m in d.metric_names])
        full_rate = inconsistency_rate(labels, d.outcome)
        if subset:
            columns = [d.metric_names.index(m) for m in subset]
            assert inconsistency_rate(labels[:, columns], d.outcome) <= full_rate + 1e-9


def test_consistency_never_adds_duplicate():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(150)
    y = x > 0.2
    d = _dataset({"det": x, "det_dup": x.copy()}, y)
    subset = select_consistency(d)
    assert len(subset) == 1


# -- RFE -------------------------------------------------------------------------------

def test_rfe_lr_keeps_informative_metric():
    d = _signal_fixture(13, n=300, noise_metrics=5)
    subset = select_rfe(d, "LR", SelectorConfig(base_seed=1))
    assert "signal" in subset
    assert len(subset) <= 4


def test_rfe_rf_keeps_informative_metric():
    d = _signal_fixture(14, n=150, noise_metrics=3)
    config = SelectorConfig(rfe_resamples=4, rfe_ntree=30, base_seed=2)
    subset = select_rfe(d, "RF", config)
    assert "signal" in subset


def test_rfe_deterministic():
    d = _signal_fixture(15, n=200, noise_metrics=3)
    a = select_rfe(d, "LR", SelectorConfig(base_seed=7))
    b = select_rfe(d, "LR", SelectorConfig(base_seed=7))
    assert a == b


def test_rfe_bad_backend():
    d = _signal_fixture(16)
    with pytest.raises(UnsupportedSelector):
        select_rfe(d, "GBM", SelectorConfig(base_seed=0))


@pytest.mark.parametrize("backend", ["LR", "RF"])
def test_rfe_refuses_sizes_out_of_range_before_any_fit(backend, monkeypatch):
    import corrsel.selectors as selectors

    fits = []
    monkeypatch.setattr(selectors, "fit_logistic", lambda *a, **k: fits.append(a))
    monkeypatch.setattr(selectors, "fit_random_forest", lambda *a, **k: fits.append(a))
    d = _signal_fixture(16, noise_metrics=3)
    with pytest.raises(ConfigError, match=r"rfe_sizes contains no size in 1\.\.p"):
        select_rfe(d, backend, SelectorConfig(rfe_sizes=(100, 5)))
    assert fits == []


# -- stepwise ----------------------------------------------------------------------------

def test_stepwise_forward_noise_empty():
    rng = np.random.default_rng(17)
    hits = 0
    for seed in range(5):
        r = np.random.default_rng(seed + 400)
        y = r.random(200) < 0.5
        d = _dataset({f"n{i}": r.standard_normal(200) for i in range(3)}, y)
        if select_stepwise(d, "FWD") == []:
            hits += 1
    assert hits >= 3  # adding pure noise rarely lowers AIC


def test_stepwise_all_directions_find_strong_metric():
    d = _signal_fixture(18, n=400, noise_metrics=2)
    for direction in ("FWD", "BWD", "BOTH"):
        subset = select_stepwise(d, direction)
        assert "signal" in subset


def test_stepwise_forward_adds_strong_metric_first():
    d = _signal_fixture(19, n=400, noise_metrics=2)
    from corrsel.classifiers import fit_logistic
    from corrsel.stats import aic

    subset = select_stepwise(d, "FWD")
    # re-run the first move by hand: the strong metric must win it
    best = min(
        d.metric_names,
        key=lambda m: aic(fit_logistic(d, [m]).log_likelihood, 2),
    )
    assert best == "signal"
    assert "signal" in subset


def test_stepwise_aic_never_increases():
    from corrsel.classifiers import fit_logistic
    from corrsel.stats import aic

    d = _signal_fixture(20, n=250, noise_metrics=3)
    for direction in ("FWD", "BWD", "BOTH"):
        subset = select_stepwise(d, direction)
        start = [] if direction in ("FWD", "BOTH") else list(d.metric_names)
        aic_start = aic(fit_logistic(d, start).log_likelihood, len(start) + 1)
        aic_end = aic(fit_logistic(d, subset).log_likelihood, len(subset) + 1)
        assert aic_end <= aic_start


def test_stepwise_aic_tie_goes_to_the_earlier_candidate():
    # an exact copy of the signal ties it on AIC at every step; the move
    # scanned first, the earlier column, must win
    d = _signal_fixture(22, n=300, noise_metrics=1)
    d = Dataset(d.metric_names + ("copy",), np.column_stack([d.rows, d.rows[:, 0]]), d.outcome)
    for direction in ("FWD", "BOTH"):
        subset = select_stepwise(d, direction)
        assert "signal" in subset and "copy" not in subset


def test_stepwise_bad_direction():
    d = _signal_fixture(21)
    with pytest.raises(UnsupportedSelector):
        select_stepwise(d, "bwd ish")


# -- dispatch ------------------------------------------------------------------------------

def test_select_autospearman_ignores_outcome():
    spec = SyntheticSpec(4, 200, (1.0, 0, 0, 0), ((0, 1, 0.01),), seed=22)
    d = generate_synthetic(spec)
    subset = select(SelectorId.AUTOSPEARMAN, d)
    flipped = Dataset(d.metric_names, d.rows, ~d.outcome)
    assert select(SelectorId.AUTOSPEARMAN, flipped) == subset


def test_every_selector_on_single_informative_metric():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(120)
    y = x > 0
    d = _dataset({"only": x}, y)
    config = SelectorConfig(rfe_resamples=3, base_seed=1)
    for sel in SelectorId:
        subset = select(sel, d, config)
        assert subset == ["only"], sel


def test_selector_outputs_are_valid_subsets():
    d = _signal_fixture(24, n=150, noise_metrics=3)
    config = SelectorConfig(rfe_resamples=3, rfe_ntree=20, base_seed=9)
    for sel in SelectorId:
        subset = select(sel, d, config)
        assert len(set(subset)) == len(subset)
        assert set(subset) <= set(d.metric_names)


@pytest.mark.parametrize("seed", range(6))
def test_subset_selectors_return_names_in_column_order(seed):
    # every selector but the two rankings returns its subset in column order;
    # rounded columns give ties, and a near-clone gives correlated pairs
    rng = np.random.default_rng(seed)
    n, p = 60, int(rng.integers(4, 7))
    x = rng.standard_normal((n, p))
    x[:, 1] = np.round(x[:, 1])
    x[:, p - 1] = x[:, 0] + 0.1 * rng.standard_normal(n)
    y = rng.random(n) < 1 / (1 + np.exp(-x @ rng.normal(0, 1.5, p)))
    d = Dataset(tuple(f"m{i}" for i in rng.permutation(p)), x, y)
    config = SelectorConfig(rfe_resamples=2, rfe_ntree=10, bins=4, base_seed=seed)
    for sel in SelectorId:
        if sel in (SelectorId.IG, SelectorId.CHISQ):
            continue
        subset = select(sel, d, config)
        assert subset == [m for m in d.metric_names if m in subset], sel


def test_selectors_deterministic():
    d = _signal_fixture(25, n=150, noise_metrics=3)
    config = SelectorConfig(rfe_resamples=3, rfe_ntree=20, base_seed=4)
    for sel in SelectorId:
        assert select(sel, d, config) == select(sel, d, config), sel


def test_supervised_selectors_reject_single_class():
    rng = np.random.default_rng(26)
    d = _dataset({"a": rng.standard_normal(50)}, [True] * 50)
    for sel in SelectorId:
        if sel is SelectorId.AUTOSPEARMAN:
            select(sel, d)  # unsupervised: fine
        else:
            with pytest.raises(DegenerateOutcome):
                select(sel, d, SelectorConfig(rfe_resamples=2, base_seed=0))


def test_selectors_disagree_on_correlated_fixture():
    spec = SyntheticSpec(
        5, 300, (1.5, 1.0, 0, 0, 0), ((0, 1, 0.05), (1, 1, 0.05)), seed=27
    )
    d = generate_synthetic(spec)
    config = SelectorConfig(rfe_resamples=3, base_seed=5)
    outputs = {
        sel: tuple(select(sel, d, config))
        for sel in (SelectorId.AUTOSPEARMAN, SelectorId.IG, SelectorId.STEP_FWD)
    }
    assert len(set(outputs.values())) > 1


@pytest.mark.parametrize(
    "field, value", [("sp_t", 2.0), ("sp_t", 0.0), ("sp_t", float("nan")), ("vif_t", 1.0), ("vif_t", 0.5), ("bins", 1)]
)
def test_selector_config_rejects_out_of_range_settings(field, value):
    # a bad threshold stops the config, not a grid cell halfway through a run
    with pytest.raises(ConfigError):
        SelectorConfig(**{field: value})
