from __future__ import annotations

import math

import numpy as np
import pytest

from corrsel.classifiers import (
    COEF_CAP,
    fit_logistic,
    fit_random_forest,
    importance,
    score_rows,
)
from corrsel.data import Dataset
from corrsel.errors import ConfigError, DegenerateOutcome, EmptyDataset, MissingColumn
from corrsel.evaluation import auc


def _dataset(cols: dict[str, np.ndarray], outcome) -> Dataset:
    names = tuple(cols)
    return Dataset(names, np.column_stack([cols[n] for n in names]), np.asarray(outcome, bool))


def _one_row(names, row) -> Dataset:
    """A one-row dataset of the given metric values, to score a model on."""
    return Dataset(tuple(names), np.asarray(row, dtype=float)[None, :], np.zeros(1, bool))


def _logistic_fixture(seed=0, n=200, beta=(1.0, -0.5)):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, len(beta)))
    eta = x @ np.asarray(beta)
    y = rng.random(n) < 1 / (1 + np.exp(-eta))
    cols = {f"m{i}": x[:, i] for i in range(len(beta))}
    return _dataset(cols, y)


# -- logistic -------------------------------------------------------------------

def test_intercept_only_closed_form():
    rng = np.random.default_rng(1)
    y = np.zeros(100, bool)
    y[:60] = True
    d = _dataset({"a": rng.standard_normal(100)}, y)
    m = fit_logistic(d, [])
    assert m.metric_names == ()
    assert m.intercept == pytest.approx(math.log(60 / 40), abs=1e-8)
    assert m.converged


def test_symmetric_data_zero_intercept():
    x = np.concatenate([-np.arange(1.0, 51.0), np.arange(1.0, 51.0)])
    y = np.array([False] * 50 + [True] * 50)
    d = _dataset({"a": x}, y)
    m = fit_logistic(d, ["a"])
    assert abs(m.intercept) < 1e-6


def test_complete_separation_capped():
    d = _dataset({"a": np.array([0.0, 1.0])}, [False, True])
    m = fit_logistic(d, ["a"])
    assert not m.converged
    assert np.max(np.abs(np.concatenate([[m.intercept], m.coefficients]))) <= COEF_CAP


def test_degenerate_outcome_raises():
    d = _dataset({"a": np.arange(4.0)}, [True] * 4)
    with pytest.raises(DegenerateOutcome):
        fit_logistic(d, ["a"])


def test_log_likelihood_nonpositive_and_trace_monotone():
    for seed in range(10):
        d = _logistic_fixture(seed)
        m = fit_logistic(d, list(d.metric_names))
        assert m.log_likelihood <= 0
        assert all(b >= a for a, b in zip(m.ll_trace, m.ll_trace[1:]))


def test_converged_gradient_small():
    d = _logistic_fixture(3)
    m = fit_logistic(d, list(d.metric_names))
    assert m.converged
    x = d.columns(m.metric_names)
    design = np.column_stack([np.ones(d.n_modules), x])
    beta = np.concatenate([[m.intercept], m.coefficients])
    mu = 1 / (1 + np.exp(-(design @ beta)))
    grad = design.T @ (d.outcome.astype(float) - mu)
    assert np.max(np.abs(grad)) < 1e-6


def test_affine_equivariance():
    d = _logistic_fixture(4)
    m = fit_logistic(d, list(d.metric_names))
    shifted = _dataset(
        {"m0": d.column("m0") + 10.0, "m1": d.column("m1")}, d.outcome
    )
    m_shift = fit_logistic(shifted, ["m0", "m1"])
    assert m_shift.coefficients == pytest.approx(m.coefficients, abs=1e-6)
    assert m_shift.intercept == pytest.approx(m.intercept - 10.0 * m.coefficients[0], abs=1e-6)

    scaled = _dataset({"m0": d.column("m0") * 4.0, "m1": d.column("m1")}, d.outcome)
    m_scale = fit_logistic(scaled, ["m0", "m1"])
    assert m_scale.coefficients[0] == pytest.approx(m.coefficients[0] / 4.0, abs=1e-6)
    row = np.array([0.3, -0.2])
    scaled_row = row * np.array([4.0, 1.0])
    assert score_rows(m_scale, _one_row(m.metric_names, scaled_row))[0] == pytest.approx(
        score_rows(m, _one_row(m.metric_names, row))[0], abs=1e-8
    )


def test_predict_logistic_basics():
    d = _logistic_fixture(5)
    zero = fit_logistic(d, [])
    assert 0 < score_rows(zero, _one_row(d.metric_names, d.rows[0]))[0] < 1


def test_predict_logistic_hand_values():
    from corrsel.classifiers import LogisticModel

    row = _one_row(["a"], [2.0])  # a zero-metric model reads no column
    m = LogisticModel((), 0.0, np.array([]), 0.0, True, 0, (0.0,))
    assert score_rows(m, row)[0] == 0.5
    m3 = LogisticModel((), math.log(3), np.array([]), 0.0, True, 0, (0.0,))
    assert score_rows(m3, row)[0] == pytest.approx(0.75, abs=1e-12)


def test_negating_model_flips_probability():
    from corrsel.classifiers import LogisticModel

    m = LogisticModel(("a",), 0.7, np.array([-1.3]), 0.0, True, 0, (0.0,))
    neg = LogisticModel(("a",), -0.7, np.array([1.3]), 0.0, True, 0, (0.0,))
    row = _one_row(["a"], [0.4])
    assert score_rows(neg, row)[0] == pytest.approx(1 - score_rows(m, row)[0], abs=1e-12)


# -- forest ----------------------------------------------------------------------

def test_forest_single_tree_separable():
    d = _dataset(
        {"a": np.array([0.0, 1.0, 10.0, 11.0]), "b": np.zeros(4)},
        [False, False, True, True],
    )
    # seed chosen so the bag contains both classes; the only zero-Gini split
    # is the large gap, which classifies every source point correctly
    m = fit_random_forest(d, ["a", "b"], ntree=1, seed=7)
    scores = score_rows(m, d)
    assert scores.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_forest_deterministic_per_seed():
    d = _logistic_fixture(6, n=80)
    m1 = fit_random_forest(d, list(d.metric_names), ntree=20, seed=42)
    m2 = fit_random_forest(d, list(d.metric_names), ntree=20, seed=42)
    rng = np.random.default_rng(0)
    probe = rng.standard_normal((20, 2))
    probe_d = _dataset({"m0": probe[:, 0], "m1": probe[:, 1]}, np.zeros(20, bool))
    assert np.array_equal(score_rows(m1, probe_d), score_rows(m2, probe_d))


def test_forest_different_seed_differs():
    d = _logistic_fixture(6, n=80)
    m1 = fit_random_forest(d, list(d.metric_names), ntree=20, seed=1)
    m2 = fit_random_forest(d, list(d.metric_names), ntree=20, seed=2)
    assert not np.array_equal(score_rows(m1, d), score_rows(m2, d))


def test_forest_prediction_lattice():
    d = _logistic_fixture(7, n=100)
    m = fit_random_forest(d, list(d.metric_names), ntree=8, seed=9)
    scores = score_rows(m, d)
    assert np.all(np.abs(scores * 8 - np.round(scores * 8)) < 1e-12)


def test_forest_degenerate_outcome():
    d = _dataset({"a": np.arange(5.0)}, [False] * 5)
    with pytest.raises(DegenerateOutcome):
        fit_random_forest(d, ["a"], ntree=3, seed=0)
    rng = np.random.default_rng(8)
    good = _dataset({"a": rng.standard_normal(10)}, [True, False] * 5)
    with pytest.raises(DegenerateOutcome):
        fit_random_forest(good, [], ntree=3, seed=0)



@pytest.mark.parametrize("ntree", [0, -1])
def test_forest_rejects_ntree_below_one(ntree):
    d = _logistic_fixture(8, n=40)
    with pytest.raises(ConfigError, match="ntree must be >= 1"):
        fit_random_forest(d, list(d.metric_names), ntree=ntree, seed=0)


def test_unknown_metric_raises_missing_column():
    d = _logistic_fixture(12, n=40)
    m = fit_logistic(d, ["m0"])
    other = _dataset({"m1": d.column("m1")}, d.outcome)
    for call in (
        lambda: d.columns(["m0", "nope"]),
        lambda: fit_logistic(d, ["nope"]),
        lambda: fit_random_forest(d, ["m1", "nope"], ntree=2, seed=0),
        lambda: score_rows(m, other),
    ):
        with pytest.raises(MissingColumn) as info:
            call()
        assert info.value.column in {"nope", "m0"}


def test_forest_refuses_a_repeated_name():
    # a repeat's share of the importance would be dropped from the name map
    d = _logistic_fixture(12, n=40)
    with pytest.raises(EmptyDataset, match="duplicate metric names"):
        fit_random_forest(d, ["m0", "m0", "m1"], ntree=5, seed=0)


def test_logistic_refuses_a_repeated_name():
    # two equal columns have no unique coefficients to report as converged
    d = _logistic_fixture(12, n=40)
    with pytest.raises(EmptyDataset, match="duplicate metric names"):
        fit_logistic(d, ["m0", "m0"])


def test_forest_batch_of_two_to_the_31_bag_rows_is_refused():
    # one cumulative sum of packed counts runs over a batch's bag rows, so
    # they must fit in one half of the packed integer; the largest batch the
    # budget allows holds max(n, _BATCH_CELLS // p) of them
    import corrsel.classifiers as classifiers

    n = 2**20
    with pytest.raises(AssertionError, match="one half of _LOW"):
        classifiers._distinct_bag_rows(np.zeros(n, np.int8), [None] * 2**11)
    assert classifiers._BATCH_CELLS < 2**31


def test_predict_forest_vote_fraction():
    d = _logistic_fixture(9, n=60)
    m = fit_random_forest(d, list(d.metric_names), ntree=4, seed=11)
    votes = score_rows(m, _one_row(d.metric_names, d.rows[0]))[0]
    assert votes in {0.0, 0.25, 0.5, 0.75, 1.0}


# -- importance -------------------------------------------------------------------

def test_logistic_importance_zero_coefficient():
    from corrsel.classifiers import LogisticModel

    d = _logistic_fixture(10)
    m = LogisticModel(("m0", "m1"), 0.1, np.array([0.0, 2.0]), -1.0, True, 1, (0.0,))
    scores = importance(m, d)
    assert scores["m0"] == 0.0
    assert scores["m1"] > 0


def test_logistic_importance_standardized():
    d = _logistic_fixture(11)
    m = fit_logistic(d, list(d.metric_names))
    scores = importance(m, d)
    for i, name in enumerate(m.metric_names):
        expected = abs(m.coefficients[i]) * d.column(name).std(ddof=1)
        assert scores[name] == pytest.approx(expected, abs=1e-12)


def test_forest_importance_normalized():
    d = _logistic_fixture(12, n=150)
    m = fit_random_forest(d, list(d.metric_names), ntree=30, seed=13)
    scores = importance(m, d)
    assert set(scores) == set(m.metric_names)
    assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_forest_importance_clone_shares():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(400)
    noise = rng.standard_normal(400)
    y = rng.random(400) < 1 / (1 + np.exp(-2 * x))
    solo = _dataset({"x": x, "noise": noise}, y)
    dup = _dataset({"x": x, "x2": x.copy(), "noise": noise}, y)
    solo_scores = importance(fit_random_forest(solo, ["x", "noise"], 100, seed=15), solo)
    dup_scores = importance(fit_random_forest(dup, ["x", "x2", "noise"], 100, seed=15), dup)
    combined = dup_scores["x"] + dup_scores["x2"]
    assert combined == pytest.approx(solo_scores["x"], rel=0.2)


def test_forest_beats_logistic_on_xor():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((300, 2))
    y = (x[:, 0] * x[:, 1]) > 0
    d = _dataset({"a": x[:, 0], "b": x[:, 1]}, y)
    lr = fit_logistic(d, ["a", "b"])
    rf = fit_random_forest(d, ["a", "b"], ntree=50, seed=17)
    auc_lr = auc(score_rows(lr, d), d.outcome)
    auc_rf = auc(score_rows(rf, d), d.outcome)
    assert auc_rf >= auc_lr
    assert auc_rf > 0.9
