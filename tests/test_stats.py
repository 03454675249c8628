from __future__ import annotations

import math

import numpy as np
import pytest

from corrsel.data import Dataset
from corrsel.errors import DataError, DimensionMismatch, EmptyDataset, LengthMismatch, TooFewValues
from corrsel.stats import (
    UNBOUNDED,
    aic,
    chi_squared,
    discretize_equal_frequency,
    information_gain,
    inconsistency_rate,
    ols_r_squared,
    rank_with_ties,
    spearman,
    spearman_matrix,
    spearman_of,
    vif_scores,
)


def _dataset(cols: dict[str, np.ndarray], outcome=None) -> Dataset:
    names = tuple(cols)
    rows = np.column_stack([cols[n] for n in names])
    if outcome is None:
        outcome = np.zeros(rows.shape[0], bool)
        outcome[::2] = True
    return Dataset(names, rows, outcome)


# -- ranks --------------------------------------------------------------------

def test_rank_strictly_increasing():
    assert rank_with_ties([10, 20, 30]).tolist() == [1, 2, 3]


def test_rank_tie_pair():
    assert rank_with_ties([5, 5, 9]).tolist() == [1.5, 1.5, 3]


def test_rank_all_tied():
    assert rank_with_ties([7, 7, 7]).tolist() == [2, 2, 2]


def test_rank_empty():
    ranks = rank_with_ties([])
    assert ranks.shape == (0,) and ranks.dtype == np.float64


def test_rank_sum_exact():
    rng = np.random.default_rng(0)
    for n in (1, 2, 17, 100):
        v = rng.integers(0, 5, size=n).astype(float)
        assert rank_with_ties(v).sum() == n * (n + 1) / 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rank_refuses_non_finite_values(bad):
    # a NaN used to rank above every number: [nan, 1, nan, 0] ranked [3, 2, 4, 1]
    with pytest.raises(DataError, match="values has a non-finite value"):
        rank_with_ties([bad, 1.0, bad, 0.0])


# -- spearman -----------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spearman_refuses_non_finite_values_naming_the_argument(bad):
    # spearman([1, nan, 3, 4], [1, 2, 3, 4]) used to return 0.4
    with pytest.raises(DataError, match="^x has a non-finite value$"):
        spearman([1, bad, 3, 4], [1, 2, 3, 4])
    with pytest.raises(DataError, match="^y has a non-finite value$"):
        spearman([1, 2, 3, 4], [1, 2, bad, 4])


def test_spearman_identity():
    assert spearman([1, 4, 9], [1, 4, 9]) == 1.0


def test_spearman_reversal():
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0


def test_spearman_textbook():
    # tie-free: 1 - 6*sum(d^2)/(n(n^2-1)) with sum(d^2) = 4
    assert spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8, abs=1e-12)


def test_spearman_constant_input_is_zero():
    assert spearman([1, 1, 1], [1, 2, 3]) == 0.0
    assert spearman([1, 2, 3], [5, 5, 5]) == 0.0


def test_spearman_length_mismatch():
    with pytest.raises(LengthMismatch):
        spearman([1, 2], [1, 2, 3])


def test_spearman_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(30)
        y = rng.integers(0, 4, 30).astype(float)
        assert spearman(x, y) == spearman(y, x)


def test_spearman_monotone_transform_invariant():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    base = spearman(x, y)
    for f in (np.exp, lambda v: v**3, lambda v: 2.5 * v + 7):
        assert spearman(f(x), y) == pytest.approx(base, abs=1e-12)


def test_spearman_tie_free_shortcut_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        d = rank_with_ties(x) - rank_with_ties(y)
        shortcut = 1 - 6 * float(d @ d) / (n * (n * n - 1))
        assert spearman(x, y) == pytest.approx(shortcut, abs=1e-12)


def test_spearman_matrix_duplicate_column_exact_one():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(40)
    m = spearman_matrix(_dataset({"a": a, "b": a.copy(), "c": rng.standard_normal(40)}))
    assert m.values[0, 1] == 1.0
    assert np.array_equal(m.values, m.values.T)
    assert np.all(np.diag(m.values) == 1.0)


def test_spearman_matrix_single_metric():
    m = spearman_matrix(_dataset({"a": np.array([1.0, 2.0, 3.0])}))
    assert m.values.shape == (1, 1)
    assert m.values[0, 0] == 1.0


def test_spearman_matrix_independent_columns_weak():
    rng = np.random.default_rng(5)
    m = spearman_matrix(_dataset({"a": rng.standard_normal(500), "b": rng.standard_normal(500)}))
    assert abs(m.values[0, 1]) < 0.3


def test_spearman_matrix_reversed_column_exact_minus_one():
    a = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    m = spearman_matrix(_dataset({"a": a, "b": -a}, outcome=np.array([1, 0, 1, 0, 1], bool)))
    assert m.values[0, 1] == -1.0


def test_spearman_matrix_agrees_with_pairwise():
    rng = np.random.default_rng(6)
    cols = {f"m{i}": rng.standard_normal(80) for i in range(5)}
    d = _dataset(cols)
    m = spearman_matrix(d)
    for i, a in enumerate(d.metric_names):
        for j, b in enumerate(d.metric_names):
            assert m.values[i, j] == pytest.approx(spearman(d.column(a), d.column(b)), abs=1e-12)


# -- OLS / VIF ----------------------------------------------------------------

def test_r_squared_perfect_fit():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 2))
    y = 3 * x[:, 0] - 2 * x[:, 1] + 0.5
    assert ols_r_squared(y, x) >= 1 - 1e-10


def test_r_squared_constant_predictor():
    rng = np.random.default_rng(8)
    y = rng.standard_normal(30)
    assert ols_r_squared(y, np.ones((30, 1))) == 0.0


def test_r_squared_constant_target_is_zero():
    # 0.1 less the mean of 91 copies of 0.1 is not exactly 0: a test on the
    # centred sum of squares let that rounding through as R2 = 0.85
    x = np.random.default_rng(85).standard_normal((91, 3))[:, 1:]
    assert ols_r_squared(np.full(91, 0.1), x) == 0.0


def test_r_squared_normal_equations_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((200, 3))
    y = 2 * x[:, 0] + rng.standard_normal(200) * 0.1
    design = np.column_stack([np.ones(200), x])
    beta = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ beta
    oracle = 1 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    assert ols_r_squared(y, x) == pytest.approx(oracle, abs=1e-8)


def test_r_squared_affine_reparameterization_invariant():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((100, 3))
    y = x @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(100)
    a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    shifted = x @ a + rng.standard_normal(3)
    assert ols_r_squared(y, shifted) == pytest.approx(ols_r_squared(y, x), abs=1e-8)


def test_vif_singleton_is_one():
    d = _dataset({"a": np.arange(10.0)})
    assert vif_scores(d, ["a"]).scores == {"a": 1.0}


def test_vif_perfect_collinearity_unbounded():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    d = _dataset({"a": a, "b": b, "c": a + b})
    report = vif_scores(d, ["a", "b", "c"])
    assert report.scores["c"] == UNBOUNDED


def test_vif_noisy_sum_matches_oracle():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(500)
    b = rng.standard_normal(500)
    c = a + b + rng.standard_normal(500)
    d = _dataset({"a": a, "b": b, "c": c})
    report = vif_scores(d, ["a", "b", "c"])
    design = np.column_stack([np.ones(500), a, b])
    beta = np.linalg.solve(design.T @ design, design.T @ c)
    resid = c - design @ beta
    r2 = 1 - float(resid @ resid) / float(((c - c.mean()) ** 2).sum())
    oracle = 1 / (1 - r2)
    assert math.isfinite(report.scores["c"])
    assert report.scores["c"] == pytest.approx(oracle, rel=1e-6)


def test_vif_orthogonalized_design_near_one():
    rng = np.random.default_rng(13)
    raw = rng.standard_normal((400, 4))
    q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    d = _dataset({f"m{i}": q[:, i] for i in range(4)})
    report = vif_scores(d, list(d.metric_names))
    for v in report.scores.values():
        assert v == pytest.approx(1.0, abs=1e-6)


def test_vif_scores_all_at_least_one():
    rng = np.random.default_rng(14)
    d = _dataset({f"m{i}": rng.standard_normal(60) for i in range(4)})
    assert all(v >= 1 - 1e-9 for v in vif_scores(d, list(d.metric_names)).scores.values())


def test_vif_scores_refuses_a_repeated_name():
    # one score per distinct name would leave a name without its own VIF
    rng = np.random.default_rng(15)
    d = _dataset({"a": rng.standard_normal(30), "b": rng.standard_normal(30)})
    with pytest.raises(EmptyDataset, match="duplicate metric names"):
        vif_scores(d, ["a", "a", "b"])


# -- discretization -----------------------------------------------------------

def test_discretize_median_split():
    labels = discretize_equal_frequency(np.arange(1.0, 11.0), 2)
    assert labels.dtype == np.int64
    assert labels.tolist() == [0] * 5 + [1] * 5


def test_discretize_constant_vector():
    labels = discretize_equal_frequency(np.full(8, 3.25), 2)
    assert labels.tolist() == [0] * 8


def test_discretize_binary_values_identity():
    v = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    labels = discretize_equal_frequency(v, 2)
    assert labels.tolist() == v.astype(int).tolist()


def test_discretize_labels_in_range_and_total():
    rng = np.random.default_rng(15)
    v = rng.standard_normal(100)
    labels = discretize_equal_frequency(v, 10)
    assert labels.min() >= 0
    assert labels.max() < 10
    # equal frequency within one of n/bins for continuous data
    counts = np.bincount(labels)
    assert counts.min() >= 8 and counts.max() <= 12


def test_discretize_too_few_values():
    with pytest.raises(TooFewValues):
        discretize_equal_frequency(np.array([1.0, 2.0]), 3)


# -- information gain / chi-squared -------------------------------------------

def test_information_gain_perfectly_predictive():
    y = np.array([True, True, False, False])
    labels = np.array([1, 1, 0, 0])
    assert information_gain(labels, y) == pytest.approx(1.0, abs=1e-12)  # H(y) = 1 bit


def test_information_gain_single_bin_zero():
    y = np.array([True, False, True, False])
    labels = np.zeros(4, dtype=np.int64)
    assert information_gain(labels, y) == 0.0


def test_information_gain_hand_computed():
    y = np.array([True, True, True, False])
    labels = np.array([0, 0, 1, 1])
    # H(y) = 0.8113, conditional H = 0.5
    assert information_gain(labels, y) == pytest.approx(0.3113, abs=1e-4)


def test_information_gain_bounded_by_outcome_entropy():
    rng = np.random.default_rng(16)
    for _ in range(30):
        y = rng.random(40) < 0.3
        labels = rng.integers(0, 5, 40)
        ig = information_gain(labels, y)
        pos = int(y.sum())
        h = 0.0
        for c in (pos, 40 - pos):
            if c:
                h -= (c / 40) * math.log2(c / 40)
        assert 0.0 <= ig <= h + 1e-12


def test_chi_squared_exact_independence():
    y = np.array([True, False] * 10)
    labels = np.array([0, 0, 1, 1] * 5)
    assert chi_squared(labels, y) == pytest.approx(0.0, abs=1e-12)


def test_chi_squared_perfect_association_equals_n():
    y = np.array([True] * 20 + [False] * 20)
    labels = np.array([1] * 20 + [0] * 20)
    assert chi_squared(labels, y) == pytest.approx(40.0, abs=1e-12)


def test_chi_squared_hand_table():
    # observed [[10,0],[0,10]] against uniform expectation 5 -> 4 * 25/5 = 20
    y = np.array([True] * 10 + [False] * 10)
    labels = np.array([0] * 10 + [1] * 10)
    assert chi_squared(labels, y) == pytest.approx(20.0, abs=1e-12)


# -- inconsistency rate ---------------------------------------------------------

def _labels(d: Dataset, names, bins: int) -> np.ndarray:
    """The metrics' labels as CON bins them: at most one bin per row, never fewer than 2."""
    eff_bins = max(2, min(bins, d.n_modules))
    return np.column_stack([discretize_equal_frequency(d.column(name), eff_bins) for name in names])


def test_inconsistency_pure_patterns_zero():
    d = _dataset(
        {"a": np.array([1.0, 1.0, 5.0, 5.0])},
        outcome=np.array([True, True, False, False]),
    )
    assert inconsistency_rate(_labels(d, ["a"], 2), d.outcome) == 0.0


def test_inconsistency_single_pattern_half():
    d = _dataset(
        {"a": np.full(6, 2.0)},
        outcome=np.array([True, True, True, False, False, False]),
    )
    assert inconsistency_rate(_labels(d, ["a"], 2), d.outcome) == 0.5


def test_inconsistency_unique_rows_zero():
    rng = np.random.default_rng(17)
    d = _dataset({f"m{i}": rng.standard_normal(30) for i in range(3)}, outcome=rng.random(30) < 0.5)
    assert inconsistency_rate(_labels(d, d.metric_names, 30), d.outcome) == 0.0


def test_inconsistency_monotone_under_refinement():
    rng = np.random.default_rng(18)
    d = _dataset({f"m{i}": rng.standard_normal(60) for i in range(4)}, outcome=rng.random(60) < 0.5)
    names = list(d.metric_names)
    prev = inconsistency_rate(_labels(d, names[:1], 3), d.outcome)
    for k in range(2, 5):
        cur = inconsistency_rate(_labels(d, names[:k], 3), d.outcome)
        assert cur <= prev + 1e-12
        prev = cur


def test_inconsistency_no_columns_is_the_minority_fraction():
    outcome = np.array([True, False, False, True, False])
    assert inconsistency_rate(np.zeros((5, 0), np.int64), outcome) == 2 / 5
    assert inconsistency_rate(np.zeros((1, 0), np.int64), outcome[:1]) == 0.0


def test_inconsistency_rejects_bad_label_shapes():
    outcome = np.array([True, False, True])
    with pytest.raises(DimensionMismatch):
        inconsistency_rate(np.array([0, 1, 0]), outcome)
    with pytest.raises(TooFewValues):
        inconsistency_rate(np.zeros((0, 2), np.int64), outcome[:0])
    with pytest.raises(LengthMismatch):
        inconsistency_rate(np.zeros((4, 1), np.int64), outcome)


# -- AIC -----------------------------------------------------------------------

def test_aic_direct():
    assert aic(0.0, 1) == 2.0
    assert aic(-10.0, 3) == 26.0


def test_aic_useless_parameter_costs_two():
    assert aic(-5.0, 4) - aic(-5.0, 3) == 2.0


def test_spearman_two_constants_is_zero():
    assert spearman([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == 0.0
    assert spearman([4.0], [4.0]) == 0.0


def test_spearman_of_empty_inputs_is_zero():
    # no "Mean of empty slice" warning, which the suite turns into an error
    assert spearman([], []) == 0.0
    assert np.array_equal(spearman_of(np.empty((0, 2))), np.eye(2))
