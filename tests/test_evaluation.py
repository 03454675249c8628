from __future__ import annotations

import math

import numpy as np
import pytest

from corrsel.errors import SingleClass
from corrsel.evaluation import ConfusionMatrix, auc, confusion_at, f_measure, mcc


def brute_force_auc(scores, labels) -> float:
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, bool)
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# -- AUC -------------------------------------------------------------------------

def test_auc_perfect_ranking():
    assert auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0


def test_auc_all_ties():
    assert auc([0.5] * 6, [True, False, True, False, True, False]) == 0.5


def test_auc_pair_enumeration_example():
    assert auc([0.9, 0.8, 0.3], [True, False, True]) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(SingleClass):
        auc([0.1, 0.2], [True, True])


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(0)
    s = rng.random(50)
    y = rng.random(50) < 0.4
    if y.all() or not y.any():
        y[0] = ~y[0]
    base = auc(s, y)
    assert auc(np.exp(4 * s), y) == base
    assert auc(s**3 + 10, y) == base


def test_auc_label_negation():
    rng = np.random.default_rng(1)
    s = rng.integers(0, 5, 40) / 4.0  # deliberate ties
    y = rng.random(40) < 0.5
    if y.all() or not y.any():
        y[0] = ~y[0]
    assert auc(s, y) == 1.0 - auc(s, ~y)


def test_auc_matches_brute_force_exactly():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(5, 60))
        s = rng.integers(0, 8, n) / 7.0  # ties likely
        y = rng.random(n) < 0.5
        if y.all() or not y.any():
            y[0] = ~y[0]
        assert auc(s, y) == brute_force_auc(s, y)


# -- confusion matrix --------------------------------------------------------------

def test_confusion_basic():
    cm = confusion_at([0.6, 0.4], [True, False])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)


def test_confusion_strictly_above_threshold():
    cm = confusion_at([0.5, 0.5], [True, False])
    # exactly 0.5 is predicted clean
    assert cm.tp == 0 and cm.fn == 1 and cm.tn == 1 and cm.fp == 0


def test_confusion_empty_input():
    cm = confusion_at([], [])
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, 0, 0)


def test_confusion_total():
    rng = np.random.default_rng(3)
    s = rng.random(30)
    y = rng.random(30) < 0.5
    cm = confusion_at(s, y)
    assert cm.tp + cm.fp + cm.tn + cm.fn == 30


# -- F-measure -----------------------------------------------------------------------

def test_f_measure_hand_value():
    assert f_measure(ConfusionMatrix(tp=3, fp=1, tn=0, fn=1)) == pytest.approx(0.75, abs=1e-12)


def test_f_measure_zero_tp():
    assert f_measure(ConfusionMatrix(tp=0, fp=3, tn=2, fn=4)) == 0.0


def test_f_measure_perfect():
    assert f_measure(ConfusionMatrix(tp=7, fp=0, tn=5, fn=0)) == 1.0


# -- MCC -------------------------------------------------------------------------------

def test_mcc_perfect_and_inverted():
    assert mcc(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0)) == 1.0
    assert mcc(ConfusionMatrix(tp=0, fp=5, tn=0, fn=5)) == -1.0


def test_mcc_hand_value():
    cm = ConfusionMatrix(tp=4, fp=1, tn=3, fn=2)
    assert mcc(cm) == pytest.approx(10 / math.sqrt(600), abs=1e-12)


def test_mcc_zero_marginal():
    assert mcc(ConfusionMatrix(tp=0, fp=0, tn=5, fn=5)) == 0.0


def test_mcc_swap_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, 4))
        a = mcc(ConfusionMatrix(tp, fp, tn, fn))
        b = mcc(ConfusionMatrix(tn, fn, tp, fp))  # tp<->tn, fp<->fn
        assert a == pytest.approx(b, abs=1e-12)


def test_mcc_formula_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 1000, 4))
        cm = ConfusionMatrix(tp, fp, tn, fn)
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        expected = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
        assert mcc(cm) == pytest.approx(expected, abs=1e-12)


def test_f_and_mcc_equal_one_iff_no_errors():
    assert f_measure(ConfusionMatrix(3, 0, 4, 0)) == 1.0
    assert mcc(ConfusionMatrix(3, 0, 4, 0)) == 1.0
    assert f_measure(ConfusionMatrix(3, 1, 4, 0)) < 1.0
    assert mcc(ConfusionMatrix(3, 0, 4, 1)) < 1.0
