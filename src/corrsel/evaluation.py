"""Performance measures: rank-based AUC, F-measure, MCC, and the confusion
matrix at the probability cutoff ``CUTOFF`` (a module predicted defective
only when its score is strictly above it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, SingleClass
from .stats import rank_with_ties

CUTOFF = 0.5


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int


def auc(scores, labels) -> float:
    """Mann-Whitney estimate: P(random positive ranked above random negative).

    Ties count one half. Equals brute-force pair counting exactly, since
    average ranks are multiples of 0.5 and sums stay within exact float
    integer range.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise LengthMismatch(f"{s.shape} scores vs {y.shape} labels")
    pos = int(np.count_nonzero(y))
    neg = y.size - pos
    if pos == 0 or neg == 0:
        raise SingleClass("AUC needs both label classes")
    ranks = rank_with_ties(s)
    u = float(ranks[y].sum()) - pos * (pos + 1) / 2.0
    return u / (pos * neg)


def confusion_at(scores, labels) -> ConfusionMatrix:
    """Counts with 'defective' predicted iff score is strictly above ``CUTOFF``."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise LengthMismatch(f"{s.shape} scores vs {y.shape} labels")
    pred = s > CUTOFF
    return ConfusionMatrix(
        tp=int(np.count_nonzero(pred & y)),
        fp=int(np.count_nonzero(pred & ~y)),
        tn=int(np.count_nonzero(~pred & ~y)),
        fn=int(np.count_nonzero(~pred & y)),
    )


def f_measure(cm: ConfusionMatrix) -> float:
    """Harmonic mean of precision and recall; 0 when there are no true positives."""
    if cm.tp == 0:
        return 0.0
    precision = cm.tp / (cm.tp + cm.fp)
    recall = cm.tp / (cm.tp + cm.fn)
    return 2.0 * precision * recall / (precision + recall)


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation coefficient; 0 when any marginal count is zero.

    Products are taken in exact integer arithmetic before the square root,
    so large counts cannot overflow.
    """
    tp, fp, tn, fn = cm.tp, cm.fp, cm.tn, cm.fn
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom_sq)
