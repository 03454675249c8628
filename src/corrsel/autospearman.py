"""Two-phase automated elimination of correlated metrics.

Phase 1 repeatedly takes the strongest-correlated remaining metric pair
(|Spearman| at or above ``sp_t``) and removes the member that is on average
more correlated with the rest of the metrics, so the kept metric is the
better representative. Phase 2 then iteratively recomputes variance
inflation factors on the survivors and removes the single highest scorer
until every VIF is below ``vif_t``.

The procedure is unsupervised (the outcome column is never read) and fully
deterministic; every removal is recorded in an ordered trace.

Conventions pinned here:

* The correlation matrix is computed once up front; the phase-1 mean-|rho|
  criterion for a pair is taken against the full starting metric set minus
  that pair, not against the shrinking survivor set.
* Both phase thresholds compare with ``>=``.
* Phase-1 pair order: descending |rho|, ties by smallest column-index pair.
  Phase-1 keep-tie: smaller original column index wins. Phase-2 max-VIF
  tie (including several unbounded scores): the largest original column
  index is removed.
* Constant columns are uninformative and break the VIF design matrix, so
  they are removed before phase 1 with a trace entry at statistic 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .stats import correlation_of, spearman_matrix, vif_from_correlation, vif_scores

#: Selector outputs are plain ordered lists of metric names.
MetricSubset = list[str]


@dataclass(frozen=True)
class AutoSpearmanParams:
    sp_t: float = 0.7
    vif_t: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.sp_t <= 1.0:
            raise ValueError("sp_t must be in (0, 1]")
        if not self.vif_t > 1.0:
            raise ValueError("vif_t must be > 1")


@dataclass(frozen=True)
class TraceStep:
    phase: str  # "spearman" | "vif"
    removed: str
    kept: str | None  # retained partner (spearman phase only)
    statistic: float  # |rho| of the pair, or the VIF score


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[TraceStep, ...] = field(default_factory=tuple)

    def removed_metrics(self) -> list[str]:
        return [s.removed for s in self.steps]

    def to_json_obj(self) -> list[dict]:
        out = []
        for s in self.steps:
            stat = "inf" if math.isinf(s.statistic) else s.statistic
            out.append(
                {"phase": s.phase, "removed": s.removed, "kept": s.kept, "statistic": stat}
            )
        return out


def spearman_phase(d: Dataset, sp_t: float = 0.7):
    """Pairwise Spearman elimination; returns (kept subset, trace).

    Constant columns are removed first. The correlation matrix is computed
    once; while any pair of survivors has |rho| >= sp_t, the strongest pair
    is resolved by keeping the member whose mean |rho| against the other
    metrics (excluding the pair itself) is smaller.

    A removal only deletes pairs and never changes a |rho|, so the pairs are
    sorted once and walked in order, skipping any pair with a removed member.
    """
    constant = np.all(d.rows == d.rows[0], axis=0)
    steps = [TraceStep("spearman", n, None, 0.0) for n, c in zip(d.metric_names, constant) if c]
    names = [n for n, c in zip(d.metric_names, constant) if not c]
    if not names:
        return [], EliminationTrace(tuple(steps))
    p = len(names)
    filtered = d if p == d.n_metrics else d.project(names)
    corr = np.abs(spearman_matrix(filtered).values)

    # strongest pair first: nonzero lists pairs in row-major order, which the
    # stable sort keeps among equal |rho|, so ties go smallest (i, j) first
    first, second = np.nonzero(np.triu(corr >= sp_t, 1))
    order = np.argsort(-corr[first, second], kind="stable")
    alive = np.ones(p, dtype=bool)
    for i, j in zip(first[order].tolist(), second[order].tolist()):
        if not (alive[i] and alive[j]):
            continue
        if p == 2:
            mi = mj = 0.0
        else:
            mi = float(np.mean(np.delete(corr[i], [i, j])))
            mj = float(np.mean(np.delete(corr[j], [i, j])))
        kept, removed = (i, j) if mi <= mj else (j, i)
        steps.append(TraceStep("spearman", names[removed], names[kept], float(corr[i, j])))
        alive[removed] = False

    return [n for n, a in zip(names, alive) if a], EliminationTrace(tuple(steps))


def vif_phase(d: Dataset, start: MetricSubset, vif_t: float = 5.0):
    """Iterative highest-VIF elimination; returns (kept subset, trace).

    Scores are recomputed after every removal; exactly one metric leaves
    per pass. Unbounded scores order above every finite score; VIF ties go
    against the metric with the largest original column index.

    The correlation matrix of ``start`` is formed once; each pass scores the
    survivors from its principal submatrix, and hands the pass to
    :func:`vif_scores` whenever that closed form declines.
    """
    current = list(start)
    position = {m: i for i, m in enumerate(d.metric_names)}
    at = {m: k for k, m in enumerate(current)}
    corr = correlation_of(d.columns(current)) if len(current) > 1 else None
    steps = []
    while current:
        scores = None
        if corr is not None and len(current) > 1:
            idx = [at[m] for m in current]
            diag = vif_from_correlation(corr[np.ix_(idx, idx)])
            if diag is not None:
                scores = dict(zip(current, diag.tolist()))
        if scores is None:
            scores = vif_scores(d, current).scores
        offenders = [m for m in current if scores[m] >= vif_t]
        if not offenders:
            break
        worst = max(offenders, key=lambda m: (scores[m], position[m]))
        steps.append(TraceStep("vif", worst, None, scores[worst]))
        current.remove(worst)
    return current, EliminationTrace(tuple(steps))


def auto_spearman(d: Dataset, params: AutoSpearmanParams = AutoSpearmanParams()):
    """Full two-phase elimination; returns (kept subset, combined trace).

    The output satisfies: every pairwise |Spearman| < sp_t and every VIF
    finite and < vif_t. The outcome column is never consulted.
    """
    subset, trace1 = spearman_phase(d, params.sp_t)
    subset, trace2 = vif_phase(d, subset, params.vif_t)
    return subset, EliminationTrace(trace1.steps + trace2.steps)
