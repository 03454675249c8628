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
* Constant columns are uninformative, so they are removed before phase 1
  with a trace entry at statistic 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .stats import (
    _vif_and_factor,
    spearman_matrix,
    standardized,
    vif_scores,  # unused here; bench/tracer.py binds corrsel.autospearman.vif_scores
)

#: Selector outputs are plain ordered lists of metric names.
MetricSubset = list[str]

#: The VIF phase factors R again at the next pass after removing a metric
#: whose VIF, the downdate's pivot, reaches this: the downdate divides by
#: the pivot, and a large one cancels most digits of what it subtracts.
REFACTOR_PIVOT = 100.0

#: A downdated pass whose decision rests on a relative gap at most this is
#: scored from a fresh factorisation instead. The downdate's rounding stays
#: far inside it: below 1e-13 relative after 360 downdates from p = 675.
CLOSE_CALL = 1e-9


@dataclass(frozen=True)
class AutoSpearmanParams:
    """The two thresholds, whose defaults every other default reads."""

    sp_t: float = 0.7
    vif_t: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.sp_t <= 1.0:
            raise ConfigError(f"sp_t must be in (0, 1], got {self.sp_t!r}")
        if not self.vif_t > 1.0:
            raise ConfigError(f"vif_t must be > 1, got {self.vif_t!r}")


@dataclass(frozen=True)
class TraceStep:
    phase: str  # "spearman" | "vif"
    removed: str
    kept: str | None  # retained partner (spearman phase only)
    statistic: float  # |rho| of the pair, or the VIF score


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[TraceStep, ...] = field(default_factory=tuple)


def spearman_phase(d: Dataset, sp_t: float = AutoSpearmanParams.sp_t):
    """Pairwise Spearman elimination; returns (kept subset, trace).

    Constant columns are removed first. The correlation matrix is computed
    once (each rho reads its own two columns only, so the survivors' rows are
    cut from the full matrix); while any pair of survivors has |rho| >= sp_t,
    the strongest pair is resolved by keeping the member whose mean |rho|
    against the other metrics (excluding the pair itself) is smaller.

    A removal only deletes pairs and never changes a |rho|, so the pairs are
    sorted once and walked in order, skipping any pair with a removed member.
    """
    AutoSpearmanParams(sp_t=sp_t)
    constant = np.all(d.rows == d.rows[0], axis=0)
    steps = [TraceStep("spearman", n, None, 0.0) for n, c in zip(d.metric_names, constant) if c]
    keep = np.flatnonzero(~constant)
    names = [d.metric_names[i] for i in keep]
    if not names:
        return [], EliminationTrace(tuple(steps))
    p = len(names)
    corr = np.abs(spearman_matrix(d).values[np.ix_(keep, keep)])

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


def _close_call(scores: np.ndarray, vif_t: float) -> bool:
    """Whether a pass's decision rests on a relative gap of at most
    ``CLOSE_CALL``: a score against ``vif_t``, or the two highest scores."""
    second, first = np.partition(scores, -2)[-2:]
    near_threshold = np.abs(scores - vif_t) <= CLOSE_CALL * vif_t
    return bool(near_threshold.any() or first - second <= CLOSE_CALL * first)


def vif_phase(d: Dataset, start: MetricSubset, vif_t: float = AutoSpearmanParams.vif_t):
    """Iterative highest-VIF elimination; returns (kept subset, trace).

    Scores are recomputed after every removal; exactly one metric leaves
    per pass. Unbounded scores order above every finite score; VIF ties go
    against the metric with the largest original column index. Constant
    metrics score 1, so they are set aside and kept in their places.

    The correlation matrix R of the varying metrics is formed once, and in
    the common case factored once: P = R^-1 of the survivors comes from the
    Cholesky factor of their principal submatrix of R, each pass reads its
    scores off diag(P), and removing metric k downdates P in O(p^2) (the
    sweep identity, Goodnight 1979): P <- P[-k, -k] - P[-k, k] P[k, -k] / P[k, k].
    A factored pass scores the survivors' standardized columns and their
    submatrix of R with the scorer of :func:`vif_scores`, whose SVD scores
    the pass when the closed form declines. The survivors are factored
    again at the next pass after a removal whose pivot P[k, k] reaches
    ``REFACTOR_PIVOT``, at once when a downdated pass is a close call
    (:func:`_close_call`), and at the next pass after a declined one; so
    every decision is the one a fresh factorisation per pass makes.
    A name given twice in ``start`` raises ``EmptyDataset``, as
    ``Dataset.columns`` does.
    """
    AutoSpearmanParams(vif_t=vif_t)
    cols = d.columns(start)
    constant = np.all(cols == cols[0], axis=0)
    current = [m for m, c in zip(start, constant) if not c]
    position = {m: i for i, m in enumerate(d.metric_names)}
    at = {m: k for k, m in enumerate(current)}
    z = standardized(cols[:, ~constant])
    corr = z.T @ z
    # while downdating, P holds the survivors' R^-1 at rows and columns ``rows``
    # (in ``current`` order); a removed metric's row and column stay, at about 0
    inv = rows = None
    steps = []
    while len(current) > 1:
        scores = factor = None  # factor: L^-1 when this pass factors R
        if inv is not None:
            scores = np.maximum(inv[rows, rows], 1.0)
            if _close_call(scores, vif_t):
                scores = inv = None
        if scores is None:
            idx = [at[m] for m in current]
            scores, factor = _vif_and_factor(z[:, idx], corr[np.ix_(idx, idx)])
        offenders = np.flatnonzero(scores >= vif_t).tolist()
        if not offenders:
            break
        k = max(offenders, key=lambda i: (scores[i], position[current[i]]))
        steps.append(TraceStep("vif", current.pop(k), None, float(scores[k])))
        if (inv is None and factor is None) or len(current) < 2 or scores[k] >= REFACTOR_PIVOT:
            inv = None
            continue
        if inv is None:
            inv, rows = factor.T @ factor, np.arange(len(current) + 1)  # R^-1 = L^-T L^-1
        r = rows[k]
        inv -= np.outer(inv[r], inv[r] / inv[r, r])
        rows = np.delete(rows, k)
    kept = set(current)
    return [m for m, c in zip(start, constant) if c or m in kept], EliminationTrace(tuple(steps))


def auto_spearman(d: Dataset, params: AutoSpearmanParams = AutoSpearmanParams()):
    """Full two-phase elimination; returns (kept subset, combined trace).

    The output satisfies: every pairwise |Spearman| < sp_t and every VIF
    finite and < vif_t. The outcome column is never consulted.
    """
    subset, trace1 = spearman_phase(d, params.sp_t)
    subset, trace2 = vif_phase(d, subset, params.vif_t)
    return subset, EliminationTrace(trace1.steps + trace2.steps)
