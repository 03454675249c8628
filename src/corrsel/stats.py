"""Numerical substrate: ranks, Spearman correlation, OLS/R2, VIF,
discretization, entropy, chi-squared, inconsistency rate, AIC.

Conventions that matter downstream:

* Ties receive average ranks and Spearman is the Pearson correlation of the
  rank vectors (the 6*sum(d^2) shortcut is wrong under ties).
* Every Spearman statistic comes from :func:`spearman_of`, whose rank Gram
  is exact in float64: its bytes depend on no BLAS kernel and no row order,
  and ``spearman`` equals the matching ``spearman_matrix`` entry bit for bit.
* A constant column has no assertable monotone association, so its Spearman
  correlation with anything is defined as 0 rather than NaN.
* Columns with identical (or exactly reversed) rank vectors correlate at
  exactly +/-1.0, so threshold comparisons at 1.0 behave.
* VIF is read off the diagonal of the inverse correlation matrix; under
  (numerically) perfect linear dependence it is reported as ``math.inf``,
  which orders above every finite score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, LengthMismatch, TooFewValues

#: Auxiliary-regression R2 at or above this is treated as perfect dependence.
PERFECT_FIT_R2 = 1.0 - 1e-10

#: Distinguished VIF value for perfect linear dependence.
UNBOUNDED = math.inf

#: The closed-form VIF hands a subset to the regression path when any score
#: reaches this; it sits far below 1/(1 - PERFECT_FIT_R2) = 1e10, so only
#: the regressions ever decide ``UNBOUNDED``.
CLOSED_FORM_VIF_LIMIT = 1e8


@dataclass(frozen=True)
class CorrelationMatrix:
    metric_names: tuple[str, ...]
    values: np.ndarray  # symmetric, unit diagonal, entries in [-1, 1]

    def get(self, a: str, b: str) -> float:
        i = self.metric_names.index(a)
        j = self.metric_names.index(b)
        return float(self.values[i, j])


@dataclass(frozen=True)
class VifReport:
    scores: dict[str, float]  # metric name -> VIF >= 1, math.inf if unbounded


def rank_with_ties(values) -> np.ndarray:
    """Ranks 1..n; tied values get the average of the ranks they span."""
    return _rank_columns(np.asarray(values, dtype=np.float64).reshape(-1))


def spearman(x, y) -> float:
    """Rank correlation in [-1, 1]; 0 when either input is constant or empty."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    return float(spearman_of(np.column_stack([x.reshape(-1), y.reshape(-1)]))[0, 1])


def _rank_columns(x: np.ndarray) -> np.ndarray:
    """Average ranks 1..n of every column of ``x`` at once, or of the vector
    ``x``; tied values get the average of the ranks they span."""
    n = x.shape[0]
    vector = x.ndim == 1  # plain indexing: the axis helpers cost more than a short vector's ranking
    order = np.argsort(x, axis=0, kind="stable")
    sx = x[order] if vector else np.take_along_axis(x, order, axis=0)
    pos = np.arange(n) if vector else np.arange(n)[:, None]
    starts = np.ones(x.shape, dtype=bool)  # a tie group starts at this sorted row
    starts[1:] = sx[1:] != sx[:-1]
    ends = np.ones(x.shape, dtype=bool)  # a tie group ends at this sorted row
    ends[:-1] = starts[1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, pos, n)[::-1], axis=0)[::-1]
    # 0-based positions first..last average to 1-based rank (first + last)/2 + 1,
    # an exact half-integer
    ranks = np.empty(x.shape, dtype=np.float64)
    if vector:
        ranks[order] = (first + last) / 2.0 + 1.0
    else:
        np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=0)
    return ranks


def _rho_from_gram(gram: np.ndarray) -> np.ndarray:
    """Spearman matrix from the Gram matrix of doubled centred ranks, one
    entry at a time: unit diagonal, 0 against a constant column, exact +/-1
    for identical or reversed rank vectors."""
    ss = np.diag(gram)
    scale = np.sqrt(np.outer(ss, ss))
    varying = scale != 0.0
    rho = np.clip(gram / np.where(varying, scale, 1.0), -1.0, 1.0)  # a constant's Gram row is 0
    rho[varying & (gram == ss) & (gram == ss[:, None])] = 1.0
    rho[varying & (gram == -ss) & (gram == -ss[:, None])] = -1.0
    np.fill_diagonal(rho, 1.0)
    return rho


def spearman_of(cols: np.ndarray) -> np.ndarray:
    """Spearman correlation matrix of the columns of ``cols``, with the
    conventions of :func:`_rho_from_gram`.

    The doubled centred ranks c = 2r - (n + 1) are integers of magnitude at
    most n - 1, so in a block of at most 2**53 / (n - 1)**2 rows every
    partial sum of c^T c is an integer float64 holds exactly, in any order.
    Blocks (one up to about 208,000 rows) are added in row order.
    """
    n, p = cols.shape
    c = 2.0 * _rank_columns(cols) - (n + 1)
    rows = max(1, 2**53 // max(1, (n - 1) ** 2))
    gram = np.zeros((p, p))
    for start in range(0, n, rows):
        block = c[start:start + rows]
        gram += block.T @ block
    return _rho_from_gram(gram)


def spearman_matrix(d: Dataset) -> CorrelationMatrix:
    """Pairwise Spearman over all metric columns; symmetric, unit diagonal."""
    return CorrelationMatrix(d.metric_names, spearman_of(d.rows))


def ols_r_squared(target, predictors) -> float:
    """R2 of a least-squares fit with intercept, clamped to [0, 1].

    Uses an SVD-based solve, so rank-deficient predictor blocks are fit in
    their identified column space. A constant target yields 0.
    """
    y = np.asarray(target, dtype=np.float64)
    x = np.asarray(predictors, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{x.shape[0]} predictor rows vs {y.shape[0]} targets")
    centered = y - y.mean()
    sst = float(centered @ centered)
    if sst == 0.0:
        return 0.0
    design = np.column_stack([np.ones(y.shape[0]), x])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    ssr = float(resid @ resid)
    return max(0.0, min(1.0, 1.0 - ssr / sst))


def _vif_lstsq(d: Dataset, subset) -> VifReport:
    """VIF from one least-squares auxiliary regression per metric.

    The reference path: :func:`vif_scores` falls back to it whenever the
    closed form cannot be trusted, so it alone decides ``UNBOUNDED``.
    """
    subset = list(subset)
    cols = d.columns(subset)
    scores: dict[str, float] = {}
    for i, name in enumerate(subset):
        if len(subset) == 1:
            scores[name] = 1.0
            continue
        others = np.delete(cols, i, axis=1)
        r2 = ols_r_squared(cols[:, i], others)
        if r2 >= PERFECT_FIT_R2:
            scores[name] = UNBOUNDED
        else:
            scores[name] = max(1.0, 1.0 / (1.0 - r2))
    return VifReport(scores)


def correlation_of(cols: np.ndarray) -> np.ndarray | None:
    """Pearson correlation matrix R = z^T z of the columns, z centred and scaled.

    Returns None when a column is constant, where R is undefined.
    """
    if np.any(np.all(cols == cols[0], axis=0)):
        return None
    centered = cols - cols.mean(axis=0)
    z = centered / np.sqrt(np.einsum("ij,ij->j", centered, centered))
    return z.T @ z


def vif_from_correlation(corr: np.ndarray) -> np.ndarray | None:
    """VIF scores max(1, diag(R^-1)) of a correlation matrix, via Cholesky.

    Returns None when the regression path must decide instead: an R that is
    not numerically positive definite, or an inflation at or above
    ``CLOSED_FORM_VIF_LIMIT``.
    """
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        return None
    # R^-1 = L^-T L^-1, so its diagonal is the column sums of squares of L^-1
    inv_chol = np.linalg.solve(chol, np.eye(corr.shape[0]))
    diag = np.einsum("ij,ij->j", inv_chol, inv_chol)
    if not np.all(np.isfinite(diag)) or diag.max() >= CLOSED_FORM_VIF_LIMIT:
        return None
    return np.maximum(diag, 1.0)


def _vif_closed_form(cols: np.ndarray) -> np.ndarray | None:
    """VIF scores of the columns from their correlation matrix, or None."""
    corr = correlation_of(cols)
    return None if corr is None else vif_from_correlation(corr)


def vif_scores(d: Dataset, subset) -> VifReport:
    """Variance inflation factor 1/(1-R2) for each metric in ``subset``.

    R2 comes from regressing the metric on the other subset metrics, and
    1/(1-R2) is the metric's diagonal entry of the inverse correlation
    matrix of the subset (Belsley, Kuh & Welsch 1980), which is how it is
    computed. A single-metric subset scores exactly 1. Near or at perfect
    dependence the per-metric regressions of :func:`_vif_lstsq` score the
    whole subset, and perfect dependence maps to ``UNBOUNDED`` (math.inf).
    """
    subset = list(subset)
    if not subset:
        raise TooFewValues("vif_scores needs a nonempty subset")
    if len(subset) == 1:
        return VifReport({subset[0]: 1.0})
    scores = _vif_closed_form(d.columns(subset))
    if scores is None:
        return _vif_lstsq(d, subset)
    return VifReport(dict(zip(subset, scores.tolist())))


def discretize_equal_frequency(values, bins: int) -> np.ndarray:
    """Bin labels (int64, in [0, bins)) by empirical quantiles; duplicate
    edges merge (fewer effective bins).

    Intervals are half-open, closed on the left, with the last bin closed,
    so equal values always share a label.
    """
    v = np.asarray(values, dtype=np.float64)
    if bins < 2:
        raise TooFewValues("bins must be >= 2")
    if v.size < bins:
        raise TooFewValues(f"{v.size} values for {bins} bins")
    qs = np.quantile(v, np.arange(1, bins) / bins)
    edges = np.unique(qs)
    edges = edges[edges > v.min()]  # an edge at the minimum would leave bin 0 empty
    return np.searchsorted(edges, v, side="right").astype(np.int64)


def _class_counts(labels: np.ndarray, outcome) -> tuple[np.ndarray, np.ndarray]:
    """Rows and defective rows carrying each label 0..max(labels)."""
    y = np.asarray(outcome, dtype=bool)
    if labels.shape != y.shape:
        raise LengthMismatch(f"{labels.shape} vs {y.shape}")
    count = np.bincount(labels)
    return count, np.bincount(labels[y], minlength=count.size)


def _bin_table(metric_labels: np.ndarray, outcome) -> np.ndarray:
    """The bins-by-2 (defective, clean) count table of the bins in use,
    in ascending bin order."""
    count, pos = _class_counts(metric_labels, outcome)
    used = count > 0
    return np.column_stack([pos[used], count[used] - pos[used]])


def _entropies(table: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a count table; 0 for an empty row."""
    p = table / np.maximum(table.sum(axis=1, keepdims=True), 1)
    plogp = np.zeros(p.shape)
    nonzero = p > 0
    plogp[nonzero] = p[nonzero] * np.log2(p[nonzero])
    return -plogp.sum(axis=1)


def information_gain(metric_labels: np.ndarray, outcome) -> float:
    """H(outcome) minus outcome entropy conditional on the bin, in bits."""
    table = _bin_table(metric_labels, outcome)
    rows = table.sum(axis=1)
    n = int(rows.sum())
    h_outcome = _entropies(table.sum(axis=0, keepdims=True))[0]
    # summed one bin at a time in ascending bin order, the order of the
    # reference per-bin loop, so the result matches it bit for bit
    cond = np.cumsum(np.append(0.0, rows / n * _entropies(table)))[-1]
    return max(0.0, float(h_outcome - cond))


def chi_squared(metric_labels: np.ndarray, outcome) -> float:
    """Sum of (O-E)^2/E over the bins-by-2 contingency table; E=0 cells add 0."""
    observed = _bin_table(metric_labels, outcome)
    expected = observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True) / observed.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


def inconsistency_rate(labels: np.ndarray, outcome) -> float:
    """Fraction of rows outside the majority outcome of their pattern.

    ``labels`` is an n x k integer matrix, one discretized metric per
    column; with k = 0 every row shares one pattern. Patterns are folded
    into one integer key and counted exactly.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise DimensionMismatch(f"labels must be 2-D, got shape {labels.shape}")
    n = labels.shape[0]
    if n == 0:
        raise TooFewValues("inconsistency_rate needs at least one row")
    key = np.zeros(n, np.int64)
    span = 1  # key < span; re-compressed to at most one value per row
    for col in labels.T:
        radix = int(col.max()) + 1
        key = key * radix + col
        span *= radix
        if span > n:
            _, key = np.unique(key, return_inverse=True)
            span = int(key.max()) + 1
    count, pos = _class_counts(key, outcome)
    return int(np.minimum(pos, count - pos).sum()) / n


def aic(log_likelihood: float, parameter_count: int) -> float:
    """Akaike information criterion, 2k - 2 logLik (lower is better)."""
    if parameter_count < 1:
        raise TooFewValues("parameter_count must be >= 1")
    return 2.0 * parameter_count - 2.0 * log_likelihood
