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
* VIF is read off the diagonal of the inverse correlation matrix of the
  varying metrics (one SVD of the data where its Cholesky factor declines);
  a constant metric scores exactly 1, and (numerically) perfect linear
  dependence ``math.inf``, which orders above every finite score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionMismatch, LengthMismatch, TooFewValues

#: Auxiliary-regression R2 at or above this (a VIF of about 1e10) is perfect dependence.
PERFECT_FIT_R2 = 1.0 - 1e-10

#: Distinguished VIF value for perfect linear dependence.
UNBOUNDED = math.inf

#: The closed-form VIF declines a subset when any score reaches this; it sits far
#: below 1/(1 - PERFECT_FIT_R2) = 1e10, so only the SVD ever decides ``UNBOUNDED``.
CLOSED_FORM_VIF_LIMIT = 1e8


@dataclass(frozen=True)
class CorrelationMatrix:
    metric_names: tuple[str, ...]
    values: np.ndarray  # symmetric, unit diagonal, entries in [-1, 1]


@dataclass(frozen=True)
class VifReport:
    scores: dict[str, float]  # metric name -> VIF >= 1, math.inf if unbounded


def _finite(values, name: str) -> np.ndarray:
    """``values`` as float64, refused with ``DataError`` unless every entry is finite."""
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise DataError(f"{name} has a non-finite value")
    return v


def rank_with_ties(values) -> np.ndarray:
    """Ranks 1..n; tied values get the average of the ranks they span.

    A NaN or infinite value raises ``DataError``.
    """
    return _rank_columns(_finite(values, "values").reshape(-1))


def spearman(x, y) -> float:
    """Rank correlation in [-1, 1]; 0 when either input is constant or empty.

    A NaN or infinite value in ``x`` or ``y`` raises ``DataError``.
    """
    x = _finite(x, "x")
    y = _finite(y, "y")
    if x.shape != y.shape:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    return float(spearman_of(np.column_stack([x.reshape(-1), y.reshape(-1)]))[0, 1])


def _rank_columns(x: np.ndarray) -> np.ndarray:
    """Average ranks 1..n of every column of ``x`` at once, or of the vector
    ``x``; tied values get the average of the ranks they span.

    ``x`` must be finite. Each rank is the mean position of its tie group,
    which does not depend on how the sort orders equal values, so numpy's
    default (unstable, and fastest) sort serves; 0.0 and -0.0 compare equal
    and tie. Among NaNs an unstable sort's order would change the ranks,
    which is why the public wrappers refuse them.

    The columns are laid end to end in one flat array, each sorted within
    its own span, so one pass over it finds the tie groups of every column
    with few full-size temporaries.
    """
    n = x.shape[0]
    if x.size == 0:
        return np.empty(x.shape)
    cols = np.ascontiguousarray(x.T).reshape(-1, n)
    offsets = np.arange(0, cols.size, n)[:, None]  # of each column in ``cols`` laid flat
    order = np.argsort(cols, axis=1)
    order += offsets
    order = order.ravel()
    sx = cols.ravel()[order]
    starts = np.empty(sx.size, dtype=bool)  # a tie group starts at this sorted position
    starts[1:] = sx[1:] != sx[:-1]
    starts[::n] = True
    first = np.flatnonzero(starts)
    stop = np.append(first[1:], sx.size)  # one past each group's last position
    size = stop - first
    # flat positions first .. stop - 1 average to the 1-based (first + stop + 1) / 2;
    # twice that, less twice the column's offset, is an exact integer
    stop += first
    stop += 1
    ranks = np.empty(cols.shape)
    ranks.ravel()[order] = np.repeat(stop, size)
    ranks -= 2 * offsets
    ranks /= 2.0
    return ranks.reshape(x.shape[::-1]).T


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
    c = _rank_columns(cols)
    c *= 2.0
    c -= n + 1
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
    their identified column space. A constant target yields 0, tested on its
    values: 0.1 less the mean of 0.1s need not be 0.
    """
    y = np.asarray(target, dtype=np.float64)
    x = np.asarray(predictors, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{x.shape[0]} predictor rows vs {y.shape[0]} targets")
    if np.all(y == y[:1]):
        return 0.0
    centered = y - y.mean()
    sst = float(centered @ centered)
    design = np.column_stack([np.ones(y.shape[0]), x])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    ssr = float(resid @ resid)
    return max(0.0, min(1.0, 1.0 - ssr / sst))


def standardized_varying(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the columns that vary, and those columns centred and
    scaled to unit norm, so that z^T z is their Pearson correlation matrix R."""
    varying = ~np.all(cols == cols[0], axis=0)
    z = cols[:, varying]
    z = z - z.mean(axis=0)
    z /= np.sqrt(np.einsum("ij,ij->j", z, z))
    return varying, z


def _vif_and_factor(z: np.ndarray, corr: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """VIF scores of the standardized columns z, whose correlation matrix
    is ``corr`` = z^T z, and L^-1 for the Cholesky factor of R = L L^T when
    the closed form scored them, or None when the SVD did.

    The closed form reads max(1, diag(R^-1)) off L^-1. It declines, and
    :func:`_vif_svd` scores instead, when R is not numerically positive
    definite or an inflation is not finite or is at or above
    ``CLOSED_FORM_VIF_LIMIT``.
    """
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        return _vif_svd(z), None
    inv_chol = np.linalg.solve(chol, np.eye(corr.shape[0]))
    # R^-1 = L^-T L^-1, so its diagonal is the column sums of squares of L^-1
    diag = np.einsum("ij,ij->j", inv_chol, inv_chol)
    if np.all(np.isfinite(diag)) and diag.max() < CLOSED_FORM_VIF_LIMIT:
        return np.maximum(diag, 1.0), inv_chol
    return _vif_svd(z), None


def _vif_svd(z: np.ndarray) -> np.ndarray:
    """VIF scores of the standardized columns z from one SVD, z = U S V^T.

    R = z^T z = V S^2 V^T. Metric j is ``UNBOUNDED`` when its column of the
    null rows of V^T (past the numerical rank) has a sum of squares above
    1e-18: an exact linear combination of the others. Otherwise its VIF
    is e_j^T R^+ e_j = sum_k v_kj^2 / s_k^2 over the kept singular values.
    The null weight is summed, not taken as 1 less the kept weight, which
    would cancel it.
    """
    n, p = z.shape
    _, s, vt = np.linalg.svd(z, full_matrices=n < p)  # V^T is p x p either way
    rank = int(np.count_nonzero(s > s[0] * max(n, p) * np.finfo(np.float64).eps))
    kept = vt[:rank] / s[:rank, None]
    null = vt[rank:]
    vif = np.maximum(np.einsum("ij,ij->j", kept, kept), 1.0)
    vif[(np.einsum("ij,ij->j", null, null) > 1e-18) | (vif >= 1.0 / (1.0 - PERFECT_FIT_R2))] = UNBOUNDED
    return vif


def vif_scores(d: Dataset, subset) -> VifReport:
    """Variance inflation factor 1/(1-R2) for each metric in ``subset``.

    R2 comes from regressing the metric on the other subset metrics, and
    1/(1-R2) is the metric's diagonal entry of the inverse correlation
    matrix R of the subset's varying metrics (Belsley, Kuh & Welsch 1980),
    computed from one Cholesky factorisation. A constant metric, like a
    lone metric, scores exactly 1 and is left out of R. Where the closed
    form declines, one SVD of the data scores every varying metric
    (:func:`_vif_and_factor`), and perfect dependence maps to ``UNBOUNDED``.
    A name given twice raises ``EmptyDataset``, as ``Dataset.columns`` does.
    """
    subset = list(subset)
    if not subset:
        raise TooFewValues("vif_scores needs a nonempty subset")
    varying, z = standardized_varying(d.columns(subset))
    scores = np.ones(len(subset))
    if z.shape[1] > 1:
        scores[varying] = _vif_and_factor(z, z.T @ z)[0]
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
