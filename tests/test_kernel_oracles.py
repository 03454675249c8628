"""Property tests of the vectorised kernels against their oracles.

``vif_scores`` reads VIFs off diag(R^-1), or off one SVD of the data where
its Cholesky closed form declines, and is checked against ``_vif_lstsq``,
the one-regression-per-metric path that the SVD replaced, kept here as the
oracle.
``spearman_matrix`` and ``spearman`` share one kernel, the exact integer Gram
of doubled centred ranks. It is checked against the normalised z^T z
construction it replaced, kept as the oracle: equal on every exact +/-1 and 0,
and within 1e-12 elsewhere. Its bytes are checked to be the same under a row
permutation, equal to its formula on a Gram summed in int64 without BLAS (also
over several row blocks), and, entry by entry, equal to ``spearman`` on the
pair. The column rank kernel, which ``rank_with_ties`` runs on one column, is
checked bit for bit against the one-column ranker it replaced, and against
its own stable-sort version, which its unstable sort replaced.
The level-wise random forest is checked against the depth-first grower it
replaced, kept here as the reference, and its distinct-row growth, which
sorts a node's rows per candidate metric by their places in one presort,
node array for node array against the bag-position grower (one row per bag
draw, argsorted per batch) that preceded it. The batched IRLS behind
``fit_logistic`` is checked bit for bit against the one-model IRLS loop it
replaced; a warm-started fit is checked against that loop bit for bit when it
does not converge (it is refit cold) and within a stated tolerance when it
does. ``inconsistency_rate``'s folded-key count over a label matrix (zero
columns and one row included) is checked against the ``np.unique(axis=0)``
grouping it replaced, and ``information_gain``'s and ``chi_squared``'s
one-table count bit for bit against their per-bin loops.
``vif_phase``, which factors the correlation matrix once and downdates its
inverse per removal, is checked against the phase that called
``vif_scores`` on every pass: same decisions, and statistics within a
relative 1e-12. A pass whose closed form declines is scored by the SVD of
``vif_scores``, from one factorisation and one SVD, and its statistics
equal ``vif_scores`` on the same survivors bit for bit. ``spearman_phase``,
which sorts its pairs once and walks them, against the loop that took the
strongest pair from a list it filtered after every removal; and
``load_csv``'s one-call parse against the per-cell loop that remains its
error path. ``select_rfe``, one pass down the sizes that scores a size as
the elimination reaches it, against the two loops it replaced (the whole
path first, then the scoring): the same subset, and the same fits apart
from the path fits below the smallest size scored, which it no longer
makes.
"""

from __future__ import annotations

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsel.autospearman as autospearman
import corrsel.classifiers as classifiers
import corrsel.data as data
import corrsel.selectors as selectors
import corrsel.stats as stats
from corrsel.autospearman import (
    AutoSpearmanParams,
    EliminationTrace,
    TraceStep,
    auto_spearman,
    spearman_phase,
    vif_phase,
)
from corrsel.classifiers import (
    COEF_CAP,
    fit_logistic,
    fit_logistic_batch,
    fit_random_forest,
    importance,
    score_rows,
    warm_start,
)
from corrsel.data import Dataset, bootstrap_sample, load_csv, sigmoid
from corrsel.errors import ConfigError, CorrselError, DimensionMismatch, SingleClass, UnsupportedSelector
from corrsel.evaluation import auc
from corrsel.seeding import derive_seed
from corrsel.selectors import SelectorConfig, select_rfe
from corrsel.stats import (
    PERFECT_FIT_R2,
    UNBOUNDED,
    chi_squared,
    discretize_equal_frequency,
    inconsistency_rate,
    information_gain,
    ols_r_squared,
    rank_with_ties,
    spearman,
    spearman_matrix,
    vif_scores,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _dataset(x: np.ndarray) -> Dataset:
    names = tuple(f"m{i}" for i in range(x.shape[1]))
    return Dataset(names, x, np.arange(x.shape[0]) % 2 == 0)


# -- VIF: closed form and SVD vs per-metric regressions ----------------------------------

def _vif_lstsq(d: Dataset, subset) -> dict[str, float]:
    """VIF from one least-squares auxiliary regression per metric."""
    subset = list(subset)
    cols = d.columns(subset)
    scores = {}
    for i, name in enumerate(subset):
        if len(subset) == 1:
            scores[name] = 1.0
            continue
        r2 = ols_r_squared(cols[:, i], np.delete(cols, i, axis=1))
        scores[name] = UNBOUNDED if r2 >= PERFECT_FIT_R2 else max(1.0, 1.0 / (1.0 - r2))
    return scores


@st.composite
def designs(draw):
    kind = draw(st.sampled_from(
        ["independent", "near_collinear", "dependent", "weak_dependent", "constant", "p_near_n"]
    ))
    n = draw(st.integers(4, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "p_near_n":
        p = draw(st.integers(max(2, n - 2), n + 5))
    else:
        p = draw(st.integers(2, min(10, n - 2)))
    x = rng.standard_normal((n, p)) @ (rng.standard_normal((p, p)) + 2 * np.eye(p))
    if kind == "near_collinear":
        sd = draw(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-7]))
        x[:, -1] = x[:, :-1] @ rng.standard_normal(p - 1) + sd * rng.standard_normal(n)
    elif kind == "dependent":
        x[:, -1] = x[:, :-1] @ rng.integers(-3, 4, p - 1)
    elif kind == "weak_dependent":
        # an exact dependence in which one member has a tiny weight
        weight = draw(st.sampled_from([1e-6, 1e-5, 1e-4, 1e-3]))
        x[:, -1] = x[:, :-2] @ rng.integers(-3, 4, p - 2) + weight * x[:, -2]
    elif kind == "constant":
        x[:, draw(st.integers(0, p - 1))] = draw(st.sampled_from([0.0, 0.1, 7.0]))
    return x


@PROPERTY
@given(designs())
def test_vif_closed_form_matches_regressions(x):
    d = _dataset(x)
    names = list(d.metric_names)
    fast = vif_scores(d, names).scores
    slow = _vif_lstsq(d, names)
    assert {m for m in names if math.isinf(fast[m])} == {m for m in names if math.isinf(slow[m])}
    for m, constant in zip(names, np.all(x == x[0], axis=0)):
        if constant:
            assert fast[m] == 1.0
    for m in names:
        if math.isfinite(slow[m]):
            assert fast[m] >= 1.0
            assert fast[m] == pytest.approx(slow[m], rel=1e-6)


def _forbid_svd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed form declined and an SVD ran")

    monkeypatch.setattr(np.linalg, "svd", forbidden)


def test_vif_well_conditioned_design_needs_no_regression(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((300, 40)) @ (rng.standard_normal((40, 40)) + 3 * np.eye(40))
    d = _dataset(x)
    oracle = _vif_lstsq(d, list(d.metric_names))
    _forbid_svd(monkeypatch)
    fast = vif_scores(d, list(d.metric_names)).scores
    for m, v in oracle.items():
        assert fast[m] == pytest.approx(v, rel=1e-9)


def test_vif_svd_decides_dependence(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 4))
    x[:, 3] = x[:, 0] - 2 * x[:, 1]
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(a.shape) or svd(a, **kw))
    report = vif_scores(_dataset(x), ["m0", "m1", "m2", "m3"])
    assert svds == [(50, 4)]
    assert [m for m, v in report.scores.items() if math.isinf(v)] == ["m0", "m1", "m3"]


def test_vif_constant_column_scores_one(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 3))
    x[:, 1] = 2.5
    _forbid_svd(monkeypatch)  # the constant leaves R, and the closed form decides
    assert vif_scores(_dataset(x), ["m0", "m1", "m2"]).scores["m1"] == 1.0


# -- VIF phase: one downdated inverse vs vif_scores on every pass -----------------------

def _vif_phase_per_pass(d: Dataset, start, vif_t: float):
    """The VIF phase as it was: ``vif_scores`` on the survivors, every pass."""
    current = list(start)
    steps = []
    while current:
        scores = vif_scores(d, current).scores
        offenders = [m for m in current if scores[m] >= vif_t]
        if not offenders:
            break
        worst = max(offenders, key=lambda m: (scores[m], d.metric_names.index(m)))
        steps.append((worst, scores[worst]))
        current.remove(worst)
    return current, steps


def _symmetric_tie_design(rng, others: int, swaps: int) -> np.ndarray:
    """+/-1 metrics over 64 rows, each summing to 0, so every correlation is
    an exact multiple of 1/64 and a principal submatrix of R equals a fresh
    R bit for bit. The last two metrics, [u, v] and [v, u], trade places
    when the two halves of the rows do, and every other metric is the same
    on both halves, so the two have equal VIFs in exact arithmetic. u and v
    differ from the first metric's half in ``swaps`` +/- pairs each, so the
    first metric goes first and the tied pair follows."""
    halves = [rng.permutation(np.repeat([1.0, -1.0], 16)) for _ in range(others)]

    def near(w):
        plus, minus = np.flatnonzero(w > 0), np.flatnonzero(w < 0)
        w = w.copy()
        w[rng.choice(plus, swaps, replace=False)] = -1.0
        w[rng.choice(minus, swaps, replace=False)] = 1.0
        return w

    u, v = near(halves[0]), near(halves[0])
    cols = [np.concatenate([w, w]) for w in halves] + [np.concatenate([u, v]), np.concatenate([v, u])]
    return np.column_stack(cols)


def _latent_design(rng, n: int, p: int, factors: int) -> np.ndarray:
    """Each metric loads on 3 of ``factors`` latent factors, plus noise of sd 0.5."""
    loadings = np.zeros((factors, p))
    for j in range(p):
        loadings[rng.choice(factors, 3, replace=False), j] = rng.standard_normal(3)
    return rng.standard_normal((n, factors)) @ loadings + 0.5 * rng.standard_normal((n, p))


@st.composite
def vif_phase_cases(draw, kinds=(
    "correlated", "constant", "dependent", "near_limit", "large_vif", "two_dependent",
    "symmetric_tie", "latent",
)):
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "symmetric_tie":
        # a tie at the top of a downdated pass: a close call
        x = _symmetric_tie_design(rng, draw(st.integers(2, 5)), draw(st.integers(1, 3)))
    elif kind == "latent":
        x = _latent_design(rng, draw(st.integers(250, 400)), 200, 40)
    else:
        n = draw(st.integers(12, 80))
        p = draw(st.integers(2, 9))
        x = rng.standard_normal((n, p)) @ (rng.standard_normal((p, p)) + 1.5 * np.eye(p))
        if kind == "constant":
            x[:, draw(st.integers(0, p - 1))] = draw(st.sampled_from([0.0, 3.5]))
        elif kind == "dependent" and p > 2:
            x[:, -1] = x[:, :-1] @ rng.integers(-3, 4, p - 1)
        elif kind == "two_dependent" and p > 4:
            # two unbounded groups: the second declined pass comes after a removal
            x[:, -1] = x[:, 0] - x[:, 1]
            x[:, -2] = x[:, 2] + 2 * x[:, 3]
        elif kind in ("near_limit", "large_vif") and p > 2:
            # an auxiliary R2 near 1 - 1e-8 puts VIFs around CLOSED_FORM_VIF_LIMIT;
            # one of 1 - 1e-3 .. 1e-6 removes a metric whose pivot reaches REFACTOR_PIVOT
            sds = [3e-4, 1e-4, 3e-5, 1e-5] if kind == "near_limit" else [3e-2, 1e-2, 1e-3]
            sd = draw(st.sampled_from(sds))
            x[:, -1] = x[:, :-1] @ rng.standard_normal(p - 1)
            x[:, -1] += sd * np.std(x[:, -1]) * rng.standard_normal(n)
    names = [f"m{i}" for i in range(x.shape[1])]
    start = draw(st.permutations(names))
    if kind != "latent":
        start = start[: draw(st.integers(1, len(names)))]
    return _dataset(x), list(start), draw(st.sampled_from([2.0, 5.0, 10.0]))


@PROPERTY
@given(vif_phase_cases())
def test_vif_phase_matches_per_pass_vif_scores(case):
    d, start, vif_t = case
    kept, trace = vif_phase(d, start, vif_t)
    want_kept, want_steps = _vif_phase_per_pass(d, start, vif_t)
    assert kept == want_kept
    assert [(s.phase, s.removed, s.kept) for s in trace.steps] == [
        ("vif", m, None) for m, _ in want_steps
    ]
    for step, (_, want) in zip(trace.steps, want_steps):
        if math.isinf(want):
            assert math.isinf(step.statistic)
        else:
            assert step.statistic == pytest.approx(want, rel=1e-12)


@PROPERTY
@given(vif_phase_cases(kinds=("dependent", "two_dependent")))
def test_vif_phase_declined_passes_equal_vif_scores_bit_for_bit(case):
    d, start, vif_t = case
    vif_svd = stats._vif_svd
    declined = []  # the scores of each declined pass
    with mock.patch.object(stats, "_vif_svd", lambda z: declined.append(vif_svd(z)) or declined[-1]):
        _, trace = vif_phase(d, start, vif_t)
    survivors = [m for m in start if not np.all(d.column(m) == d.column(m)[0])]
    removed = [s.removed for s in trace.steps]
    for scores in declined:
        i = len(survivors) - len(scores)  # one metric leaves per pass, so this is its index
        want = vif_scores(d, [m for m in survivors if m not in removed[:i]]).scores
        assert scores.tobytes() == np.array(list(want.values())).tobytes()
        if i < len(trace.steps):
            assert trace.steps[i].statistic.hex() == want[removed[i]].hex()


def _spy_factorisations(monkeypatch) -> list[tuple[str, int]]:
    """Logs ("cholesky", k) for each Cholesky factorisation of a k x k matrix
    and ("svd", k) for each SVD of k columns."""
    log = []
    cholesky, svd = np.linalg.cholesky, np.linalg.svd
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: log.append(("cholesky", a.shape[1])) or cholesky(a))
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: log.append(("svd", a.shape[1])) or svd(a, **kw))
    return log


def test_vif_phase_well_conditioned_needs_no_svd(monkeypatch):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((400, 30)) @ (rng.standard_normal((30, 30)) + 0.5 * np.eye(30))
    d = _dataset(x)
    want = _vif_phase_per_pass(d, d.metric_names, 5.0)
    _forbid_svd(monkeypatch)
    kept, trace = vif_phase(d, list(d.metric_names), 5.0)
    assert len(trace.steps) > 3
    assert (kept, [s.removed for s in trace.steps]) == (want[0], [m for m, _ in want[1]])


def test_vif_phase_declined_passes_take_one_factorisation_and_one_svd(monkeypatch):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((60, 5))
    x[:, 4] = x[:, 0] + x[:, 1]  # exactly dependent: the first pass is unbounded
    x[:, 3] = x[:, 2] + 0.3 * rng.standard_normal(60)
    d = _dataset(x)
    want = _vif_phase_per_pass(d, d.metric_names, 5.0)
    log = _spy_factorisations(monkeypatch)
    kept, trace = vif_phase(d, list(d.metric_names), 5.0)
    assert log == [("cholesky", 5), ("svd", 5), ("cholesky", 4)]
    assert trace.steps[0].removed == "m4" and math.isinf(trace.steps[0].statistic)
    assert kept == want[0]

    x = x.copy()
    x[:, 1] = 2.0  # a constant column is set aside, and R of the rest factors
    d = _dataset(x)
    want = _vif_phase_per_pass(d, d.metric_names, 5.0)
    log.clear()
    kept, trace = vif_phase(d, list(d.metric_names), 5.0)
    assert log == [("cholesky", 4)]
    assert trace.steps and "m1" in kept
    assert kept == want[0]


def test_vif_phase_factors_once_when_well_conditioned(monkeypatch):
    # 15 groups of 6 noisy copies of one base metric: VIFs of about 5 to 8
    rng = np.random.default_rng(12)
    x = np.repeat(rng.standard_normal((500, 15)), 6, axis=1) + 0.45 * rng.standard_normal((500, 90))
    d = _dataset(x)
    want = _vif_phase_per_pass(d, d.metric_names, 5.0)
    factorisations = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factorisations.append(a.shape) or cholesky(a))
    kept, trace = vif_phase(d, list(d.metric_names), 5.0)
    assert len(trace.steps) > 3
    assert factorisations == [(90, 90)]
    assert (kept, [s.removed for s in trace.steps]) == (want[0], [m for m, _ in want[1]])


def test_vif_phase_factors_again_after_a_large_pivot_a_close_call_or_a_declined_pass(monkeypatch):
    log = _spy_factorisations(monkeypatch)

    def run(x, vif_t):
        d = _dataset(x)
        want = _vif_phase_per_pass(d, d.metric_names, vif_t)
        log.clear()
        kept, trace = vif_phase(d, list(d.metric_names), vif_t)
        assert (kept, [s.removed for s in trace.steps]) == (want[0], [m for m, _ in want[1]])
        return [s.statistic for s in trace.steps]

    rng = np.random.default_rng(10)
    x = rng.standard_normal((80, 6))
    x[:, 4] = x[:, 3] + 0.2 * rng.standard_normal(80)
    x[:, 5] = x[:, :5] @ rng.standard_normal(5) + 0.01 * rng.standard_normal(80)
    statistics = run(x, 5.0)
    assert statistics[0] >= autospearman.REFACTOR_PIVOT > statistics[1] >= 5.0
    # the large pivot is not downdated: the second pass factors again, the third downdates
    assert log == [("cholesky", 6), ("cholesky", 5)]

    # the tied pair tops the second pass, downdated from the first: a close call
    statistics = run(_symmetric_tie_design(np.random.default_rng(0), 4, 1), 2.0)
    assert len(statistics) == 2
    assert log[:2] == [("cholesky", 6), ("cholesky", 5)]

    # two unbounded groups: two declined passes of one factorisation and one SVD each,
    # then one factorisation
    x = rng.standard_normal((60, 7))
    x[:, 6] = x[:, 0] - x[:, 1]
    x[:, 5] = x[:, 2] + 2 * x[:, 3]
    x[:, 4] = x[:, 3] + 0.3 * rng.standard_normal(60)
    statistics = run(x, 5.0)
    assert math.isinf(statistics[0]) and math.isinf(statistics[1]) and len(statistics) == 3
    assert log == [("cholesky", 7), ("svd", 7), ("cholesky", 6), ("svd", 6), ("cholesky", 5)]


# -- Spearman: the exact rank Gram vs the normalised construction -----------------------

def _reference_ranks(values) -> np.ndarray:
    """The one-column ranker: average ranks 1..n from one stable argsort and
    the run length of each tie group."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sv[1:] != sv[:-1]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # 1-based positions first+1 .. first+count average to first + (count+1)/2
    avg = first + (counts + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = avg[group]
    return ranks


def _spearman_matrix_normalised(d: Dataset) -> np.ndarray:
    """The construction the exact kernel replaced: z^T z of centred ranks
    scaled to unit norm, through BLAS, with exact +/-1 for identical or
    reversed rank vectors and 0 for constants set pair by pair."""
    p, n = d.n_metrics, d.n_modules
    ranks = np.column_stack([_reference_ranks(d.rows[:, j]) for j in range(p)])
    centered = ranks - ranks.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", centered, centered))
    constant = norms == 0.0
    z = centered / np.where(constant, 1.0, norms)
    c = z.T @ z
    keys = [ranks[:, j].tobytes() for j in range(p)]
    anti = [((n + 1) - ranks[:, j]).tobytes() for j in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            if constant[i] or constant[j]:
                c[i, j] = 0.0
            elif keys[i] == keys[j]:
                c[i, j] = 1.0
            elif keys[i] == anti[j]:
                c[i, j] = -1.0
            else:
                c[i, j] = max(-1.0, min(1.0, c[i, j]))
            c[j, i] = c[i, j]
    np.fill_diagonal(c, 1.0)
    return c


def _exact_gram_rho(x: np.ndarray) -> np.ndarray:
    """The kernel's elementwise formula on the Gram of doubled centred ranks
    taken in int64, which numpy sums without BLAS."""
    n = x.shape[0]
    c = np.column_stack([_reference_ranks(x[:, j]) for j in range(x.shape[1])])
    c = (2 * c).astype(np.int64) - (n + 1)
    return stats._rho_from_gram((c.T @ c).astype(np.float64))


@st.composite
def rank_designs(draw):
    """Columns with heavy ties, constants, duplicates and reversals."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, 5, 1000]))
    x = rng.integers(0, levels, (n, p)) / 8.0
    for j in range(1, p):
        src = x[:, int(rng.integers(0, j))]
        roll = rng.random()
        if roll < 0.15:
            x[:, j] = 3.0
        elif roll < 0.3:
            x[:, j] = 2 * src + 1
        elif roll < 0.45:
            x[:, j] = -src
        elif roll < 0.55:
            x[:, j] = np.exp(-src)
    return x


@PROPERTY
@given(rank_designs())
def test_spearman_matrix_matches_the_normalised_construction(x):
    got = spearman_matrix(_dataset(x)).values
    want = _spearman_matrix_normalised(_dataset(x))
    # the oracle's +/-1 and 0 are set exactly; a correlation that is exactly 0
    # comes out of the exact Gram as 0 but may round to ~1e-17 in the oracle
    exact = np.isin(want, (-1.0, 0.0, 1.0))
    assert np.array_equal(got[exact], want[exact])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@PROPERTY
@given(rank_designs(), st.integers(0, 2**32 - 1))
def test_spearman_matrix_bytes_are_exact(x, seed):
    """The bytes depend on neither the row order nor the BLAS summation
    order, and entry (i, j) on columns i and j alone."""
    got = spearman_matrix(_dataset(x)).values
    permuted = x[np.random.default_rng(seed).permutation(x.shape[0])]
    assert spearman_matrix(_dataset(permuted)).values.tobytes() == got.tobytes()
    assert got.tobytes() == _exact_gram_rho(x).tobytes()
    p = x.shape[1]
    pairs = [spearman(x[:, i], x[:, j]) for i in range(p) for j in range(p) if i != j]
    assert np.array_equal(got[~np.eye(p, dtype=bool)], pairs)


def test_spearman_matrix_bytes_are_exact_at_width():
    # the size of the select-wide workload: 90 metrics x 500 rows, 30 latent factors
    rng = np.random.default_rng(90)
    x = rng.standard_normal((500, 30)) @ rng.standard_normal((30, 90))
    x += 0.5 * rng.standard_normal(x.shape)
    got = spearman_matrix(_dataset(x)).values
    assert spearman_matrix(_dataset(x[::-1])).values.tobytes() == got.tobytes()
    assert got.tobytes() == _exact_gram_rho(x).tobytes()


def test_spearman_matrix_exact_over_several_row_blocks():
    # 250,000 rows take two blocks of at most 2**53 / (n - 1)**2 rows
    n = 250_000
    assert 2**53 // (n - 1) ** 2 < n
    rng = np.random.default_rng(25)
    base = rng.standard_normal(n)
    x = np.column_stack([base, base.copy(), -base, rng.standard_normal(n)])
    got = spearman_matrix(_dataset(x)).values
    sign = np.array([1.0, 1.0, -1.0])
    assert np.array_equal(got[:3, :3], np.outer(sign, sign))
    assert abs(got[0, 3]) < 0.01
    assert got.tobytes() == _exact_gram_rho(x).tobytes()


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(2, 8))
def test_spearman_matrix_invariant_under_monotone_maps(seed, n, p):
    rng = np.random.default_rng(seed)
    # a grid of 1e-3 keeps every map below strictly monotone in floating point
    x = rng.integers(-5000, 5000, (n, p)) / 1000.0
    base = spearman_matrix(_dataset(x)).values
    increasing = [np.exp, np.arctan, lambda v: v**3, lambda v: 4.0 * v - 7.0]
    warped = np.column_stack([increasing[j % 4](x[:, j]) for j in range(p)])
    assert spearman_matrix(_dataset(warped)).values.tobytes() == base.tobytes()
    flipped = x.copy()
    flipped[:, 0] = -np.exp(x[:, 0])
    got = spearman_matrix(_dataset(flipped)).values
    sign = np.ones(p)
    sign[0] = -1.0
    expected = base * np.outer(sign, sign)
    np.fill_diagonal(expected, 1.0)
    assert np.array_equal(got, expected)


def _assert_ranks_match_reference(x):
    """The column kernel, and ``rank_with_ties`` on each column, rank every
    column of ``x`` exactly as the one-column ranker does."""
    got = stats._rank_columns(x)
    for j in range(x.shape[1]):
        want = _reference_ranks(x[:, j]).tobytes()
        assert got[:, j].tobytes() == want
        assert rank_with_ties(x[:, j]).tobytes() == want


def test_rank_columns_match_rank_with_ties():
    rng = np.random.default_rng(6)
    x = rng.integers(0, 4, (50, 6)).astype(float)
    x[:, 5] = rng.standard_normal(50)
    _assert_ranks_match_reference(x)


@PROPERTY
@given(rank_designs())
def test_rank_kernel_is_bit_equal_to_the_one_column_ranker(x):
    _assert_ranks_match_reference(x)


def _stable_rank_columns(x: np.ndarray) -> np.ndarray:
    """The column rank kernel as it was, on a stable argsort: the reference
    for the kernel's default sort, which may order equal values either way."""
    n = x.shape[0]
    order = np.argsort(x, axis=0, kind="stable")
    sx = np.take_along_axis(x, order, axis=0)
    pos = np.arange(n)[:, None]
    starts = np.ones(x.shape, dtype=bool)
    starts[1:] = sx[1:] != sx[:-1]
    ends = np.ones(x.shape, dtype=bool)
    ends[:-1] = starts[1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, pos, n)[::-1], axis=0)[::-1]
    ranks = np.empty(x.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=0)
    return ranks


@st.composite
def tie_heavy_matrices(draw):
    """One row, or tall to wide, of a few distinct values: small integers,
    or 0.0 and -0.0 among +/-1."""
    n, p = draw(st.sampled_from([
        st.tuples(st.just(1), st.integers(1, 120)),
        st.tuples(st.integers(60, 400), st.integers(1, 6)),
        st.tuples(st.integers(2, 60), st.integers(2, 60)),
        st.tuples(st.integers(2, 12), st.integers(60, 120)),
    ]).flatmap(lambda shape: shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(-2, draw(st.sampled_from([1, 3, 8, 50])), (n, p)).astype(np.float64)
    return rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), (n, p), p=[0.4, 0.4, 0.1, 0.1])


@PROPERTY
@given(tie_heavy_matrices())
def test_rank_kernel_is_byte_equal_to_the_stable_sort_kernel(x):
    want = _stable_rank_columns(x)
    assert stats._rank_columns(x).tobytes() == want.tobytes()
    assert stats._rank_columns(x[:, 0]).tobytes() == want[:, 0].tobytes()


# -- AutoSpearman postcondition on wide data ---------------------------------------------

@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(5, 25), st.sampled_from([0.5, 0.7, 0.9]))
def test_auto_spearman_postcondition_when_metrics_outnumber_rows(seed, n, sp_t):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(n + 1, 2 * n + 1))
    latent = rng.standard_normal((n, max(1, p // 4)))
    x = latent @ rng.standard_normal((latent.shape[1], p)) + 0.5 * rng.standard_normal((n, p))
    d = _dataset(x)
    params = AutoSpearmanParams(sp_t=sp_t)
    kept, trace = auto_spearman(d, params)
    assert kept
    assert sorted(kept + [s.removed for s in trace.steps]) == sorted(d.metric_names)
    corr = np.abs(spearman_matrix(d.project(kept)).values)
    assert np.all(corr[np.triu_indices(len(kept), k=1)] < sp_t)
    scores = vif_scores(d, kept).scores.values()
    assert all(math.isfinite(v) and v < params.vif_t for v in scores)


# -- AutoSpearman phase 1: one sorted walk vs the rescanning loop ------------------------

def _reference_spearman_phase(d: Dataset, sp_t: float):
    """Phase 1 as a loop that takes the strongest pair with ``max`` and filters
    the pair list after every removal."""
    names, steps = [], []
    for name in d.metric_names:
        col = d.column(name)
        if np.all(col == col[0]):
            steps.append(TraceStep("spearman", name, None, 0.0))
        else:
            names.append(name)
    if not names:
        return [], EliminationTrace(tuple(steps))
    p = len(names)
    filtered = d if p == d.n_metrics else d.project(names)
    corr = np.abs(spearman_matrix(filtered).values)

    alive = list(range(p))
    pairs = [
        (i, j) for i in range(p) for j in range(i + 1, p) if corr[i, j] >= sp_t
    ]

    def mean_abs_corr(member: int, i: int, j: int) -> float:
        others = [k for k in range(p) if k not in (i, j)]
        if not others:
            return 0.0
        return float(np.mean(corr[member, others]))

    while pairs:
        i, j = max(pairs, key=lambda ij: (corr[ij[0], ij[1]], (-ij[0], -ij[1])))
        mi, mj = mean_abs_corr(i, i, j), mean_abs_corr(j, i, j)
        if mi < mj or (mi == mj and i < j):
            kept, removed = i, j
        else:
            kept, removed = j, i
        steps.append(
            TraceStep("spearman", names[removed], names[kept], float(corr[i, j]))
        )
        alive.remove(removed)
        pairs = [(a, b) for a, b in pairs if removed not in (a, b)]

    kept_set = {names[k] for k in alive}
    kept_names = [n for n in d.metric_names if n in kept_set]
    return kept_names, EliminationTrace(tuple(steps))


def _trace_key(trace: EliminationTrace) -> list:
    return [(s.phase, s.removed, s.kept, float(s.statistic).hex()) for s in trace.steps]


@PROPERTY
@given(rank_designs(), st.sampled_from([0.3, 0.5, 0.7, 1.0]))
def test_spearman_phase_matches_the_rescanning_loop(x, sp_t):
    # duplicated, reversed, constant and monotone-mapped columns make many
    # pairs tie on |rho| and many keep decisions tie on mean |rho|
    d = _dataset(x)
    kept, trace = spearman_phase(d, sp_t)
    want_kept, want_trace = _reference_spearman_phase(d, sp_t)
    assert kept == want_kept
    assert _trace_key(trace) == _trace_key(want_trace)


# -- random forest: level-wise growth vs the depth-first reference ------------------------

class _TreeNode:
    """Axis-aligned binary split; feature == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "vote", "decrease")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.vote = False
        self.decrease = 0.0


def _gini_counts(pos: float, total: float) -> float:
    if total == 0:
        return 0.0
    p = pos / total
    return 2.0 * p * (1.0 - p)


def _best_split(x: np.ndarray, y: np.ndarray, features: np.ndarray):
    """Lowest weighted-Gini (feature, threshold, decrease) or None."""
    n = y.size
    total_pos = int(y.sum())
    parent = n * _gini_counts(total_pos, n)
    best = None  # (weighted_child_gini, feature, threshold, decrease)
    for f in features:
        v = x[:, int(f)]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sy = y[order]
        cut = np.flatnonzero(sv[:-1] != sv[1:])  # split after position i
        if cut.size == 0:
            continue
        left_n = cut + 1
        left_pos = np.cumsum(sy)[cut]
        right_n = n - left_n
        right_pos = total_pos - left_pos
        pl = left_pos / left_n
        pr = right_pos / right_n
        child = left_n * 2.0 * pl * (1.0 - pl) + right_n * 2.0 * pr * (1.0 - pr)
        i = int(np.argmin(child))
        score = float(child[i])
        if best is None or score < best[0]:
            thr = (sv[cut[i]] + sv[cut[i] + 1]) / 2.0
            best = (score, int(f), float(thr), parent - score)
    return None if best is None else best[1:]


def _grow_tree(x: np.ndarray, y: np.ndarray, mtry: int, rng) -> _TreeNode:
    p = x.shape[1]
    root = _TreeNode()
    stack = [(root, x, y)]
    while stack:
        node, nx, ny = stack.pop()
        n = ny.size
        pos = int(ny.sum())
        node.vote = pos * 2 > n
        if pos == 0 or pos == n or n == 1:
            continue
        features = rng.choice(p, size=mtry, replace=False)
        split = _best_split(nx, ny, features)
        if split is None and mtry < p:
            split = _best_split(nx, ny, np.setdiff1d(np.arange(p), features))
        if split is None:
            continue
        node.feature, node.threshold, node.decrease = split
        left_mask = nx[:, node.feature] < node.threshold
        node.left = _TreeNode()
        node.right = _TreeNode()
        stack.append((node.right, nx[~left_mask], ny[~left_mask]))
        stack.append((node.left, nx[left_mask], ny[left_mask]))
    return root


def _tree_vote(node: _TreeNode, row: np.ndarray) -> bool:
    while node.feature >= 0:
        node = node.left if row[node.feature] < node.threshold else node.right
    return node.vote


def _accumulate_decrease(root: _TreeNode, acc: np.ndarray) -> None:
    stack = [root]
    while stack:
        node = stack.pop()
        if node.feature < 0:
            continue
        acc[node.feature] += node.decrease
        stack.append(node.left)
        stack.append(node.right)


def _bags(n: int, ntree: int, seed: int) -> list[np.ndarray]:
    """Each tree's bag: the first draw from its own stream."""
    streams = np.random.SeedSequence(seed).spawn(ntree)
    return [np.random.default_rng(s).integers(0, n, size=n) for s in streams]


def _reference_forest(x: np.ndarray, y: np.ndarray, ntree: int, seed: int) -> list[_TreeNode]:
    mtry = max(1, int(math.isqrt(x.shape[1])))
    streams = np.random.SeedSequence(seed).spawn(ntree)
    trees = []
    for t in range(ntree):
        rng = np.random.default_rng(streams[t])
        bag = rng.integers(0, x.shape[0], size=x.shape[0])
        trees.append(_grow_tree(x[bag], y[bag], mtry, rng))
    return trees


@st.composite
def forest_cases(draw, p=None):
    """Small labelled designs on a 1/4 grid: ties, constant columns, and
    midpoints that never round onto a data value."""
    n = draw(st.integers(2, 40))
    p = p if p is not None else draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 3, 8, 1000]))
    x = rng.integers(0, levels, (n, p)) / 4.0
    y = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    y[0], y[-1] = True, False
    names = tuple(f"m{i}" for i in range(p))
    d = Dataset(names, x, y)
    ntree = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    # from one tree per batch to the whole forest in one
    cells = draw(st.sampled_from([1, n * p * 3, classifiers._BATCH_CELLS]))
    with mock.patch.object(classifiers, "_BATCH_CELLS", cells):
        model = fit_random_forest(d, names, ntree=ntree, seed=seed)
    return d, model


def _routed(d: Dataset, m):
    """(node, bag rows reaching it) for every node, routed by the thresholds."""
    x = d.rows
    for root, bag in zip(m.trees, _bags(d.n_modules, m.ntree, m.seed)):
        stack = [(int(root), bag)]
        while stack:
            node, rows = stack.pop()
            yield node, rows
            f = m.feature[node]
            if f >= 0:
                goes_left = x[rows, f] < m.threshold[node]
                stack.append((int(m.left[node]), rows[goes_left]))
                stack.append((int(m.right[node]), rows[~goes_left]))


@PROPERTY
@given(forest_cases(p=1))
def test_forest_with_one_metric_matches_reference_bit_for_bit(case):
    d, m = case
    y = d.outcome.astype(np.int64)
    trees = _reference_forest(d.rows, y, m.ntree, m.seed)
    probe = np.concatenate([d.rows[:, 0], d.rows[:, 0] + 0.125, [-1.0, 1e3]])
    want = np.array([sum(_tree_vote(t, np.array([v])) for t in trees) / m.ntree for v in probe])
    got = score_rows(m, Dataset(("m0",), probe[:, None], np.zeros(probe.size, bool)))
    assert got.tobytes() == want.tobytes()
    acc = np.zeros(1)
    for tree in trees:
        _accumulate_decrease(tree, acc)
    if acc.sum() > 0:
        acc = acc / acc.sum()
    assert importance(m, d) == {"m0": float(acc[0])}


@PROPERTY
@given(forest_cases())
def test_forest_split_is_reference_best_split_on_its_metric(case):
    d, m = case
    y = d.outcome.astype(np.int64)
    for node, rows in _routed(d, m):
        f = int(m.feature[node])
        if f < 0:
            continue
        want = _best_split(d.rows[rows], y[rows], np.array([f]))
        assert want == (f, float(m.threshold[node]), float(m.decrease[node]))


@PROPERTY
@given(forest_cases())
def test_forest_leaves_are_pure_or_hold_identical_rows(case):
    d, m = case
    y = d.outcome
    for node, rows in _routed(d, m):
        if m.feature[node] >= 0:
            continue
        assert rows.size > 0
        assert m.vote[node] == (2 * np.count_nonzero(y[rows]) > rows.size)
        pure = y[rows].all() or not y[rows].any()
        assert pure or np.all(d.rows[rows] == d.rows[rows[0]])


@PROPERTY
@given(forest_cases())
def test_forest_batched_scores_equal_per_row_walk(case):
    d, m = case
    probe = np.concatenate([d.rows, d.rows + 0.125, -d.rows])

    def walk(row):
        votes = 0
        for node in m.trees:
            while m.feature[node] >= 0:
                f = m.feature[node]
                node = m.left[node] if row[f] < m.threshold[node] else m.right[node]
            votes += int(m.vote[node])
        return votes / m.ntree

    want = np.array([walk(row) for row in probe])
    got = score_rows(m, Dataset(d.metric_names, probe, np.zeros(probe.shape[0], bool)))
    assert got.tobytes() == want.tobytes()
    one_row = [score_rows(m, Dataset(d.metric_names, row[None, :], np.zeros(1, bool)))[0] for row in probe[:5]]
    assert one_row == want[:5].tolist()


def test_forest_splits_adjacent_floats():
    # (a + b) / 2 rounds onto a here; the split must still separate a from b
    a, b = 1.0, float(np.nextafter(1.0, 2.0))
    d = Dataset(("m0",), np.array([[a], [b], [a], [b]]), np.array([False, True, False, True]))
    m = fit_random_forest(d, ["m0"], ntree=3, seed=0)
    assert score_rows(m, d).tolist() == [0.0, 1.0, 0.0, 1.0]


# -- random forest: distinct-row growth vs the bag-position grower ------------------------

def _bag_best_cuts(seq, xb, yb, starts, sizes, pos, feats):
    """The bag-position grower's cut search: node k owns positions
    ``starts[k]:starts[k] + sizes[k]`` of ``seq``, one per bag row."""
    k_count = feats.shape[0]
    node = np.repeat(np.arange(k_count), sizes)
    first = np.cumsum(sizes) - sizes
    at = np.arange(node.size) + np.repeat(starts - first, sizes)
    f = feats.T[:, node]
    rows = seq[f, at]
    v = xb[rows, f]
    cum = np.cumsum(yb[rows], axis=1, dtype=np.int32)
    before = cum[:, first] - yb[rows[:, first]]
    s, i = np.nonzero((v[:, :-1] != v[:, 1:]) & (node[:-1] == node[1:]))
    k = node[i]
    left_n = i - first[k] + 1
    left_pos = cum[s, i] - before[s, k]
    right_n = sizes[k] - left_n
    right_pos = pos[k] - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    child = left_n * 2.0 * pl * (1.0 - pl) + right_n * 2.0 * pr * (1.0 - pr)

    score = np.full(k_count, np.inf)
    np.minimum.at(score, k, child)
    win = np.flatnonzero(child == score[k])
    pick = np.full(k_count, child.size)
    np.minimum.at(pick, k[win], win)
    has = np.flatnonzero(pick < child.size)
    c = pick[has]
    lo = v[s[c], i[c]]
    hi = v[s[c], i[c] + 1]
    mid = (lo + hi) / 2.0
    feature = np.full(k_count, -1, np.int32)
    threshold = np.zeros(k_count)
    n_left = np.zeros(k_count, np.int64)
    pos_left = np.zeros(k_count, np.int64)
    feature[has] = feats[has, s[c]]
    threshold[has] = np.where((lo < mid) & (mid <= hi), mid, hi)
    n_left[has] = left_n[c]
    pos_left[has] = left_pos[c]
    return score, feature, threshold, n_left, pos_left


def _bag_grow_batch(x: np.ndarray, y: np.ndarray, rngs, mtry: int, base: int):
    """The grower that holds every bag row, duplicates included, and argsorts
    each batch's bags per metric."""
    n, p = x.shape
    t_count = len(rngs)
    bag = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    xb = x[bag]
    yb = y[bag]
    local = np.argsort(xb.reshape(t_count, n, p), axis=1, kind="stable").astype(np.int32)
    local += (np.arange(t_count, dtype=np.int32) * n)[:, None, None]
    seq = local.transpose(2, 0, 1).reshape(p, t_count * n)
    status = np.zeros(t_count * n, np.int8)

    cap = t_count * (2 * n - 1)
    feature = np.full(cap, -1, np.int32)
    threshold = np.zeros(cap)
    left = np.full(cap, -1, np.int32)
    right = np.full(cap, -1, np.int32)
    vote = np.zeros(cap, bool)
    decrease = np.zeros(cap)

    ids = np.arange(t_count)
    tree = np.arange(t_count)
    size = np.full(t_count, n)
    pos = yb.reshape(t_count, n).sum(axis=1)
    next_id = t_count
    while ids.size:
        vote[ids] = pos * 2 > size
        open_ = (pos > 0) & (pos < size) & (size > 1)
        if not open_.all():
            seq = seq[:, np.repeat(open_, size)]
            ids, tree, size, pos = ids[open_], tree[open_], size[open_], pos[open_]
            if not ids.size:
                break
        starts = np.cumsum(size) - size

        counts = np.bincount(tree, minlength=t_count)
        u = np.empty((ids.size, p))
        u[np.argsort(tree, kind="stable")] = np.concatenate(
            [rngs[t].random((c, p)) for t, c in enumerate(counts) if c]
        )
        order = u.argsort(axis=1)
        cuts = _bag_best_cuts(seq, xb, yb, starts, size, pos, order[:, :mtry])
        miss = np.flatnonzero(cuts[0] == np.inf)
        if miss.size and mtry < p:
            rest = np.sort(order[miss, mtry:], axis=1)
            alts = _bag_best_cuts(seq, xb, yb, starts[miss], size[miss], pos[miss], rest)
            for out, alt in zip(cuts, alts):
                out[miss] = alt
        score, feat, thr, left_n, left_pos = cuts

        split = np.flatnonzero(score < np.inf)
        j_count = split.size
        sid = ids[split]
        q = pos[split] / size[split]
        feature[sid] = feat[split]
        threshold[sid] = thr[split]
        decrease[sid] = size[split] * (2.0 * q * (1.0 - q)) - score[split]
        left[sid] = base + next_id + np.arange(j_count)
        right[sid] = base + next_id + j_count + np.arange(j_count)

        node = np.repeat(np.arange(ids.size), size)
        chosen = seq[np.maximum(feat, 0)[node], np.arange(node.size)]
        goes = np.where(np.arange(node.size) - starts[node] < left_n[node], 1, 2).astype(np.int8)
        goes[score[node] == np.inf] = 0
        status[chosen] = goes
        st = status[seq]
        seq = np.concatenate([seq[st == 1].reshape(p, -1), seq[st == 2].reshape(p, -1)], axis=1)

        ids = next_id + np.arange(2 * j_count)
        next_id += 2 * j_count
        tree = np.concatenate([tree[split], tree[split]])
        size = np.concatenate([left_n[split], size[split] - left_n[split]])
        pos = np.concatenate([left_pos[split], pos[split] - left_pos[split]])
    return tuple(a[:next_id].copy() for a in (feature, threshold, left, right, vote, decrease))


def _bag_forest_arrays(d: Dataset, ntree: int, seed: int):
    """Node arrays of ``fit_random_forest`` on every metric of ``d``, grown
    by the bag-position grower one tree per batch."""
    x = d.rows
    y = d.outcome.astype(np.int8)
    mtry = max(1, int(math.isqrt(x.shape[1])))
    batches, roots, base = [], [], 0
    for stream in np.random.SeedSequence(seed).spawn(ntree):
        batches.append(_bag_grow_batch(x, y, [np.random.default_rng(stream)], mtry, base))
        roots.append(np.array([base], dtype=np.int32))
        base += batches[-1][0].size
    return (np.concatenate(roots), *(np.concatenate(column) for column in zip(*batches)))


_NODE_ARRAYS = ("trees", "feature", "threshold", "left", "right", "vote", "decrease")


def _budgets(d: Dataset, ntree: int) -> tuple[int, ...]:
    """Working-set budgets from one tree per batch, and one node per cut
    search, to the whole forest in one batch."""
    n, p = d.rows.shape
    return (1, n * p * 3, classifiers._BATCH_CELLS, ntree * n * p)


@PROPERTY
@given(forest_cases())
def test_forest_distinct_row_growth_is_byte_equal_to_bag_positions(case):
    d, m = case
    want = _bag_forest_arrays(d, m.ntree, m.seed)
    for cells in _budgets(d, m.ntree):
        with mock.patch.object(classifiers, "_BATCH_CELLS", cells):
            got = fit_random_forest(d, d.metric_names, ntree=m.ntree, seed=m.seed)
        for name, w in zip(_NODE_ARRAYS, want):
            g = getattr(got, name)
            assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes()), name


@PROPERTY
@given(forest_cases())
def test_forest_bytes_do_not_depend_on_the_batch_budget(case):
    # a batch numbers its nodes tree by tree, so importance sums every
    # node's decrease in the one order a forest grown tree by tree has
    d, m = case
    grown = {}
    for cells in _budgets(d, m.ntree):
        with mock.patch.object(classifiers, "_BATCH_CELLS", cells):
            f = fit_random_forest(d, d.metric_names, ntree=m.ntree, seed=m.seed)
        scores = np.array(list(importance(f, d).values()))
        grown[cells] = [getattr(f, name).tobytes() for name in _NODE_ARRAYS] + [scores.tobytes()]
    one_tree_per_batch = grown.pop(1)
    for cells, arrays in grown.items():
        assert arrays == one_tree_per_batch, cells


def test_forest_distinct_row_growth_on_tie_heavy_wide_data():
    # many metrics, few levels: most bag rows are duplicates of a handful of
    # distinct value patterns, and several trees share each batch. At p = 30
    # a node sorts its rows by only its candidates, and on 3 levels many
    # nodes fall back to the other p - mtry metrics
    for n, p, levels in ((120, 9, 3), (200, 30, 3), (150, 30, 1000)):
        rng = np.random.default_rng(4)
        x = rng.integers(0, levels, (n, p)) / 2.0
        y = rng.random(n) < 0.4
        d = Dataset(tuple(f"m{i}" for i in range(p)), x, y)
        got = fit_random_forest(d, d.metric_names, ntree=25, seed=77)
        want = _bag_forest_arrays(d, 25, 77)
        for name, w in zip(_NODE_ARRAYS, want):
            assert getattr(got, name).tobytes() == w.tobytes(), (n, p, levels, name)


# -- logistic regression: batched IRLS vs the one-model loop ------------------------------

def _sigmoid_two_branch(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_log_likelihood(design, y, beta) -> float:
    eta = design @ beta
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def _reference_fit_logistic(d: Dataset, subset, max_iter: int = 25, tol: float = 1e-8):
    """The one-model IRLS loop; returns the fields of a LogisticModel."""
    y = d.outcome.astype(np.float64)
    subset = tuple(subset)
    x = d.columns(subset) if subset else np.empty((d.n_modules, 0))
    design = np.column_stack([np.ones(d.n_modules), x])
    k = design.shape[1]
    beta = np.zeros(k)
    ll = _reference_log_likelihood(design, y, beta)
    trace = [ll]
    converged = capped = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        mu = _sigmoid_two_branch(design @ beta)
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        grad = design.T @ (y - mu)
        hess = design.T @ (design * w[:, None])
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.solve(hess + 1e-8 * np.eye(k), grad)
        if not np.all(np.isfinite(delta)):
            delta = np.linalg.solve(hess + 1e-8 * np.eye(k), grad)
        step = 1.0
        accepted = None
        while step >= 2.0**-30:
            cand = np.clip(beta + step * delta, -COEF_CAP, COEF_CAP)
            cand_ll = _reference_log_likelihood(design, y, cand)
            if cand_ll >= ll:
                accepted = (cand, cand_ll)
                break
            step /= 2.0
        if accepted is None:
            break
        cand, cand_ll = accepted
        if np.any(np.abs(cand) >= COEF_CAP):
            capped = True
        change = float(np.max(np.abs(cand - beta)))
        beta, ll = cand, cand_ll
        trace.append(ll)
        if change < tol:
            converged = True
            break
    return (float(beta[0]), beta[1:].tobytes(), ll, tuple(trace), iterations, converged and not capped)


def _fields(m):
    return (m.intercept, m.coefficients.tobytes(), m.log_likelihood, m.ll_trace,
            m.iterations_used, m.converged)


@st.composite
def logistic_batches(draw):
    """A dataset and several subsets of one width, some of them hard to fit."""
    kind = draw(st.sampled_from(["random", "separated", "collinear", "constant", "tiny"]))
    n = draw(st.integers(6, 12) if kind == "tiny" else st.integers(12, 120))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    y = rng.random(n) < sigmoid(1.5 * x[:, 0])
    if kind == "separated":
        y = x[:, 0] > 0
    elif kind == "collinear" and p > 1:
        x[:, 1] = x[:, 0]
    elif kind == "constant":
        x[:, -1] = 2.0
    if y.all() or not y.any():
        y[0] = not y[0]
    d = _dataset(x)
    d = Dataset(d.metric_names, d.rows, y)
    width = draw(st.integers(0, p))
    subsets = draw(
        st.lists(st.permutations(range(p)).map(lambda order: sorted(order[:width])), min_size=1, max_size=6)
    )
    names = [[d.metric_names[j] for j in s] for s in subsets]
    return d, names


@PROPERTY
@given(logistic_batches(), st.sampled_from(["one", "few", "default"]), st.sampled_from([25, 3]))
def test_batched_irls_matches_one_model_loop(case, budget, max_iter):
    d, subsets = case
    cells = d.n_modules * (len(subsets[0]) + 1)
    budgets = {"one": cells, "few": 3 * cells, "default": classifiers._IRLS_CELLS}
    with mock.patch.object(classifiers, "_IRLS_CELLS", budgets[budget]), \
            mock.patch.object(classifiers, "MAX_ITER", max_iter):
        models = fit_logistic_batch([(d, s) for s in subsets])
    for s, m in zip(subsets, models):
        assert m.metric_names == tuple(s)
        assert _fields(m) == _reference_fit_logistic(d, s, max_iter=max_iter)


def test_batched_irls_resamples_of_one_dataset():
    # RFE-LR fits one subset on several bootstrap samples in one batch
    rng = np.random.default_rng(4)
    x = rng.standard_normal((80, 5))
    d = Dataset(tuple(f"m{i}" for i in range(5)), x, rng.random(80) < sigmoid(x[:, 0] - x[:, 1]))
    trains = [bootstrap_sample(d, seed).train for seed in range(7)]
    for cells in (80 * 4, 80 * 4 * 3, 10**9):
        with mock.patch.object(classifiers, "_IRLS_CELLS", cells):
            models = fit_logistic_batch([(t, ["m0", "m1", "m3"]) for t in trains])
        for t, m in zip(trains, models):
            assert _fields(m) == _reference_fit_logistic(t, ["m0", "m1", "m3"])


def test_batched_irls_separation_caps_and_hits_max_iter():
    x = np.linspace(-2.0, 2.0, 40)[:, None]
    d = Dataset(("a",), x, x[:, 0] > 0.05)
    capped = fit_logistic_batch([(d, ["a"]), (d, ["a"])])[0]
    with mock.patch.object(classifiers, "MAX_ITER", 2):
        short = fit_logistic(d, ["a"])
    assert max(abs(capped.intercept), abs(float(capped.coefficients[0]))) == COEF_CAP
    assert not capped.converged
    assert short.iterations_used == 2 and not short.converged
    assert _fields(capped) == _reference_fit_logistic(d, ["a"])
    assert _fields(short) == _reference_fit_logistic(d, ["a"], max_iter=2)


def test_batched_irls_collinear_columns_take_the_ridge(monkeypatch):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 3))
    x[:, 2] = x[:, 0]
    d = Dataset(("a", "b", "c"), x, rng.random(60) < sigmoid(x[:, 1]))
    solve = np.linalg.solve
    lone = []

    def spy(a, b):
        if a.ndim == 2:
            lone.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    models = fit_logistic_batch([(d, ["a", "b", "c"]), (d, ["a", "b", "c"]), (d, ["a", "b", "c"])])
    monkeypatch.undo()
    assert lone  # a singular batch falls back to per-model solves
    for m in models:
        assert np.isfinite(m.log_likelihood)
        assert _fields(m) == _reference_fit_logistic(d, ["a", "b", "c"])


def test_newton_step_non_finite_takes_the_ridge():
    # a tiny but nonzero pivot: the plain solve overflows without raising
    hess = np.array([[[1e-308, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]])
    grad = np.array([[1e10, 1.0], [1.0, -1.0]])
    delta = classifiers._newton_steps(hess, grad)
    assert delta[0].tolist() == np.linalg.solve(hess[0] + 1e-8 * np.eye(2), grad[0]).tolist()
    assert delta[1].tolist() == np.linalg.solve(hess[1], grad[1]).tolist()


def test_batched_irls_empty_subset_and_shapes():
    d = _dataset(np.arange(24.0).reshape(12, 2))
    assert fit_logistic_batch([]) == []
    [m] = fit_logistic_batch([(d, [])])
    assert _fields(m) == _reference_fit_logistic(d, [])
    with pytest.raises(DimensionMismatch):
        fit_logistic_batch([(d, ["m0"]), (d, [])])


# -- logistic regression: warm starts vs the cold one-model loop -------------------------

#: A converged warm fit stops within ``tol`` (1e-8) of the maximum, as the cold fit
#: does; over 1,600 hypothesis fits their coefficients were at most 2.2e-8 apart
#: and their log-likelihoods 1.1e-15 apart (relative).
WARM_COEF_TOL = 1e-6
WARM_LL_RTOL = 1e-12


@st.composite
def warm_batches(draw):
    """A logistic batch and a start per fit: random, or the cold fit nudged."""
    d, subsets = draw(logistic_batches())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = len(subsets[0]) + 1
    if draw(st.booleans()):
        scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
        starts = [scale * rng.standard_normal(k) for _ in subsets]
    else:
        cold = fit_logistic_batch([(d, s) for s in subsets])
        starts = [np.r_[m.intercept, m.coefficients] + 1e-3 * rng.standard_normal(k) for m in cold]
    return d, subsets, starts


@PROPERTY
@given(warm_batches(), st.sampled_from([25, 3]))
def test_warm_irls_nonconverged_fit_is_the_cold_fit(case, max_iter):
    d, subsets, starts = case
    with mock.patch.object(classifiers, "MAX_ITER", max_iter):
        models = fit_logistic_batch([(d, s) for s in subsets], starts=starts)
    for s, m in zip(subsets, models):
        assert m.metric_names == tuple(s)
        assert all(b >= a for a, b in zip(m.ll_trace, m.ll_trace[1:]))
        if not m.converged:
            assert _fields(m) == _reference_fit_logistic(d, s, max_iter=max_iter)


@PROPERTY
@given(warm_batches())
def test_warm_irls_converged_fit_matches_the_cold_fit(case):
    d, subsets, starts = case
    models = fit_logistic_batch([(d, s) for s in subsets], starts=starts)
    for s, start, m in zip(subsets, starts, models):
        cold = fit_logistic(d, s)
        if not (m.converged and cold.converged):
            continue  # a cold fit that stops short has no maximum to compare with
        # the fit ran from its start, or is the cold refit of a warm run that stopped short
        design = np.column_stack([np.ones(d.n_modules), d.columns(s) if s else np.empty((d.n_modules, 0))])
        assert (m.ll_trace[0] == _reference_log_likelihood(design, d.outcome.astype(np.float64), start)
                or _fields(m) == _reference_fit_logistic(d, s))
        assert abs(m.log_likelihood - cold.log_likelihood) <= WARM_LL_RTOL * max(1.0, abs(cold.log_likelihood))
        if np.linalg.matrix_rank(design) == design.shape[1]:  # else the maximum is a line, not a point
            warm_beta = np.r_[m.intercept, m.coefficients]
            cold_beta = np.r_[cold.intercept, cold.coefficients]
            assert np.max(np.abs(warm_beta - cold_beta)) <= WARM_COEF_TOL


def test_warm_irls_starts_are_checked_and_none_is_cold():
    d = _dataset(np.arange(24.0).reshape(12, 2))
    with pytest.raises(DimensionMismatch):
        fit_logistic_batch([(d, ["m0"])], starts=[np.zeros(3)])
    with pytest.raises(DimensionMismatch):
        fit_logistic_batch([(d, ["m0"]), (d, ["m1"])], starts=[np.zeros(2)])
    # a None start is a cold fit
    [m] = fit_logistic_batch([(d, ["m0"])], starts=[None])
    assert _fields(m) == _reference_fit_logistic(d, ["m0"])


def test_warm_irls_capped_fit_is_refit_cold():
    # separated: a warm start runs into the cap too, and the cold refit is returned
    x = np.linspace(-2.0, 2.0, 40)[:, None]
    d = Dataset(("a",), x, x[:, 0] > 0.05)
    [m] = fit_logistic_batch([(d, ["a"])], starts=[np.array([0.5, 3.0])])
    assert not m.converged
    assert _fields(m) == _reference_fit_logistic(d, ["a"])


def test_warm_irls_stalled_fit_is_refit_cold():
    # two near-clone pairs: a start at the capped full model's coefficients
    # makes the line search cut the Newton steps below tol short of the maximum
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 3))
    x = np.column_stack([x, x[:, 0] + 0.01 * rng.standard_normal(60), x[:, 1] + 0.01 * rng.standard_normal(60)])
    y = rng.random(60) < sigmoid(1.5 * x[:, 0] + 1.5 * x[:, 1])
    d = Dataset(("a", "b", "c", "a2", "b2"), x, y)
    subset = ("a", "c", "a2", "b2")
    full = fit_logistic(d, d.metric_names)
    assert not full.converged and warm_start(full, subset) is None
    start = np.r_[full.intercept, full.coefficients[[0, 2, 3, 4]]]
    [stalled] = classifiers._fit_stacked([(d, subset)], [start])
    assert not stalled.converged
    [m] = fit_logistic_batch([(d, subset)], starts=[start])
    assert _fields(m) == _reference_fit_logistic(d, subset)
    assert _fields(m) != _fields(stalled)


def test_logistic_memo_returns_the_fit_a_fresh_call_makes():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((50, 3))
    d = Dataset(("a", "b", "c"), x, rng.random(50) < sigmoid(x[:, 0]))
    twin = Dataset(d.metric_names, d.rows, d.outcome)
    memo = {}
    cold = fit_logistic_batch([(d, ["a", "b"]), (d, ["a", "c"])], memo=memo)
    for s, m in zip([["a", "b"], ["a", "c"]], cold):
        assert _fields(m) == _reference_fit_logistic(d, s)
    start = np.r_[cold[0].intercept, cold[0].coefficients]
    [warm] = fit_logistic_batch([(d, ["a", "b"])], starts=[start], memo=memo)
    assert len(memo) == 3
    assert _fields(warm) == _fields(fit_logistic(d, ["a", "b"], start=start))
    # the same inputs hit; another start, subset order or dataset object misses
    hits = fit_logistic_batch([(d, ["a", "c"]), (d, ["a", "b"])], memo=memo)
    assert hits[0] is cold[1] and hits[1] is cold[0]
    assert fit_logistic_batch([(d, ["a", "b"])], starts=[start], memo=memo)[0] is warm
    fit_logistic_batch([(d, ["a", "b"])], starts=[start + 1e-9], memo=memo)
    fit_logistic_batch([(d, ["b", "a"])], memo=memo)
    fit_logistic_batch([(twin, ["a", "b"])], memo=memo)
    assert len(memo) == 6
    assert all(entry[0] is d or entry[0] is twin for entry in memo.values())


# -- logistic regression: blocked line search vs the one-halving-at-a-time loop -----------

def _sequential_log_likelihoods(design, y, beta):
    eta = (design @ beta[:, :, None])[:, :, 0]
    return np.sum(y * eta - np.logaddexp(0.0, eta), axis=1), eta


def _sequential_irls(design, y, subsets, beta, warm):
    """The stacked IRLS whose line search tried one halving per evaluation."""
    m = design.shape[0]
    ll, eta = _sequential_log_likelihoods(design, y, beta)
    traces = [[v] for v in ll.tolist()]
    iterations = np.zeros(m, np.int64)
    converged = np.zeros(m, bool)
    capped = np.zeros(m, bool)
    live = np.arange(m)
    for _ in range(classifiers.MAX_ITER):
        if not live.size:
            break
        iterations[live] += 1
        mu = sigmoid(eta[live])
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        design_t = design.transpose(0, 2, 1)
        grad = (design_t @ (y - mu)[:, :, None])[:, :, 0]
        delta = classifiers._newton_steps(design_t @ (design * w[:, :, None]), grad)

        start, start_ll = beta[live], ll[live]
        step = np.ones(live.size)
        todo = np.arange(live.size)
        while todo.size:
            whole = todo.size == live.size
            c = np.clip(start[todo] + step[todo, None] * delta[todo], -COEF_CAP, COEF_CAP)
            c_ll, c_eta = _sequential_log_likelihoods(design if whole else design[todo], y if whole else y[todo], c)
            ok = c_ll >= start_ll[todo]
            moved = live[todo[ok]]
            beta[moved], ll[moved], eta[moved] = c[ok], c_ll[ok], c_eta[ok]
            todo = todo[~ok]
            step[todo] /= 2.0
            todo = todo[step[todo] >= 2.0**-30]
        accepted = step >= 2.0**-30

        moved = live[accepted]
        capped[moved[np.any(np.abs(beta[moved]) >= COEF_CAP, axis=1)]] = True
        small = accepted & (np.max(np.abs(beta[live] - start), axis=1) < classifiers.TOL)
        stalled = warm[live] & (np.max(np.abs(delta), axis=1) >= classifiers.TOL)
        converged[live[small & ~stalled]] = True
        for i in moved.tolist():
            traces[i].append(float(ll[i]))
        keep = accepted & ~small & ~(warm[live] & capped[live])
        if not keep.all():
            live, design, y = live[keep], design[keep], y[keep]
    models = []
    for i, subset in enumerate(subsets):
        coef = beta[i, 1:].copy()
        models.append(classifiers.LogisticModel(
            subset, float(beta[i, 0]), coef, float(ll[i]),
            bool(converged[i] and not capped[i]), int(iterations[i]), tuple(traces[i]),
        ))
    return models


def _parent_start(parent, subset) -> np.ndarray:
    """The start a wrapper takes from a larger fit, taken here whether or not
    the parent converged: its intercept and its coefficient of each metric."""
    coef = dict(zip(parent.metric_names, parent.coefficients.tolist()))
    return np.array([parent.intercept] + [coef.get(name, 0.0) for name in subset])


@st.composite
def line_search_stacks(draw):
    """1-12 fits of one width on data with near-clone pairs or a separating
    metric, each cold or warm from a converged or a capped larger fit."""
    n = draw(st.integers(20, 120))
    pairs = draw(st.integers(1, 3))
    sd = draw(st.sampled_from([1e-2, 1e-3, 1e-4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((n, pairs + 1))
    clones = base[:, :pairs] + sd * rng.standard_normal((n, pairs))
    x = np.column_stack([base, clones])
    if draw(st.booleans()):
        y = x[:, 0] > 0.1
    else:
        y = rng.random(n) < sigmoid(1.5 * x[:, 0] + 1.5 * x[:, pairs])
    y[:2] = (True, False)
    d = Dataset(tuple(f"m{i}" for i in range(x.shape[1])), x, y)
    width = draw(st.integers(1, x.shape[1] - 1))
    fits, starts = [], []
    for _ in range(draw(st.integers(1, 12))):
        order = draw(st.permutations(d.metric_names))
        subset = tuple(order[:width])
        kind = draw(st.sampled_from(["cold", "converged", "capped"]))
        start = None
        if kind != "cold":
            parents = [fit_logistic(d, order[:width + 1]), fit_logistic(d, (*subset, "m0") if "m0" not in subset else subset)]
            pick = [p for p in parents if p.converged == (kind == "converged")]
            if pick:
                start = _parent_start(pick[0], subset)
        fits.append((d, subset))
        starts.append(start)
    return fits, starts


@PROPERTY
@given(line_search_stacks())
def test_blocked_line_search_matches_the_sequential_one(case):
    fits, starts = case
    models = classifiers._fit_stacked(fits, starts)
    with mock.patch.object(classifiers, "_irls", _sequential_irls):
        expected = classifiers._fit_stacked(fits, starts)
    for m, e in zip(models, expected):
        assert m.metric_names == e.metric_names
        assert m.coefficients.tobytes() == e.coefficients.tobytes()
        assert (m.intercept, m.log_likelihood, m.ll_trace) == (e.intercept, e.log_likelihood, e.ll_trace)
        assert (m.iterations_used, m.converged) == (e.iterations_used, e.converged)


def test_a_refused_line_search_tries_its_30_halvings_in_five_evaluations(monkeypatch):
    # a near-clone pair: the fit runs into COEF_CAP, where every step is refused
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 2))
    x = np.column_stack([x, x[:, 0] + 1e-4 * rng.standard_normal(60)])
    d = Dataset(("a", "b", "a2"), x, rng.random(60) < sigmoid(1.5 * x[:, 0] + x[:, 1]))
    real, blocks = classifiers._log_likelihoods, []

    def spy(design, y, c):
        blocks.append(c.shape[1])
        return real(design, y, c)

    monkeypatch.setattr(classifiers, "_log_likelihoods", spy)
    m = fit_logistic(d, d.metric_names)
    assert np.max(np.abs(m.coefficients)) == COEF_CAP and not m.converged
    assert m.iterations_used == len(m.ll_trace)  # its last iteration was refused
    assert blocks[-6:] == [1, 1, 2, 4, 8, 15]
    monkeypatch.undo()
    with mock.patch.object(classifiers, "_irls", _sequential_irls):
        assert _fields(fit_logistic(d, d.metric_names)) == _fields(m)


def test_sigmoid_matches_two_branch_form():
    rng = np.random.default_rng(2)
    eta = np.concatenate([
        rng.standard_normal(500) * 40,
        [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 750.0, -750.0, np.inf, -np.inf],
    ])
    assert sigmoid(eta).tobytes() == _sigmoid_two_branch(eta).tobytes()
    assert sigmoid(eta.reshape(51, 10)).tobytes() == _sigmoid_two_branch(eta).tobytes()


# -- RFE: one descending pass vs the path-then-scoring loops -----------------------------

def _two_loop_select_rfe(train: Dataset, backend: str, config: SelectorConfig) -> list[str]:
    """RFE as two loops: grow the elimination path down to size 1, then
    score the sizes asked for, largest first."""
    if backend not in ("LR", "RF"):
        raise UnsupportedSelector(f"RFE backend must be LR or RF, got {backend!r}")
    selectors._require_supervised(train)
    seed = config.base_seed
    p = train.n_metrics
    names = list(train.metric_names)
    sizes = [s for s in config.rfe_sizes or range(1, p + 1) if s <= p]
    if not sizes:
        raise ConfigError("rfe_sizes contains no size in 1..p")

    path: dict[int, list[str]] = {p: names.copy()}
    current = names.copy()
    model = None
    while len(current) > 1:
        if backend == "LR":
            start = None if model is None else warm_start(model, current)
            model = selectors.fit_logistic(train, current, start=start)
        else:
            model = selectors.fit_random_forest(
                train, current, ntree=config.rfe_ntree, seed=derive_seed(seed, 1, len(current))
            )
        scores = importance(model, train)
        drop = min(reversed(current), key=scores.__getitem__)
        current.remove(drop)
        path[len(current)] = current.copy()

    splits = []
    for r in range(config.rfe_resamples):
        split = bootstrap_sample(train, derive_seed(seed, 2, r))
        if split.train.has_both_classes():
            splits.append((r, split))

    mean_auc: dict[int, float] = {}
    models = None
    for size in sorted(set(sizes), reverse=True):
        subset = path[size]
        if backend == "LR":
            starts = None if models is None else [warm_start(m, subset) for m in models]
            models = selectors.fit_logistic_batch([(split.train, subset) for _, split in splits], starts=starts)
        else:
            models = [
                selectors.fit_random_forest(
                    split.train, subset, ntree=config.rfe_ntree, seed=derive_seed(seed, 3, size, r)
                )
                for r, split in splits
            ]
        vals = []
        for model, (_, split) in zip(models, splits):
            try:
                vals.append(auc(score_rows(model, split.test), split.test.outcome))
            except SingleClass:
                continue
        mean_auc[size] = float(np.mean(vals)) if vals else 0.5

    best_size = max(sizes, key=lambda s: (mean_auc[s], -s))
    return path[best_size]


def _spy_rfe_fits(monkeypatch) -> list[tuple]:
    """Patch the fits ``corrsel.selectors`` makes to record each one: its
    data, its subset, and its start bytes (logistic) or its seed (forest)."""
    fits = []

    def key(d: Dataset, subset) -> tuple:
        return d.rows.tobytes(), d.outcome.tobytes(), tuple(subset)

    def fit_logistic_spy(d, subset, start=None):
        fits.append(("logistic", *key(d, subset), None if start is None else start.tobytes()))
        return fit_logistic(d, subset, start=start)

    def fit_logistic_batch_spy(pairs, starts=None):
        for (d, subset), start in zip(pairs, starts or [None] * len(pairs)):
            fits.append(("logistic", *key(d, subset), None if start is None else start.tobytes()))
        return fit_logistic_batch(pairs, starts=starts)

    def fit_random_forest_spy(d, subset, ntree, seed):
        fits.append(("forest", *key(d, subset), ntree, seed))
        return fit_random_forest(d, subset, ntree=ntree, seed=seed)

    monkeypatch.setattr(selectors, "fit_logistic", fit_logistic_spy)
    monkeypatch.setattr(selectors, "fit_logistic_batch", fit_logistic_batch_spy)
    monkeypatch.setattr(selectors, "fit_random_forest", fit_random_forest_spy)
    return fits


@st.composite
def rfe_cases(draw):
    n = draw(st.integers(30, 90))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    if p > 1 and draw(st.booleans()):
        x[:, -1] = x[:, 0] + draw(st.sampled_from([0.01, 0.3])) * rng.standard_normal(n)
    y = rng.random(n) < sigmoid(x @ rng.normal(0.0, 1.5, p))
    y[:2] = [True, False]
    sizes = draw(st.none() | st.lists(st.integers(1, p + 2), max_size=4))
    config = SelectorConfig(
        base_seed=draw(st.integers(0, 2**31)),
        rfe_resamples=draw(st.integers(1, 4)),
        rfe_sizes=None if sizes is None else tuple(sizes),
        rfe_ntree=draw(st.integers(1, 6)),
    )
    return Dataset(tuple(f"m{i}" for i in range(p)), x, y), config


@pytest.mark.parametrize("backend", ["LR", "RF"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=rfe_cases())
def test_rfe_one_pass_selects_as_the_two_loops_with_the_same_fits(backend, case):
    d, config = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        fits = _spy_rfe_fits(monkeypatch)
        try:
            want = _two_loop_select_rfe(d, backend, config)
        except ConfigError:
            want = ConfigError
        want_fits, fits[:] = fits[:], []
        try:
            got = select_rfe(d, backend, config)
        except ConfigError:
            got = ConfigError
    assert got == want
    # the two loops grow the path on down to size 1; the one pass stops at
    # the smallest size in range, m, and makes every other fit they make
    m = min([s for s in config.rfe_sizes or [1] if s <= d.n_metrics], default=1)
    below = [f for f in want_fits if f[1:3] == (d.rows.tobytes(), d.outcome.tobytes()) and len(f[3]) <= m]
    assert Counter(fits) == Counter(want_fits) - Counter(below)
    assert len(below) == m - 1 if got is not ConfigError else not want_fits


@pytest.mark.parametrize("backend", ["LR", "RF"])
def test_rfe_path_stops_at_the_smallest_size_scored(backend, monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((120, 6))
    d = Dataset(tuple(f"m{i}" for i in range(6)), x, rng.random(120) < sigmoid(2 * x[:, 0]))
    fits = _spy_rfe_fits(monkeypatch)
    select_rfe(d, backend, SelectorConfig(rfe_sizes=(5, 3, 9), rfe_resamples=2, rfe_ntree=5))
    path = [f for f in fits if f[1] == d.rows.tobytes() and f[2] == d.outcome.tobytes()]
    assert [len(f[3]) for f in path] == [6, 5, 4]  # p - m = 6 - 3 fits, one per size above 3


# -- inconsistency rate: folded integer keys vs np.unique(axis=0) ------------------------

def _reference_inconsistency_rate(labels: np.ndarray, y: np.ndarray) -> float:
    _, inverse = np.unique(labels, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    mismatched = 0
    for g in range(inverse.max() + 1):
        in_group = inverse == g
        count = int(np.count_nonzero(in_group))
        pos = int(np.count_nonzero(y[in_group]))
        mismatched += count - max(pos, count - pos)
    return mismatched / y.size


def _con_labels(x: np.ndarray, bins: int) -> np.ndarray:
    """Each column's labels as CON bins them: at most one bin per row, never fewer than 2."""
    eff_bins = max(2, min(bins, x.shape[0]))
    return np.column_stack([discretize_equal_frequency(col, eff_bins) for col in x.T])


@st.composite
def pattern_cases(draw):
    n = draw(st.integers(1, 60))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, draw(st.integers(1, 6)), size=(n, p)).astype(float)  # many ties
    if draw(st.booleans()):
        x[:, draw(st.integers(0, p - 1))] = 3.5  # a constant column
    if p > 1 and draw(st.booleans()):
        x[:, 1] = x[:, 0]
    y = rng.random(n) < 0.4
    bins = max(2, draw(st.sampled_from([2, 3, 10, n, n + 5])))
    # one row cannot be binned; its integer values serve as labels
    labels = _con_labels(x, bins) if n >= 2 else x.astype(np.int64)
    k = draw(st.integers(0, p))
    columns = list(draw(st.permutations(range(p)))[:k])
    return labels[:, columns], y


@PROPERTY
@given(pattern_cases())
def test_inconsistency_rate_matches_unique_rows(case):
    labels, y = case
    assert inconsistency_rate(labels, y) == _reference_inconsistency_rate(labels, y)


def test_inconsistency_rate_many_columns_recompress():
    # 40 ten-bin columns span 10**40 patterns, far past an int64 key
    rng = np.random.default_rng(6)
    labels = _con_labels(rng.standard_normal((300, 40)), 10)
    y = rng.random(300) < 0.3
    for k in (1, 2, 3, 20, 40):
        assert inconsistency_rate(labels[:, :k], y) == _reference_inconsistency_rate(labels[:, :k], y)


# -- IG and chi-squared: one bincount table vs a loop over the bins ----------------------

def _reference_entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _reference_information_gain(labels: np.ndarray, y: np.ndarray) -> float:
    n = y.size
    h_outcome = _reference_entropy(np.array([np.count_nonzero(y), n - np.count_nonzero(y)]))
    cond = 0.0
    for b in np.unique(labels):
        in_bin = labels == b
        nb = int(np.count_nonzero(in_bin))
        pos = int(np.count_nonzero(y[in_bin]))
        cond += (nb / n) * _reference_entropy(np.array([pos, nb - pos]))
    return max(0.0, h_outcome - cond)


def _reference_chi_squared(labels: np.ndarray, y: np.ndarray) -> float:
    uniq = np.unique(labels)
    observed = np.zeros((uniq.size, 2))
    for i, b in enumerate(uniq):
        in_bin = labels == b
        observed[i, 0] = np.count_nonzero(y[in_bin])
        observed[i, 1] = np.count_nonzero(in_bin) - observed[i, 0]
    expected = observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True) / y.size
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


@st.composite
def label_cases(draw):
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # one bin, a few tie-heavy bins, or many bins with gaps between the used ones
    values = draw(st.sampled_from([[0], [0, 1, 2], [0, 3, 7], list(range(0, 40, 3))]))
    labels = rng.choice(np.array(values, np.int64), size=n, p=rng.dirichlet(np.ones(len(values))))
    y = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.4, 1.0]))  # single-class too
    return labels, y


@PROPERTY
@given(label_cases())
def test_ig_and_chi_squared_match_the_per_bin_loop(case):
    labels, y = case
    assert information_gain(labels, y) == _reference_information_gain(labels, y)
    assert chi_squared(labels, y) == _reference_chi_squared(labels, y)


# -- load_csv: one np.loadtxt call vs the per-cell loop ----------------------------------

_CLEAN_METRIC_FORMS = ("repr", "int", "exp", "padded")
_OUTCOME_VOCABULARIES = (("0", "1"), ("clean", "defective"))
#: cells float() or the outcome check reads but np.loadtxt does not: the per-cell loop must
#: take these files and accept them
_ODD_CELLS = {
    "metric": ('"7"', '"-2.5"', "1_000", "٣", "\u20037"),
    "outcome": ('"1"', '"clean"', '" 0"'),
}
_BAD_CELLS = {
    "metric": ("nan", "inf", "-inf", "1e400", "", " ", "x", "0x10", "1,5"),
    "outcome": ("2", "0.0", "yes", "", "1 1", "true"),
}


@st.composite
def _metric_cell(draw) -> str:
    value = draw(st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False))
    form = draw(st.sampled_from(_CLEAN_METRIC_FORMS))
    if form == "int":
        return str(int(value))
    if form == "exp":
        return f"{value:.6e}"
    text = repr(value)
    return f" {text}\t" if form == "padded" else text


@st.composite
def _outcome_cell(draw, vocabulary) -> str:
    token = vocabulary[draw(st.integers(0, 1))]
    token = draw(st.sampled_from([token, token.upper(), token.capitalize()]))
    return draw(st.sampled_from(["", " ", "\t"])) + token + draw(st.sampled_from(["", " "]))


@st.composite
def csv_texts(draw, faults=()) -> str:
    """A CSV with the outcome column ``bug`` anywhere, with each of ``faults`` planted once:
    an ``odd`` cell the per-cell loop accepts, a ``bad`` cell, a ``short`` or ``long``
    row, or a ``whitespace``-only line."""
    p = draw(st.integers(1, 4))
    out_idx = draw(st.integers(0, p))
    header = [f"m{i}" for i in range(p)]
    header.insert(out_idx, "bug")
    vocabulary = draw(st.sampled_from(_OUTCOME_VOCABULARIES))
    rows = [
        [draw(_outcome_cell(vocabulary)) if j == out_idx else draw(_metric_cell()) for j in range(p + 1)]
        for _ in range(draw(st.integers(1, 6)))
    ]
    for fault in faults:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("1")
        elif fault == "whitespace":
            rows.insert(draw(st.integers(0, len(rows))), [" "])
        else:
            j = draw(st.integers(0, len(row) - 1))
            pool = (_ODD_CELLS if fault == "odd" else _BAD_CELLS)["outcome" if j == out_idx else "metric"]
            row[j] = draw(st.sampled_from(pool))
    lines = [",".join(draw(st.sampled_from(["", " "])) + h for h in header)]
    for row in rows:
        lines.append(",".join(row))
        if draw(st.integers(0, 4)) == 4:
            lines.append("")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _load(fn):
    try:
        return fn()
    except CorrselError as exc:
        return type(exc), str(exc)


def _write_csv_text(directory, text: str, bom: bool):
    path = directory / "data.csv"
    path.write_bytes(("\ufeff" if bom else "").encode() + text.encode("utf-8"))
    return path


def _per_cell_loop(path):
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return _load(lambda: data._parse_cells(fh, path, "bug"))


def _assert_same_load(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want  # the same error type, row, column and message
    else:
        assert got.metric_names == want.metric_names
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.outcome.tolist() == want.outcome.tolist()


@pytest.mark.parametrize(
    "faults",
    [(), ("odd",), ("bad",), ("short",), ("long",), ("whitespace",), ("odd", "bad")],
    ids=lambda faults: "+".join(faults) or "none",
)
def test_load_csv_matches_per_cell_loop(tmp_path_factory, faults):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(csv_texts(faults), st.booleans())
    def check(text, bom):
        path = _write_csv_text(tmp_path_factory.getbasetemp(), text, bom)
        _assert_same_load(_load(lambda: load_csv(path, "bug")), _per_cell_loop(path))

    check()


@PROPERTY
@given(csv_texts(), st.booleans())
def test_load_csv_reads_clean_files_in_one_call(tmp_path_factory, text, bom):
    path = _write_csv_text(tmp_path_factory.getbasetemp(), text, bom)
    want = _per_cell_loop(path)
    with mock.patch.object(data, "_parse_cells", side_effect=AssertionError("per-cell loop ran")):
        _assert_same_load(load_csv(path, "bug"), want)
