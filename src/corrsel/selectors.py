"""The baseline feature-selection techniques behind one dispatch interface.

Four filter-based techniques (CFS, information gain, chi-squared,
consistency-based), five wrapper-based ones (RFE with logistic or forest
backends, stepwise regression in three directions), plus the correlation
based eliminator, all taking a training sample and returning an ordered
list of metric names. Every selector is deterministic given
(train, config), its one seed being ``config.base_seed``, and the
supervised ones read only the training sample handed to them.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

import numpy as np

from .autospearman import AutoSpearmanParams, MetricSubset, auto_spearman
from .classifiers import (
    LogisticModel,
    fit_logistic,
    fit_logistic_batch,
    fit_random_forest,
    importance,
    score_rows,
    warm_start,
)
from .data import Dataset, bootstrap_sample
from .errors import (
    ConfigError,
    DegenerateOutcome,
    SingleClass,
    UnsupportedSelector,
)
from .evaluation import auc
from .seeding import DEFAULT_SEED, derive_seed
from .stats import (
    aic,
    chi_squared,
    discretize_equal_frequency,
    inconsistency_rate,
    information_gain,
    spearman_matrix,  # unused here; bench/tracer.py binds corrsel.selectors.spearman_matrix
    spearman_of,
)


class SelectorId(enum.Enum):
    CFS = "CFS"
    IG = "IG"
    CHISQ = "Chisq"
    CON = "CON"
    RFE_LR = "RFE-LR"
    RFE_RF = "RFE-RF"
    STEP_FWD = "Step-FWD"
    STEP_BWD = "Step-BWD"
    STEP_BOTH = "Step-BOTH"
    AUTOSPEARMAN = "AutoSpearman"


def parse_selector(text: str) -> SelectorId:
    """Case-insensitive lookup by abbreviation; '-' and '_' are interchangeable."""
    wanted = text.strip().lower().replace("_", "-")
    for sel in SelectorId:
        if sel.value.lower().replace("_", "-") == wanted:
            return sel
    valid = ", ".join(s.value for s in SelectorId)
    raise UnsupportedSelector(f"unknown selector {text!r}; valid: {valid}")


@dataclass(frozen=True)
class SelectorConfig:
    """Every selector setting, the thresholds and base seed included,
    checked when built; an experiment config holds one."""

    bins: int = 10
    ranking_rule: str = "positive"  # "positive" | "top_k"
    ranking_top_k: int | None = None
    rfe_resamples: int = 10
    rfe_sizes: tuple[int, ...] | None = None  # default 1..p
    rfe_ntree: int = 100
    stepwise_max_steps: int | None = None  # default 2p + 1
    stall_limit: int = 5
    base_seed: int = DEFAULT_SEED
    sp_t: float = AutoSpearmanParams.sp_t
    vif_t: float = AutoSpearmanParams.vif_t

    def __post_init__(self):
        if self.rfe_sizes is not None:
            object.__setattr__(self, "rfe_sizes", tuple(self.rfe_sizes) or None)
        if self.bins < 2:
            raise ConfigError("bins must be >= 2")
        AutoSpearmanParams(self.sp_t, self.vif_t)
        if self.ranking_rule not in ("positive", "top_k"):
            raise ConfigError(f"unknown ranking_rule {self.ranking_rule!r}")
        if self.ranking_rule == "top_k" and (self.ranking_top_k or 0) < 1:
            raise ConfigError("ranking_top_k must be >= 1 for the top_k rule")
        if self.rfe_resamples < 1 or self.rfe_ntree < 1 or self.stall_limit < 1:
            raise ConfigError("counts must be >= 1")
        if self.stepwise_max_steps is not None and self.stepwise_max_steps < 1:
            raise ConfigError("stepwise_max_steps must be >= 1")
        if any(size < 1 for size in self.rfe_sizes or ()):
            raise ConfigError(f"rfe_sizes must be >= 1, got {list(self.rfe_sizes)}")


def _require_supervised(train: Dataset) -> None:
    if not train.has_both_classes():
        raise DegenerateOutcome("selector needs both outcome classes in the training sample")


def _in_column_order(train: Dataset, names) -> MetricSubset:
    wanted = set(names)
    return [n for n in train.metric_names if n in wanted]


# -- ranking filters ---------------------------------------------------------

def _discretized(train: Dataset, config: SelectorConfig) -> np.ndarray:
    """The n x p labels of every metric of ``train``, in ``config.bins``
    bins, but at most one bin per row and never fewer than 2."""
    bins = max(2, min(config.bins, train.n_modules))
    return np.column_stack([discretize_equal_frequency(train.column(name), bins) for name in train.metric_names])


def _discrete_scores(train: Dataset, config: SelectorConfig, scorer) -> dict[str, float]:
    labels = _discretized(train, config)
    return {name: scorer(labels[:, i], train.outcome) for i, name in enumerate(train.metric_names)}


def _apply_cutoff(train: Dataset, scores: dict[str, float], config: SelectorConfig) -> MetricSubset:
    # descending score; the sort is stable, so ties keep column order
    ranked = sorted(train.metric_names, key=lambda n: -scores[n])
    if config.ranking_rule == "top_k":
        k = min(config.ranking_top_k, len(ranked))
        return ranked[:k]
    return [n for n in ranked if scores[n] > 0.0]


def select_ig(train: Dataset, config: SelectorConfig = SelectorConfig()) -> MetricSubset:
    """Information-gain ranking filter, output ordered by descending score."""
    _require_supervised(train)
    return _apply_cutoff(train, _discrete_scores(train, config, information_gain), config)


def select_chisq(train: Dataset, config: SelectorConfig = SelectorConfig()) -> MetricSubset:
    """Chi-squared ranking filter, output ordered by descending score."""
    _require_supervised(train)
    return _apply_cutoff(train, _discrete_scores(train, config, chi_squared), config)


# -- CFS ---------------------------------------------------------------------

def _cfs_merit(members: tuple[int, ...], corr_out: np.ndarray, corr_ff: np.ndarray) -> float:
    k = len(members)
    if k == 0:
        return 0.0
    m = list(members)
    r_cf = float(np.mean(corr_out[m]))
    if k == 1:
        return r_cf
    r_ff = float(np.mean(corr_ff[np.ix_(m, m)][np.triu_indices(k, 1)]))
    return k * r_cf / np.sqrt(k + k * (k - 1) * r_ff)


def _best_first(p: int, score_fn, stall_limit: int):
    """Best-first subset search by single-metric addition.

    Expands the highest-scoring open node; stops after ``stall_limit``
    consecutive expansions that fail to improve on the best score seen.
    Returns the best-scoring subset visited, as sorted indices; the first wins ties.
    """
    start: tuple[int, ...] = ()
    best, best_score = start, score_fn(start)
    seen = {start}
    open_heap = [(-best_score, start)]
    stall = 0
    while open_heap and stall < stall_limit:
        _, node = heapq.heappop(open_heap)
        improved = False
        for m in range(p):
            if m in node:
                continue
            child = tuple(sorted(node + (m,)))
            if child in seen:
                continue
            seen.add(child)
            s = score_fn(child)
            heapq.heappush(open_heap, (-s, child))
            if s > best_score:
                best, best_score = child, s
                improved = True
        stall = 0 if improved else stall + 1
    return best, best_score


def select_cfs(train: Dataset, config: SelectorConfig = SelectorConfig()) -> MetricSubset:
    """Correlation-based subset search: strong association with the outcome,
    weak correlation within the subset, scored by the standard merit formula."""
    _require_supervised(train)
    p = train.n_metrics
    rho = np.abs(spearman_of(np.column_stack([train.rows, train.outcome])))
    corr_out, corr_ff = rho[:p, p], rho[:p, :p]
    best, _ = _best_first(
        p,
        lambda members: _cfs_merit(members, corr_out, corr_ff),
        config.stall_limit,
    )
    return [train.metric_names[i] for i in best]


# -- consistency-based -------------------------------------------------------

def select_consistency(train: Dataset, config: SelectorConfig = SelectorConfig()) -> MetricSubset:
    """Smallest subset whose inconsistency rate matches the full metric set."""
    _require_supervised(train)
    names = train.metric_names
    labels = _discretized(train, config)  # once per call
    cache: dict[tuple[int, ...], float] = {}

    def rate(members: tuple[int, ...]) -> float:
        if members not in cache:
            cache[members] = inconsistency_rate(labels[:, list(members)], train.outcome)
        return cache[members]

    target = rate(tuple(range(len(names)))) + 1e-9
    _best_first(len(names), lambda m: -rate(m), config.stall_limit)
    qualifying = [m for m, r in cache.items() if r <= target]
    best = min(qualifying, key=lambda m: (len(m), rate(m), m))
    return [names[i] for i in best]


# -- recursive feature elimination -------------------------------------------

def select_rfe(
    train: Dataset,
    backend: str = "LR",
    config: SelectorConfig = SelectorConfig(),
) -> MetricSubset:
    """Recursive elimination of the least important metric.

    One pass walks the sizes from p down to the smallest size in range. At
    each size asked for, the current subset is scored by mean out-of-sample
    bootstrap AUC of the training sample only, and the best size wins
    (smaller on ties); above the smallest size, a model on the full training
    sample drops its least important metric, so the elimination stops at the
    smallest size in range. The forests and resamples are seeded from
    ``config.base_seed``.

    With the LR backend each path fit starts from the previous path model,
    and each resample's fit starts from its fit at the last larger size
    scored.
    """
    if backend not in ("LR", "RF"):
        raise UnsupportedSelector(f"RFE backend must be LR or RF, got {backend!r}")
    _require_supervised(train)
    seed = config.base_seed
    p = train.n_metrics
    sizes = {s for s in config.rfe_sizes or range(1, p + 1) if s <= p}
    if not sizes:
        raise ConfigError("rfe_sizes contains no size in 1..p")

    splits = []  # (resample index, split) of the resamples whose training side has both classes
    for r in range(config.rfe_resamples):
        split = bootstrap_sample(train, derive_seed(seed, 2, r))
        if split.train.has_both_classes():
            splits.append((r, split))

    current = list(train.metric_names)
    best = None  # ((mean AUC, -size), subset) of the best size scored so far
    path_model = models = None  # models: each resample's model at the last size scored
    for size in range(p, min(sizes) - 1, -1):
        if size in sizes:
            if backend == "LR":
                starts = None if models is None else [warm_start(m, current) for m in models]
                models = fit_logistic_batch([(split.train, current) for _, split in splits], starts=starts)
            else:
                models = [
                    fit_random_forest(split.train, current, ntree=config.rfe_ntree, seed=derive_seed(seed, 3, size, r))
                    for r, split in splits
                ]
            vals = []
            for model, (_, split) in zip(models, splits):
                try:
                    vals.append(auc(score_rows(model, split.test), split.test.outcome))
                except SingleClass:
                    continue
            key = (float(np.mean(vals)) if vals else 0.5, -size)
            if best is None or key > best[0]:
                best = (key, current.copy())
        if size > min(sizes):
            if backend == "LR":
                start = None if path_model is None else warm_start(path_model, current)
                path_model = fit_logistic(train, current, start=start)
            else:
                path_model = fit_random_forest(train, current, ntree=config.rfe_ntree, seed=derive_seed(seed, 1, size))
            scores = importance(path_model, train)
            # lowest importance leaves; ``current`` keeps column order, so
            # scanning it reversed drops the later column on ties
            current.remove(min(reversed(current), key=scores.__getitem__))
    return best[1]


# -- stepwise regression ------------------------------------------------------

def select_stepwise(
    train: Dataset,
    direction: str = "FWD",
    config: SelectorConfig = SelectorConfig(),
    memo: dict | None = None,
) -> MetricSubset:
    """Greedy AIC search over logistic models.

    FWD starts from the intercept-only model and adds; BWD starts from the
    full model and drops; BOTH starts empty and considers both moves. A move
    is taken only when it strictly lowers AIC. Each candidate is fit from the
    current model's coefficients, with an added metric at 0 or a removed one
    dropped; ``memo`` is :func:`fit_logistic_batch`'s fit memo.
    """
    if direction not in ("FWD", "BWD", "BOTH"):
        raise UnsupportedSelector(f"stepwise direction must be FWD/BWD/BOTH, got {direction!r}")
    _require_supervised(train)
    names = list(train.metric_names)
    p = len(names)
    max_steps = 2 * p + 1 if config.stepwise_max_steps is None else config.stepwise_max_steps

    cache: dict[frozenset, tuple[float, LogisticModel]] = {}  # subset -> (AIC, model)

    def fit_aics(subsets: list[list[str]], parent: LogisticModel | None = None) -> list[float]:
        """AIC of each subset; the uncached ones (all of one size) are fit in
        one batch, started from ``parent`` when one is given."""
        todo = {frozenset(s): _in_column_order(train, s) for s in subsets if frozenset(s) not in cache}
        starts = None if parent is None else [warm_start(parent, s) for s in todo.values()]
        models = fit_logistic_batch([(train, s) for s in todo.values()], starts=starts, memo=memo)
        for key, model in zip(todo, models):
            cache[key] = (aic(model.log_likelihood, len(key) + 1), model)
        return [cache[frozenset(s)][0] for s in subsets]

    current = names.copy() if direction == "BWD" else []
    [current_aic] = fit_aics([current])
    for _ in range(max_steps):
        parent = cache[frozenset(current)][1]
        moves = []  # additions first, then removals, so AIC ties go as they always have
        if direction in ("FWD", "BOTH"):
            moves.append([current + [m] for m in names if m not in current])
        if direction in ("BWD", "BOTH"):
            moves.append([[x for x in current if x != m] for m in current])
        best_move = None  # (aic, new_subset)
        for cands in moves:
            for a, cand in zip(fit_aics(cands, parent), cands):
                if best_move is None or a < best_move[0]:
                    best_move = (a, cand)
        if best_move is None or best_move[0] >= current_aic:
            break
        current_aic, current = best_move[0], best_move[1]
    return _in_column_order(train, current)


# -- dispatch ------------------------------------------------------------------

def select(
    id: SelectorId,
    train: Dataset,
    config: SelectorConfig = SelectorConfig(),
    memo: dict | None = None,
) -> MetricSubset:
    """Run one selection technique on a training sample, seeded from
    ``config.base_seed``.

    ``memo`` is a logistic fit memo (see :func:`fit_logistic_batch`) that
    the stepwise selectors share; it saves work and never changes a result.
    """
    if id is SelectorId.AUTOSPEARMAN:
        subset, _ = auto_spearman(train, AutoSpearmanParams(config.sp_t, config.vif_t))
        return subset
    if id is SelectorId.CFS:
        return select_cfs(train, config)
    if id is SelectorId.IG:
        return select_ig(train, config)
    if id is SelectorId.CHISQ:
        return select_chisq(train, config)
    if id is SelectorId.CON:
        return select_consistency(train, config)
    if id is SelectorId.RFE_LR:
        return select_rfe(train, "LR", config)
    if id is SelectorId.RFE_RF:
        return select_rfe(train, "RF", config)
    if id is SelectorId.STEP_FWD:
        return select_stepwise(train, "FWD", config, memo)
    if id is SelectorId.STEP_BWD:
        return select_stepwise(train, "BWD", config, memo)
    if id is SelectorId.STEP_BOTH:
        return select_stepwise(train, "BOTH", config, memo)
    raise UnsupportedSelector(str(id))
