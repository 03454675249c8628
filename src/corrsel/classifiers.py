"""Logistic regression (iteratively reweighted least squares) and a bagged
random forest of Gini-split decision trees, plus the importance scores the
wrapper selectors consume.

Both fitters are deterministic: the logistic fit has no randomness and the
forest derives one generator stream per tree from (seed, tree index), so
each tree depends only on its own stream, never on how trees are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, sigmoid
from .errors import ConfigError, DegenerateOutcome, DimensionMismatch

#: Coefficients hitting this magnitude during IRLS indicate separation; they
#: are frozen at the cap and the model is marked non-converged.
COEF_CAP = 30.0

#: IRLS stops after MAX_ITER Newton steps, or on an accepted step that
#: moves no coefficient by TOL or more.
MAX_ITER = 25
TOL = 1e-8

_RIDGE = 1e-8
_PROB_EPS = 1e-15


@dataclass(frozen=True)
class LogisticModel:
    metric_names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    log_likelihood: float
    converged: bool
    iterations_used: int
    ll_trace: tuple[float, ...]  # accepted log-likelihood sequence


#: Working-set budget of one batched logistic fit, in design cells: models
#: are fit max(1, _IRLS_CELLS // (n * k)) at a time for an n x k design.
_IRLS_CELLS = 50_000

#: Working-set budget of one forest batch, in (bag row, metric) cells. Trees
#: are grown max(1, _BATCH_CELLS // (n * p)) at a time and scored in blocks
#: of max(1, _BATCH_CELLS // ntree) rows, so temporaries scale with it, not
#: with ntree.
_BATCH_CELLS = 20_000

#: Low half of a packed (bag count << 32) + defective count. A batch's bag
#: rows number far fewer than 2**31, so neither half of a sum overflows.
_LOW = (1 << 32) - 1


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Trees stored as flat parallel arrays indexed by node id.

    ``trees[t]`` is the root node of tree t. An internal node sends a row to
    ``left`` when its value of metric ``feature`` is below ``threshold`` and
    to ``right`` otherwise, and records the weighted Gini ``decrease`` of its
    split. A leaf has ``feature == -1`` and predicts ``vote``.
    """

    trees: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    vote: np.ndarray
    decrease: np.ndarray
    ntree: int
    mtry: int
    seed: int
    metric_names: tuple[str, ...]


def _log_likelihoods(design: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Log-likelihood and linear predictor of stacked models (design m x n x k)."""
    eta = (design @ beta[:, :, None])[:, :, 0]
    return np.sum(y * eta - np.logaddexp(0.0, eta), axis=1), eta


def _newton_steps(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve each ``hess[i] @ delta[i] = grad[i]``; a model whose Hessian is
    singular or whose step is not finite is solved again alone, with a ridge."""
    try:
        delta = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        redo = np.flatnonzero(~np.isfinite(delta).all(axis=1))
    except np.linalg.LinAlgError:
        delta, redo = np.empty_like(grad), range(len(hess))
    for i in redo:
        try:
            delta[i] = np.linalg.solve(hess[i], grad[i])
        except np.linalg.LinAlgError:
            delta[i] = np.nan
        if not np.all(np.isfinite(delta[i])):
            delta[i] = np.linalg.solve(hess[i] + _RIDGE * np.eye(hess.shape[-1]), grad[i])
    return delta


def _irls(design: np.ndarray, y: np.ndarray, subsets, beta: np.ndarray, warm: np.ndarray):
    """IRLS on stacked designs (m, n, k) with outcomes y (m, n), from the
    coefficients ``beta`` (m, k), which it updates in place.

    Each model halves its own Newton step until the log-likelihood does not
    fall and stops on its own; stopped models leave the stack, and so does a
    ``warm`` model as soon as it is capped (it will be refit cold). A
    ``warm`` model that stops on a step below ``TOL`` which its line search
    cut down from a Newton step of at least ``TOL`` (a stall) reports itself
    not converged, so it is refit cold too; a cold model reports that stop
    as converged.
    """
    m = design.shape[0]
    ll, eta = _log_likelihoods(design, y, beta)
    traces = [[v] for v in ll.tolist()]
    iterations = np.zeros(m, np.int64)
    converged = np.zeros(m, bool)
    capped = np.zeros(m, bool)
    live = np.arange(m)  # the models still iterating; design and y hold only theirs
    for _ in range(MAX_ITER):
        if not live.size:
            break
        iterations[live] += 1
        mu = sigmoid(eta[live])
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        design_t = design.transpose(0, 2, 1)
        grad = (design_t @ (y - mu)[:, :, None])[:, :, 0]
        delta = _newton_steps(design_t @ (design * w[:, :, None]), grad)

        start, start_ll = beta[live], ll[live]
        step = np.ones(live.size)
        todo = np.arange(live.size)
        while todo.size:
            whole = todo.size == live.size
            c = np.clip(start[todo] + step[todo, None] * delta[todo], -COEF_CAP, COEF_CAP)
            c_ll, c_eta = _log_likelihoods(
                design if whole else design[todo], y if whole else y[todo], c
            )
            ok = c_ll >= start_ll[todo]
            moved = live[todo[ok]]
            beta[moved], ll[moved], eta[moved] = c[ok], c_ll[ok], c_eta[ok]
            todo = todo[~ok]
            step[todo] /= 2.0
            todo = todo[step[todo] >= 2.0**-30]
        accepted = step >= 2.0**-30

        moved = live[accepted]
        capped[moved[np.any(np.abs(beta[moved]) >= COEF_CAP, axis=1)]] = True
        small = accepted & (np.max(np.abs(beta[live] - start), axis=1) < TOL)
        stalled = warm[live] & (np.max(np.abs(delta), axis=1) >= TOL)
        converged[live[small & ~stalled]] = True
        for i in moved.tolist():
            traces[i].append(float(ll[i]))
        keep = accepted & ~small & ~(warm[live] & capped[live])
        if not keep.all():
            live, design, y = live[keep], design[keep], y[keep]
    models = []
    for i, subset in enumerate(subsets):
        coef = beta[i, 1:].copy()
        coef.flags.writeable = False
        models.append(LogisticModel(
            subset, float(beta[i, 0]), coef, float(ll[i]),
            bool(converged[i] and not capped[i]), int(iterations[i]), tuple(traces[i]),
        ))
    return models


def _fit_stacked(fits, starts):
    """IRLS of every (dataset, subset) pair of one design shape, each from
    its entry of ``starts`` (a k-vector, intercept first) or, where that is
    None, from zero. Designs are stacked max(1, _IRLS_CELLS // (n * k)) at a
    time."""
    n, k = fits[0][0].n_modules, len(fits[0][1]) + 1
    per_chunk = max(1, _IRLS_CELLS // (n * k))
    models = []
    for lo in range(0, len(fits), per_chunk):
        chunk = fits[lo:lo + per_chunk]
        # BLAS rounds differently per memory layout, so each design keeps a
        # lone fit's: np.column_stack([ones, d.columns(subset)]) is
        # Fortran-ordered from two metrics on
        if k >= 3:
            design = np.ones((len(chunk), k, n)).transpose(0, 2, 1)
        else:
            design = np.ones((len(chunk), n, k))
        beta = np.zeros((len(chunk), k))
        warm = np.zeros(len(chunk), bool)
        for i, ((d, subset), start) in enumerate(zip(chunk, starts[lo:lo + per_chunk])):
            if subset:
                design[i, :, 1:] = d.columns(subset)
            if start is not None:
                beta[i], warm[i] = start, True
        y = np.array([d.outcome for d, _ in chunk], dtype=np.float64)
        models += _irls(design, y, [subset for _, subset in chunk], beta, warm)
    return models


def fit_logistic_batch(fits, starts=None, memo: dict | None = None) -> list[LogisticModel]:
    """:func:`fit_logistic` of every (dataset, subset) pair, fit together.

    All pairs need the same row count and subset width. Each model's
    arithmetic is a lone fit's, so no model depends on what it was stacked
    with.

    ``starts`` gives each fit its first coefficients, intercept first, or
    None to start it from zero, as every fit does without ``starts``. Every
    warm-started model that does not converge is refit from zero, so it is
    exactly the cold fit; a warm model that is capped at COEF_CAP, or that
    stops only because its line search shrank the step below ``TOL``, counts
    as not converged. One that converges stops within ``TOL`` of the cold
    fit's maximum.

    ``memo`` maps the exact inputs of a fit -- dataset, ordered subset and
    start -- to its model, so a repeated fit is returned, not redone. An
    entry holds its dataset, whose ``id`` keys it.
    """
    fits = [(d, tuple(subset)) for d, subset in fits]
    if not fits:
        return []
    n, k = fits[0][0].n_modules, len(fits[0][1]) + 1
    for d, subset in fits:
        if not d.has_both_classes():
            raise DegenerateOutcome("logistic fit needs both outcome classes")
        if (d.n_modules, len(subset) + 1) != (n, k):
            raise DimensionMismatch("batched logistic fits need designs of one shape")
    starts = [None] * len(fits) if starts is None else [
        None if s is None else np.asarray(s, dtype=np.float64) for s in starts
    ]
    if len(starts) != len(fits) or any(s is not None and s.shape != (k,) for s in starts):
        raise DimensionMismatch(f"need one start of {k} coefficients, or None, per fit")
    memo = {} if memo is None else memo
    keys = [
        (id(d), subset, None if start is None else start.tobytes())
        for (d, subset), start in zip(fits, starts)
    ]
    todo = [i for i, key in enumerate(keys) if key not in memo]
    if todo:
        fitted = dict(zip(todo, _fit_stacked([fits[i] for i in todo], [starts[i] for i in todo])))
        redo = [i for i in todo if starts[i] is not None and not fitted[i].converged]
        if redo:
            fitted.update(zip(redo, _fit_stacked([fits[i] for i in redo], [None] * len(redo))))
        for i, model in fitted.items():
            memo[keys[i]] = (fits[i][0], model)
    return [memo[key][1] for key in keys]


def warm_start(model: LogisticModel, subset) -> np.ndarray | None:
    """Start coefficients for ``subset`` from a fitted ``model``: its
    intercept, its coefficient of each metric it has, and 0 for the rest.
    None (start from zero) when ``model`` did not converge: a capped or
    stopped-short model is no maximum to start near."""
    if not model.converged:
        return None
    coef = dict(zip(model.metric_names, model.coefficients.tolist()))
    return np.array([model.intercept] + [coef.get(name, 0.0) for name in subset])


def fit_logistic(d: Dataset, subset, start=None, memo: dict | None = None) -> LogisticModel:
    """Binomial maximum likelihood by IRLS with an intercept.

    The accepted log-likelihood sequence is non-decreasing (step halving on
    any decrease). Near-singular weighted designs get a small ridge term.
    Separation is handled by freezing runaway coefficients at +/-COEF_CAP
    and reporting converged=False, which keeps the log-likelihood finite
    for AIC-based search. An empty subset fits the intercept alone.
    ``start`` and ``memo`` are as in :func:`fit_logistic_batch`.
    """
    return fit_logistic_batch([(d, subset)], [start], memo)[0]


def _best_cuts(seq, xb, packed, starts, widths, size, pos, feats):
    """Lowest weighted-Gini cut of each node over its candidate metrics.

    Node k owns positions ``starts[k]:starts[k] + widths[k]`` of every row
    of ``seq`` (distinct bag rows sorted by metric f within each node, in
    row f), holds ``size[k]`` bag rows counted with their bag counts,
    ``pos[k]`` of them defective, and tries the metrics ``feats[k]`` in
    order. ``packed[r]`` is row r's bag count << 32 plus its defective
    count, so one cumulative sum gives both of a cut's left counts. Ties go
    to the earlier candidate, then to the earlier cut. Returns, per node:
    the weighted child Gini (inf when no candidate has a cut), the metric,
    the midpoint threshold, and the left child's distinct rows, size and
    defects.
    """
    k_count = feats.shape[0]
    node = np.repeat(np.arange(k_count), widths)
    first = np.cumsum(widths) - widths
    at = np.arange(node.size) + np.repeat(starts - first, widths)
    f = feats.T[:, node]
    rows = seq[f, at]
    v = xb[rows, f]
    cum = np.cumsum(packed[rows], axis=1)
    before = cum[:, first] - packed[rows[:, first]]
    s, i = np.nonzero((v[:, :-1] != v[:, 1:]) & (node[:-1] == node[1:]))
    k = node[i]
    left = cum[s, i] - before[s, k]
    left_n = left >> 32
    left_pos = left & _LOW
    right_n = size[k] - left_n
    right_pos = pos[k] - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    child = left_n * 2.0 * pl * (1.0 - pl) + right_n * 2.0 * pr * (1.0 - pr)

    score = np.full(k_count, np.inf)
    np.minimum.at(score, k, child)
    win = np.flatnonzero(child == score[k])
    pick = np.full(k_count, child.size)
    np.minimum.at(pick, k[win], win)  # candidates run slot by slot, cut by cut
    has = np.flatnonzero(pick < child.size)
    c = pick[has]
    lo = v[s[c], i[c]]
    hi = v[s[c], i[c] + 1]
    mid = (lo + hi) / 2.0
    feature = np.full(k_count, -1, np.int32)
    threshold = np.zeros(k_count)
    w_left = np.zeros(k_count, np.int64)
    n_left = np.zeros(k_count, np.int64)
    pos_left = np.zeros(k_count, np.int64)
    feature[has] = feats[has, s[c]]
    # the midpoint of two adjacent floats can round onto the lower one
    threshold[has] = np.where((lo < mid) & (mid <= hi), mid, hi)
    w_left[has] = i[c] - first[has] + 1
    n_left[has] = left_n[c]
    pos_left[has] = left_pos[c]
    return score, feature, threshold, w_left, n_left, pos_left


def _grow_batch(x: np.ndarray, y: np.ndarray, presort: np.ndarray, rngs, mtry: int, base: int):
    """Grow one tree per generator to purity, every node of a depth at once.

    Each tree's bag is the first draw from its generator; the tree keeps the
    distinct rows it drew, each with its bag count, and takes each metric's
    row order from ``presort`` (row f of it: the rows stably sorted by metric
    f). At each depth the tree draws, in one call, a random metric order for
    each of its open nodes; a node tries the first ``mtry`` metrics and, when
    none of them has a cut, the rest in index order. Returns the batch's node
    arrays (feature, threshold, left, right, vote, decrease), numbered from
    ``base``; nodes base..base+T-1 are the roots.
    """
    n, p = x.shape
    t_count = len(rngs)
    bag = np.stack([rng.integers(0, n, size=n) for rng in rngs])
    offset = np.arange(t_count) * n
    count = np.bincount((bag + offset[:, None]).ravel(), minlength=t_count * n)
    drawn = count > 0  # at t * n + r: tree t drew row r
    cell = np.flatnonzero(drawn)
    xb = x[cell % n]
    packed = (count[cell] << 32) + count[cell] * y[cell % n]
    # seq[f]: each tree's distinct rows in presorted order of metric f; a
    # level's stable partition keeps every node's rows sorted
    ids_of = (np.cumsum(drawn) - 1).astype(np.int32)
    flat = (presort[:, None, :] + offset[None, :, None]).reshape(p, -1)
    seq = ids_of[flat][drawn[flat]].reshape(p, -1)
    status = np.zeros(cell.size, np.int8)

    cap = t_count * (2 * n - 1)
    feature = np.full(cap, -1, np.int32)
    threshold = np.zeros(cap)
    left = np.full(cap, -1, np.int32)
    right = np.full(cap, -1, np.int32)
    vote = np.zeros(cap, bool)
    decrease = np.zeros(cap)

    ids = np.arange(t_count)
    tree = np.arange(t_count)
    width = np.count_nonzero(drawn.reshape(t_count, n), axis=1)
    size = np.full(t_count, n)
    pos = y[bag].sum(axis=1)
    next_id = t_count
    while ids.size:
        vote[ids] = pos * 2 > size
        open_ = (pos > 0) & (pos < size) & (size > 1)
        if not open_.all():
            seq = seq[:, np.repeat(open_, width)]
            ids, tree, width, size, pos = ids[open_], tree[open_], width[open_], size[open_], pos[open_]
            if not ids.size:
                break
        starts = np.cumsum(width) - width

        counts = np.bincount(tree, minlength=t_count)
        u = np.empty((ids.size, p))
        u[np.argsort(tree, kind="stable")] = np.concatenate(
            [rngs[t].random((c, p)) for t, c in enumerate(counts) if c]
        )
        order = u.argsort(axis=1)
        cuts = _best_cuts(seq, xb, packed, starts, width, size, pos, order[:, :mtry])
        miss = np.flatnonzero(cuts[0] == np.inf)
        if miss.size and mtry < p:
            rest = np.sort(order[miss, mtry:], axis=1)
            alts = _best_cuts(seq, xb, packed, starts[miss], width[miss], size[miss], pos[miss], rest)
            for out, alt in zip(cuts, alts):
                out[miss] = alt
        score, feat, thr, left_w, left_n, left_pos = cuts

        split = np.flatnonzero(score < np.inf)
        j_count = split.size
        sid = ids[split]
        q = pos[split] / size[split]
        feature[sid] = feat[split]
        threshold[sid] = thr[split]
        decrease[sid] = size[split] * (2.0 * q * (1.0 - q)) - score[split]
        left[sid] = base + next_id + np.arange(j_count)
        right[sid] = base + next_id + j_count + np.arange(j_count)

        # move split nodes' rows to their children, all left children first;
        # rows of nodes that stay leaves drop out
        node = np.repeat(np.arange(ids.size), width)
        chosen = seq[np.maximum(feat, 0)[node], np.arange(node.size)]
        goes = np.where(np.arange(node.size) - starts[node] < left_w[node], 1, 2).astype(np.int8)
        goes[score[node] == np.inf] = 0
        status[chosen] = goes
        st = status[seq]
        seq = np.concatenate([seq[st == 1].reshape(p, -1), seq[st == 2].reshape(p, -1)], axis=1)

        ids = next_id + np.arange(2 * j_count)
        next_id += 2 * j_count
        tree = np.concatenate([tree[split], tree[split]])
        width = np.concatenate([left_w[split], width[split] - left_w[split]])
        size = np.concatenate([left_n[split], size[split] - left_n[split]])
        pos = np.concatenate([left_pos[split], pos[split] - left_pos[split]])
    return tuple(a[:next_id].copy() for a in (feature, threshold, left, right, vote, decrease))


def fit_random_forest(
    d: Dataset, subset, ntree: int = 100, seed: int = 0
) -> ForestModel:
    """Bagged Gini trees grown to purity; mtry = floor(sqrt(p)).

    Each metric of the training rows is stably sorted once, and every tree
    takes its rows' order from that one presort.
    """
    subset = tuple(subset)
    if ntree < 1:
        raise ConfigError(f"ntree must be >= 1, got {ntree}")
    if not subset:
        raise DegenerateOutcome("random forest needs at least one metric")
    if not d.has_both_classes():
        raise DegenerateOutcome("random forest needs both outcome classes")
    x = d.columns(subset)
    y = d.outcome.astype(np.int8)
    n, p = x.shape
    mtry = max(1, int(math.isqrt(p)))
    presort = np.argsort(x, axis=0, kind="stable").T
    streams = np.random.SeedSequence(seed).spawn(ntree)
    per_batch = max(1, _BATCH_CELLS // (n * p))
    batches, roots, base = [], [], 0
    for lo in range(0, ntree, per_batch):
        rngs = [np.random.default_rng(s) for s in streams[lo:lo + per_batch]]
        batches.append(_grow_batch(x, y, presort, rngs, mtry, base))
        roots.append(base + np.arange(len(rngs), dtype=np.int32))
        base += batches[-1][0].size
    arrays = [np.concatenate(column) for column in zip(*batches)]
    return ForestModel(np.concatenate(roots), *arrays, ntree, mtry, seed, subset)


def _forest_votes(m: ForestModel, x: np.ndarray) -> np.ndarray:
    """Fraction of trees voting defective for each row of ``x``.

    Every (tree, row) pair of a block of rows descends one level per step.
    """
    r_count = x.shape[0]
    out = np.empty(r_count)
    step = max(1, _BATCH_CELLS // m.ntree)
    for lo in range(0, r_count, step):
        block = x[lo:lo + step]
        r = block.shape[0]
        node = np.repeat(m.trees, r)  # pair t * r + i: tree t, row i
        live = np.arange(node.size)
        while True:
            at = node[live]
            f = m.feature[at]
            inner = f >= 0
            if not inner.any():
                break
            live, at, f = live[inner], at[inner], f[inner]
            go_left = block[live % r, f] < m.threshold[at]
            node[live] = np.where(go_left, m.left[at], m.right[at])
        out[lo:lo + r] = np.count_nonzero(m.vote[node].reshape(m.ntree, r), axis=0) / m.ntree
    return out


def score_rows(model, d: Dataset) -> np.ndarray:
    """Defect probability of every row of ``d``: a logistic model's clamped
    inside (0, 1), a forest's fraction of trees voting defective (a multiple
    of 1/ntree). The model's metrics are read from ``d`` by name."""
    x = d.columns(model.metric_names)
    if isinstance(model, LogisticModel):
        return np.clip(sigmoid(model.intercept + x @ model.coefficients), _PROB_EPS, 1.0 - _PROB_EPS)
    if isinstance(model, ForestModel):
        return _forest_votes(model, x)
    raise DimensionMismatch(f"unsupported model type {type(model).__name__}")


def importance(model, d: Dataset) -> dict[str, float]:
    """Metric name -> importance, for either classifier.

    Logistic: |coefficient| times the sample standard deviation of the
    metric, i.e. the standardized coefficient magnitude. Forest: total
    Gini impurity decrease per metric over all trees, normalized to sum 1.
    """
    if isinstance(model, LogisticModel):
        scores = {}
        for name, coef in zip(model.metric_names, model.coefficients):
            col = d.column(name)
            sd = float(col.std(ddof=1)) if col.size > 1 else 0.0
            scores[name] = abs(float(coef)) * sd
        return scores
    if isinstance(model, ForestModel):
        inner = model.feature >= 0
        acc = np.bincount(
            model.feature[inner], weights=model.decrease[inner], minlength=len(model.metric_names)
        )
        total = acc.sum()
        if total > 0:
            acc = acc / total
        return dict(zip(model.metric_names, acc.tolist()))
    raise DimensionMismatch(f"unsupported model type {type(model).__name__}")
