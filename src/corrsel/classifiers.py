"""Logistic regression (iteratively reweighted least squares) and a bagged
random forest of Gini-split decision trees, plus the importance scores the
wrapper selectors consume.

Both fitters are deterministic: the logistic fit has no randomness and the
forest derives one generator stream per tree from (seed, tree index), so
each tree depends only on its own stream. Trees grow in batches sized by a
working-set bound, and a batch numbers its nodes tree by tree, so no byte
of a forest, its importance included, depends on how trees are batched.
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

#: Working-set budget of forest growth and scoring, in (bag row, metric)
#: cells, each about 8 bytes while a batch of trees grows: trees are grown
#: max(1, _BATCH_CELLS // (n * p)) at a time. A cut search holds about
#: _CUT_COST cells' bytes per (node row, candidate metric), its sort key and
#: argsort included (17-19 by tracemalloc at n = 500-1,000, p = 10-60), and
#: scoring about _VOTE_COST per (tree, row) pair, so each runs in chunks of
#: the budget divided by its cost. No result depends on the budget.
_BATCH_CELLS = 120_000
_CUT_COST = 18
_VOTE_COST = 5

#: Low half of a packed (bag count << 32) + defective count. One cumulative
#: sum runs over every bag row of a batch, max(n, _BATCH_CELLS // p) of
#: them, far fewer than 2**31, so neither half of a sum overflows.
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
    seed: int
    metric_names: tuple[str, ...]


def _log_likelihoods(design: np.ndarray, y: np.ndarray, c: np.ndarray):
    """Log-likelihoods (m, h) and linear predictors (m, h, n) of h candidate
    coefficient vectors per model (c: m x h x k) on stacked designs (m x n x
    k). Each candidate's product is the one matrix-vector product a lone
    candidate gets, so its bytes do not depend on h."""
    eta = (design[:, None] @ c[..., None])[..., 0]
    return np.sum(y[:, None] * eta - np.logaddexp(0.0, eta), axis=-1), eta


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

    Each model takes the first of its Newton step and that step's halvings,
    down to 2**-30 of it, at which the log-likelihood does not fall, and
    stops on its own; stopped models leave the stack, and so does a
    ``warm`` model as soon as it is capped (it will be refit cold). A
    ``warm`` model that stops on a step below ``TOL`` which its line search
    cut down from a Newton step of at least ``TOL`` (a stall) reports itself
    not converged, so it is refit cold too; a cold model reports that stop
    as converged.

    The models whose full step is refused try their halvings in blocks, each
    as many as all tried before it (1, 2, 4, 8, then the last 15), one
    evaluation per block: a near-clone fit capped at COEF_CAP refuses all
    30 in five evaluations, not 30. Each candidate's arithmetic is the one
    it gets tried alone, so no model depends on the block it was tried in.
    """
    m = design.shape[0]
    ll, eta = _log_likelihoods(design, y, beta[:, None])
    ll, eta = ll[:, 0], eta[:, 0]
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
        accepted = np.zeros(live.size, bool)
        todo = np.arange(live.size)
        first, count = 0, 1  # the halvings 2**-first .. 2**-(first + count - 1) go next
        while todo.size and first <= 30:
            whole = todo.size == live.size
            steps = np.ldexp(1.0, -np.arange(first, min(first + count, 31)))
            c = np.clip(start[todo, None] + steps[:, None] * delta[todo, None], -COEF_CAP, COEF_CAP)
            c_ll, c_eta = _log_likelihoods(
                design if whole else design[todo], y if whole else y[todo], c
            )
            ok = c_ll >= start_ll[todo, None]
            found = ok.any(axis=1)
            h = ok[found].argmax(axis=1)  # each model's first accepted halving
            moved = live[todo[found]]
            beta[moved], ll[moved], eta[moved] = c[found, h], c_ll[found, h], c_eta[found, h]
            accepted[todo[found]] = True
            todo = todo[~found]
            first += count
            count = first

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


def _best_cuts(ids, x, rank, row, packed, starts, widths, size, pos, feats):
    """Lowest weighted-Gini cut of each node over its candidate metrics.

    Node k owns positions ``starts[k]:starts[k] + widths[k]`` of ``ids``,
    its distinct bag rows in any order (bag row b is row ``row[b]`` of
    ``x``), holds ``size[k]`` bag rows counted with their bag counts,
    ``pos[k]`` of them defective, and tries the metrics ``feats[k]`` in
    order. For each candidate one argsort of the key node * n + ``rank``
    (row f of it: each row's place in the stable sort of metric f) orders
    every node's rows by that metric; within a node no two keys are equal,
    so rows of equal value keep their order in ``x``. ``packed[b]`` is bag
    row b's bag count << 32 plus its defective count, so one cumulative sum
    gives both of a cut's left counts. Ties go to the earlier candidate,
    then to the earlier cut. Returns, per node: the weighted child Gini
    (inf when no candidate has a cut), the metric, the midpoint threshold,
    and the left child's distinct rows, size and defects.
    """
    k_count = feats.shape[0]
    node = np.repeat(np.arange(k_count), widths)
    first = np.cumsum(widths) - widths
    held = ids[np.arange(node.size) + np.repeat(starts - first, widths)]
    f = feats.T[:, node]
    rows = held[(node * x.shape[0] + rank[f, row[held]]).argsort(axis=1)]
    v = x[row[rows], f]
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


def _chunked_cuts(ids, x, rank, row, packed, starts, widths, size, pos, feats):
    """:func:`_best_cuts` over runs of consecutive nodes, each run holding
    about _BATCH_CELLS // _CUT_COST (node row, candidate metric) cells."""
    run = (np.cumsum(widths) - widths) * feats.shape[1] // max(1, _BATCH_CELLS // _CUT_COST)
    edges = np.flatnonzero(run[1:] != run[:-1]) + 1
    if not edges.size:
        return _best_cuts(ids, x, rank, row, packed, starts, widths, size, pos, feats)
    parts = zip(*(np.split(a, edges) for a in (starts, widths, size, pos, feats)))
    cuts = [_best_cuts(ids, x, rank, row, packed, *part) for part in parts]
    return tuple(np.concatenate(c) for c in zip(*cuts))


def _is_open(pos, size):
    """Whether a node of ``size`` bag rows, ``pos`` of them defective, is
    split further: it holds both classes."""
    return (pos > 0) & (pos < size)


def _distinct_bag_rows(y: np.ndarray, rngs):
    """Each generator's bag, the first draw from it, kept as the distinct
    rows it drew, tree by tree: returns the row of x behind each distinct
    bag row, its packed bag and defective counts, and each tree's distinct
    row and defective counts. A tree whose bag holds one class keeps no
    rows."""
    n = y.size
    t_count = len(rngs)
    # a cumulative sum of packed counts runs over every bag row of the batch
    assert t_count * n < 1 << 31, "a batch's bag rows must fit in one half of _LOW"
    bag = np.stack([rng.integers(0, n, size=n) for rng in rngs])
    pos = y[bag].sum(axis=1)
    count = np.bincount((bag + (np.arange(t_count) * n)[:, None]).ravel(), minlength=t_count * n)
    # [t, r]: tree t drew row r, and its root is open
    drawn = (count > 0).reshape(t_count, n) & _is_open(pos, n)[:, None]
    cell = np.flatnonzero(drawn)
    row = cell % n
    packed = (count[cell] << 32) + count[cell] * y[row]
    return row, packed, np.count_nonzero(drawn, axis=1), pos


def _grow_batch(x: np.ndarray, y: np.ndarray, rank: np.ndarray, rngs, mtry: int, base: int):
    """Grow one tree per generator to purity, every node of a depth at once.

    Each tree's bag is the first draw from its generator; the tree keeps the
    distinct rows it drew, each with its bag count, and each open node holds
    one list of them, in no order. At each depth the tree draws, in one
    call, a random metric order for each of its open nodes; a node tries the
    first ``mtry`` metrics and, when none of them has a cut, the rest in
    index order, sorting its rows by each candidate's ``rank`` (row f: each
    row's place in the stable sort of metric f; see :func:`_best_cuts`). A
    row goes left when its value is below the threshold, the rule scoring
    uses, and only open children keep rows. Returns the batch's roots and
    node arrays (feature, threshold, left, right, vote, decrease), numbered
    from ``base`` tree by tree, each tree's nodes depth by depth: the arrays
    of a forest grown one tree per batch, however many trees share this one.
    """
    p = x.shape[1]
    t_count = len(rngs)
    row, packed, width, pos = _distinct_bag_rows(y, rngs)
    ids = np.arange(row.size)

    levels = []  # per depth: the tree and node arrays of its nodes
    tree = np.arange(t_count)
    size = np.full(t_count, y.size)
    next_id = t_count  # nodes are numbered depth by depth while they grow
    while tree.size:
        k_count = tree.size
        feature = np.full(k_count, -1, np.int32)
        threshold = np.zeros(k_count)
        left = np.full(k_count, -1, np.int32)
        right = np.full(k_count, -1, np.int32)
        decrease = np.zeros(k_count)
        levels.append((tree, feature, threshold, left, right, pos * 2 > size, decrease))
        at = np.flatnonzero(_is_open(pos, size))  # each open node's place in this depth
        if at.size < k_count:
            # ids holds the open nodes' rows alone
            tree, width, size, pos = tree[at], width[at], size[at], pos[at]
            if not at.size:
                break
        starts = np.cumsum(width) - width

        counts = np.bincount(tree, minlength=t_count)
        u = np.empty((at.size, p))
        u[np.argsort(tree, kind="stable")] = np.concatenate(
            [rngs[t].random((c, p)) for t, c in enumerate(counts) if c]
        )
        order = u.argsort(axis=1)
        cuts = _chunked_cuts(ids, x, rank, row, packed, starts, width, size, pos, order[:, :mtry])
        miss = np.flatnonzero(cuts[0] == np.inf)
        if miss.size and mtry < p:
            rest = np.sort(order[miss, mtry:], axis=1)
            alts = _chunked_cuts(ids, x, rank, row, packed, starts[miss], width[miss], size[miss], pos[miss], rest)
            for out, alt in zip(cuts, alts):
                out[miss] = alt
        score, feat, thr, left_w, left_n, left_pos = cuts

        cut = score < np.inf
        split = np.flatnonzero(cut)
        j_count = split.size
        sid = at[split]
        q = pos[split] / size[split]
        feature[sid] = feat[split]
        threshold[sid] = thr[split]
        decrease[sid] = size[split] * (2.0 * q * (1.0 - q)) - score[split]
        left[sid] = next_id + np.arange(j_count)
        right[sid] = next_id + j_count + np.arange(j_count)
        next_id += 2 * j_count

        node = np.repeat(np.arange(width.size), width)
        goes_left = x[row[ids], np.maximum(feat, 0)[node]] < thr[node]
        to_left = (cut & _is_open(left_pos, left_n))[node]
        to_right = (cut & _is_open(pos - left_pos, size - left_n))[node]
        ids = np.concatenate([ids[goes_left & to_left], ids[~goes_left & to_right]])
        tree = np.concatenate([tree[split], tree[split]])
        width = np.concatenate([left_w[split], width[split] - left_w[split]])
        size = np.concatenate([left_n[split], size[split] - left_n[split]])
        pos = np.concatenate([left_pos[split], pos[split] - left_pos[split]])

    # renumber tree-major: a stable sort by tree keeps each tree's depth order
    tree, feature, threshold, left, right, vote, decrease = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(tree, kind="stable")
    renumber = np.empty(order.size, np.int32)
    renumber[order] = base + np.arange(order.size, dtype=np.int32)
    for child in (left, right):
        inner = child >= 0
        child[inner] = renumber[child[inner]]
    arrays = tuple(a[order] for a in (feature, threshold, left, right, vote, decrease))
    return (renumber[:t_count], *arrays)


def fit_random_forest(
    d: Dataset, subset, ntree: int = 100, seed: int = 0
) -> ForestModel:
    """Bagged Gini trees grown to purity; mtry = floor(sqrt(p)).

    Each metric of the training rows is stably sorted once, and every node
    orders its rows by a candidate metric from each row's place in that one
    presort.
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
    rank = np.empty((p, n), np.int32)
    np.put_along_axis(rank, np.argsort(x, axis=0, kind="stable").T, np.arange(n), axis=1)
    streams = np.random.SeedSequence(seed).spawn(ntree)
    per_batch = max(1, _BATCH_CELLS // (n * p))
    batches, base = [], 0
    for lo in range(0, ntree, per_batch):
        rngs = [np.random.default_rng(s) for s in streams[lo:lo + per_batch]]
        batches.append(_grow_batch(x, y, rank, rngs, mtry, base))
        base += batches[-1][1].size
    arrays = [np.concatenate(column) for column in zip(*batches)]
    return ForestModel(*arrays, ntree, seed, subset)


def _forest_votes(m: ForestModel, x: np.ndarray) -> np.ndarray:
    """Fraction of trees voting defective for each row of ``x``.

    Every (tree, row) pair of a block of rows descends one level per step.
    """
    r_count = x.shape[0]
    out = np.empty(r_count)
    step = max(1, _BATCH_CELLS // (_VOTE_COST * m.ntree))
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
