"""Bootstrap experiment harness.

Runs a set of selection techniques over B out-of-sample bootstrap samples of
one dataset and aggregates three views: subset consistency (across samples
per technique, and across techniques per sample), correlation flags of the
selected subsets on their training samples, and model-performance deltas of
selected-metrics models against all-metrics models on the same split.

Everything is seeded: the per-sample split seed is derived from
(base_seed, sample index), each grid cell from (base_seed, sample index,
selector index) and each performance forest from (base_seed, sample index,
its subset's names), so a report re-runs bit-for-bit from its echoed
configuration.

An experiment draws its splits, then runs on one pool of forked workers,
while this process fits the logistic cells and computes the flags. Each
distinct forest cell is a task, submitted as soon as its subset is known.
Without forests each sample's selectors are one task; with them, a
sample's logistic wrappers (which share a fit memo) are one task and every
other selector is one, so that forests start as each selector returns.
Results are kept by task, so no output depends on the worker count or on
the order in which tasks finish.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import io
import json
import math
import os
import signal
import stat
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .autospearman import AutoSpearmanParams, MetricSubset
from .classifiers import fit_logistic, fit_random_forest, score_rows
from .data import BootstrapSplit, Dataset, SyntheticSpec, bootstrap_sample, generate_synthetic, load_csv
from .errors import ComputationError, ConfigError, CorrselError, DataError, SingleClass
from .evaluation import auc, confusion_at, f_measure, mcc
from .seeding import derive_seed
from .selectors import SelectorConfig, SelectorId, parse_selector, select
from .stats import spearman_matrix, vif_scores

SCHEMA_VERSION = 1

_MEASURES = ("AUC", "F", "MCC")

_CLASSIFIERS = ("logistic", "forest")

# SelectorConfig fields that a config's JSON form sets at its top level only
_TOP_LEVEL = ("bins", "base_seed", "sp_t", "vif_t")

# the selectors whose fits overlap, so they share a sample's logistic fit
# memo: Step-BOTH refits Step-FWD's additions, Step-BWD RFE-LR's first fits
_MEMO_GROUP = (SelectorId.STEP_FWD, SelectorId.STEP_BWD, SelectorId.STEP_BOTH, SelectorId.RFE_LR)


@dataclass(frozen=True)
class SubsetCollection:
    """Complete (selector x sample) grid of selected subsets.

    ``splits`` holds the bootstrap split of each sample, drawn once, so the
    later stages score and flag on the very rows the selectors saw; their
    seeds derive from ``base_seed``, as the later stages' seeds do.
    """

    subsets: dict[tuple[SelectorId, int], MetricSubset | None]
    failures: dict[tuple[SelectorId, int], str]
    selectors: tuple[SelectorId, ...]
    base_seed: int
    splits: tuple[BootstrapSplit, ...]

    def for_selector(self, sel: SelectorId) -> list[MetricSubset]:
        return [
            self.subsets[(sel, j)]
            for j in range(len(self.splits))
            if self.subsets[(sel, j)] is not None
        ]

    def for_sample(self, j: int) -> list[MetricSubset]:
        return [
            self.subsets[(sel, j)]
            for sel in self.selectors
            if self.subsets[(sel, j)] is not None
        ]


@dataclass(frozen=True)
class ConsistencyResult:
    percentage: float
    intersection_size: int
    union_size: int


@dataclass(frozen=True)
class CorrelationFlags:
    has_collinearity: bool
    has_multicollinearity: bool


def _check_classifiers(classifiers) -> None:
    if not set(classifiers) <= set(_CLASSIFIERS):
        raise ConfigError(f"classifiers must be drawn from {list(_CLASSIFIERS)}, got {list(classifiers)}")
    if len(set(classifiers)) != len(classifiers):
        raise ConfigError(f"duplicate classifiers: {list(classifiers)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a dataset (a CSV path or a synthetic spec), what runs
    on it and where its report goes. The thresholds, bins and base seed are
    ``selector_config``'s."""

    dataset: str | SyntheticSpec
    outcome_column: str | None = None
    selectors: tuple[SelectorId, ...] = (SelectorId.AUTOSPEARMAN,)
    bootstrap_count: int = 30
    classifiers: tuple[str, ...] = _CLASSIFIERS
    output: str | None = None
    output_csv: str | None = None
    selector_config: SelectorConfig = SelectorConfig()

    def __post_init__(self):
        if not (isinstance(self.dataset, SyntheticSpec) or (isinstance(self.dataset, str) and self.dataset)):
            raise ConfigError(f"dataset must be a CSV path or a synthetic spec, got {self.dataset!r}")
        if isinstance(self.dataset, str) and not self.outcome_column:
            raise ConfigError("outcome_column is required with a dataset path")
        if not self.selectors:
            raise ConfigError("selectors must name at least one selector")
        if len(set(self.selectors)) != len(self.selectors):
            raise ConfigError(f"duplicate selectors: {[s.value for s in self.selectors]}")
        if self.bootstrap_count < 1:
            raise ConfigError("bootstrap_count must be >= 1")
        _check_classifiers(self.classifiers)


def _usable_cpus() -> int:
    """The CPUs this process may run on (``taskset`` narrows them)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# set in each forked worker of a pool: the grid and selector settings of its
# experiment, inherited through fork, so a task crosses the process boundary
# as its key
_worker_job = None


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to answer


def _task(grid: SubsetCollection, config: SelectorConfig | None, key):
    """The task ``key`` of an experiment: for the key (j, positions), sample
    j's grid cells of the selectors at those positions; for the key (sample,
    classifier, ordered subset), a cell's measures."""
    if len(key) == 2:
        return _sample_cells(grid, config, *key)
    return _cell_measures(grid, key)


def _run_task(key):
    return _task(*_worker_job, key)


class _Tasks:
    """Tasks submitted by key, whose results come back keyed as they finish.

    With no ``executor`` a task runs when it is submitted, in this process.
    """

    def __init__(self, grid, config, executor=None):
        self._job = (grid, config)
        self._executor = executor
        self._pending = {}  # future -> key
        self._finished = collections.deque()  # (key, result)

    def submit(self, key) -> None:
        if self._executor is None:
            self._finished.append((key, _task(*self._job, key)))
        else:
            self._pending[self._executor.submit(_run_task, key)] = key

    def finished(self):
        """``(key, result)`` of each task as it finishes, tasks submitted
        meanwhile included, until none is left."""
        while self._finished or self._pending:
            if not self._finished:
                from concurrent.futures import FIRST_COMPLETED, wait

                done, _ = wait(self._pending, return_when=FIRST_COMPLETED)
                self._finished.extend((self._pending.pop(f), f.result()) for f in done)
            yield self._finished.popleft()


@contextmanager
def _pool(grid: SubsetCollection, config: SelectorConfig | None, most: int):
    """The :class:`_Tasks` of one experiment, run on forked workers, one per
    usable CPU and at most ``most``.

    Workers fork at the first submitted task and inherit ``grid`` and
    ``config`` as they are then, so a task is sent as its key and only
    results and a task's exception are pickled. The tasks run in this
    process when fewer than two workers would start, when the platform
    cannot fork, or when this process is a daemon (which may not start
    children).

    A worker that dies, say killed by a signal, ends the pool with a
    ComputationError. Workers ignore SIGINT: on Ctrl-C, or when a task or
    the caller raises, the caller terminates the workers and re-raises;
    child processes it started before the pool are left alone.
    """
    workers = min(_usable_cpus(), most)
    if workers > 1:
        # imported here, so that commands which start no pool do not pay for it
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            fork = multiprocessing.get_context("fork")
            before = set(multiprocessing.active_children())
            with ProcessPoolExecutor(workers, fork, _start_worker, ((grid, config),)) as executor:
                try:
                    yield _Tasks(grid, config, executor)
                except BrokenProcessPool:
                    raise ComputationError("a worker died while running the experiment's tasks") from None
                except BaseException:
                    # a task or the caller raised, or Ctrl-C: stop this pool's workers now.
                    # Cancelling the tasks not yet run would race the pool's clean-up of
                    # killed workers.
                    for child in set(multiprocessing.active_children()) - before:
                        child.terminate()
                    raise
            return
    yield _Tasks(grid, config)


def _sample_cells(
    grid: SubsetCollection, config: SelectorConfig, j: int, positions: tuple[int, ...]
) -> list[tuple[MetricSubset | None, str | None]]:
    """The subset of sample j of each selector at ``positions``, or why it
    failed, in that order. The selectors share one logistic fit memo,
    dropped when they are done; a memo hit is the fit a fresh call would
    make, so no cell depends on the cells run before it."""
    memo: dict = {}
    cells = []
    for i in positions:
        try:
            subset = select(grid.selectors[i], grid.splits[j].train, config, derive_seed(grid.base_seed, j, i), memo)
            cells.append((subset, None))
        except CorrselError as exc:
            cells.append((None, f"{type(exc).__name__}: {exc}"))
    return cells


def _plan(d: Dataset, selectors, B: int, config: SelectorConfig) -> SubsetCollection:
    """The grid before any selector runs: its B bootstrap splits, sample
    j's seeded from (``config.base_seed``, j), and no subsets."""
    if B < 1:
        raise ConfigError("bootstrap_count must be >= 1")
    if d.n_modules < 2:
        # every draw would take the only row, so no split ever has a test side
        raise DataError(f"bootstrap samples need at least 2 rows, got {d.n_modules}")
    splits = tuple(bootstrap_sample(d, derive_seed(config.base_seed, j)) for j in range(B))
    return SubsetCollection({}, {}, tuple(selectors), config.base_seed, splits)


def run_selection_grid(
    d: Dataset, selectors, B: int, config: SelectorConfig = SelectorConfig()
) -> SubsetCollection:
    """Apply every selector to each of B bootstrap training samples.

    Sample j's split seed is derived from (``config.base_seed``, j) and its
    cell of selector i from (``config.base_seed``, j, i). Each sample's
    selectors are one task of :func:`_run_cells`. Per-cell failures are
    recorded, never fatal; the grid stays complete.
    """
    return _run_cells(_plan(d, selectors, B, config), (), config)[0]


def consistency(subsets: list[MetricSubset]) -> ConsistencyResult:
    """100 * |intersection| / |union| of the subsets: one technique's across
    the samples, or one sample's across the techniques. Subsets that are all
    empty score 0."""
    sets = [set(s) for s in subsets]
    if not sets:
        raise ConfigError("consistency needs at least one subset")
    inter = set.intersection(*sets)
    union = set.union(*sets)
    pct = 100.0 * len(inter) / len(union) if union else 0.0
    return ConsistencyResult(pct, len(inter), len(union))


def correlation_flags(
    subset: MetricSubset, train: Dataset, sp_t: float = AutoSpearmanParams.sp_t, vif_t: float = AutoSpearmanParams.vif_t
) -> CorrelationFlags:
    """Strictly-above-threshold collinearity and multicollinearity checks.

    Unlike the eliminator (which compares with >=), these diagnostic flags
    use strict > on both thresholds, which are checked as the eliminator's
    are. Empty and singleton subsets flag false.
    """
    AutoSpearmanParams(sp_t, vif_t)
    subset = list(subset)
    if len(subset) < 2:
        return CorrelationFlags(False, False)
    corr = spearman_matrix(train.project(subset)).values
    off = np.abs(corr[np.triu_indices(len(subset), k=1)])
    has_coll = bool(np.any(off > sp_t))
    scores = vif_scores(train, subset).scores
    has_multi = any(v > vif_t for v in scores.values())
    return CorrelationFlags(has_coll, has_multi)


def _measures(scores: np.ndarray, outcome: np.ndarray) -> dict[str, float]:
    """F and MCC at the 0.5 cut, and AUC when both classes are present."""
    cm = confusion_at(scores, outcome)
    vals = {"F": f_measure(cm), "MCC": mcc(cm)}
    try:
        vals["AUC"] = auc(scores, outcome)
    except SingleClass:
        pass
    return vals


def _subset_key(subset) -> int:
    """A 64-bit key of an ordered subset's names, the same in every process
    (unlike the salted built-in ``hash``)."""
    digest = hashlib.sha256(json.dumps(list(subset)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _cell_measures(grid: SubsetCollection, cell: tuple[int, str, tuple[str, ...]]):
    """The measures of the cell (sample j, classifier, ordered subset): a
    model fit on sample j's training rows and scored on its test rows, or
    the ComputationError its fit raised. An empty subset scores every row at
    the training defect rate. A forest's seed is keyed on the sample and the
    subset, not on who picked it."""
    j, clf, subset = cell
    train, test = grid.splits[j].train, grid.splits[j].test
    try:
        if not subset:
            scores = np.full(test.n_modules, np.count_nonzero(train.outcome) / train.n_modules)
        elif clf == "logistic":
            scores = score_rows(fit_logistic(train, subset), test)
        else:
            seed = derive_seed(grid.base_seed, j, 202, _subset_key(subset))
            scores = score_rows(fit_random_forest(train, subset, seed=seed), test)
    except ComputationError as exc:
        return exc
    return _measures(scores, test.outcome)


def _grid_tasks(selectors, split: bool) -> list[tuple[int, ...]]:
    """The selector positions of each of a sample's grid tasks: all of them
    in one task, or, when ``split``, the ``_MEMO_GROUP`` selectors in one
    and every other selector alone, the group first."""
    every = tuple(range(len(selectors)))
    if not split:
        return [every]
    group = tuple(i for i in every if selectors[i] in _MEMO_GROUP)
    return ([group] if group else []) + [(i,) for i in every if i not in group]


def _run_cells(grid: SubsetCollection, classifiers, config: SelectorConfig | None = None, flag: bool = False):
    """Run an experiment's cells on one :func:`_pool`: ``(grid, measured,
    flags)``.

    With ``config``, ``grid`` is a plan (:func:`_plan`) and comes back with
    its subsets. Without forests each sample's selectors run as one task,
    so a one-sample experiment starts no worker. With forests, a sample's
    selectors run as :func:`_grid_tasks`, so that its selectors' forests
    need not wait for its slowest selector. Without ``config``, ``grid``'s
    subsets are given.

    Each distinct (sample, classifier, ordered subset) cell is measured
    once, as soon as its subset is known: an all-metrics cell at once, a
    selector's when its grid task returns. A forest cell is a task; a
    logistic cell is one IRLS fit of a few milliseconds, less than sending
    it costs, so it runs here while the workers grow forests, as do the
    correlation flags of each selected subset at ``config``'s thresholds
    when ``flag`` is set. Longest work is submitted first, so that no
    worker idles at the end: every grid task, then the all-metrics forests,
    and a grid task's forests before this process fits its logistic cells.

    ``measured`` maps each cell to its measures, or the ComputationError its
    fit raised. Every result is kept by its key, so nothing built from them
    depends on the worker count or on the order in which tasks finish.
    """
    B = len(grid.splits)
    forests = B * (1 + len(grid.selectors)) if "forest" in classifiers else 0
    groups = [] if config is None else _grid_tasks(grid.selectors, forests > 0)
    chosen: dict[tuple[SelectorId, int], tuple] = {}  # (selector, sample) -> its grid cell
    measured: dict = {}
    flags: dict[tuple[SelectorId, int], CorrelationFlags] = {}
    with _pool(grid, config, B * len(groups) + forests) as tasks:
        seen = set()

        def measure(j: int, subsets) -> None:
            # forests first: the workers start on them while this process fits
            for clf in sorted(classifiers, key=lambda clf: clf != "forest"):
                for subset in [grid.splits[j].train.metric_names, *subsets]:
                    cell = (j, clf, subset)
                    if cell in seen:
                        continue
                    seen.add(cell)
                    if clf == "forest":
                        tasks.submit(cell)
                    else:
                        measured[cell] = _cell_measures(grid, cell)

        if config is None:
            for j in range(B):
                measure(j, [tuple(s) for s in grid.for_sample(j)])
        else:
            for j in range(B):
                for positions in groups:
                    tasks.submit((j, positions))
            for j in range(B):
                measure(j, [])
        for key, result in tasks.finished():
            if len(key) == 3:
                measured[key] = result
                continue
            j, positions = key
            sels = [grid.selectors[i] for i in positions]
            chosen.update(((sel, j), cell) for sel, cell in zip(sels, result))
            picked = [(sel, subset) for sel, (subset, _) in zip(sels, result) if subset is not None]
            measure(j, [tuple(subset) for _, subset in picked])
            if flag:
                train = grid.splits[j].train
                for sel, subset in picked:
                    flags[(sel, j)] = correlation_flags(subset, train, config.sp_t, config.vif_t)
    if config is not None:
        cells = [((sel, j), chosen[(sel, j)]) for j in range(B) for sel in grid.selectors]
        grid = replace(
            grid,
            subsets={key: subset for key, (subset, _) in cells},
            failures={key: failure for key, (_, failure) in cells if failure is not None},
        )
    return grid, measured, flags


def _deltas(grid: SubsetCollection, classifiers, measured: dict):
    """The deltas and records of :func:`performance_deltas` from the
    grid's ``measured`` cells."""
    deltas: dict[tuple[SelectorId, str, str], dict[int, float]] = {}
    records: list[str] = []
    for j, split in enumerate(grid.splits):
        if not split.test.has_both_classes():
            records.append(f"sample {j}: single-class test set, AUC skipped")
        for clf in classifiers:
            base_vals = measured[(j, clf, split.train.metric_names)]
            if isinstance(base_vals, ComputationError):
                records.append(f"sample {j} {clf} all-metrics: {type(base_vals).__name__}: {base_vals}")
                continue
            for sel in grid.selectors:
                subset = grid.subsets[(sel, j)]
                if subset is None:
                    continue
                vals = measured[(j, clf, tuple(subset))]
                if isinstance(vals, ComputationError):
                    records.append(f"sample {j} {clf} {sel.value}: {type(vals).__name__}: {vals}")
                    continue
                for m in _MEASURES:
                    if m in vals:
                        deltas.setdefault((sel, clf, m), {})[j] = 100.0 * (vals[m] - base_vals[m])
    return deltas, records


def performance_deltas(grid: SubsetCollection, classifiers=_CLASSIFIERS):
    """Per-sample performance differences of the grid's subsets, selected
    minus all metrics, in percentage points: ``({(selector, classifier,
    measure): {sample: delta}}, records)``, samples in ascending order.
    A classifier other than "logistic" or "forest" raises ConfigError
    before any fit.

    Both models of a pair are fit on the grid's bootstrap training sample and
    scored on its test rows; training data is never re-balanced or
    re-sampled. Samples whose test set has one class are skipped for AUC
    (recorded once per sample), but still counted for F and MCC.

    Each (sample, classifier, ordered subset) is fit and scored once, by
    :func:`_run_cells`, which submits every forest to one pool: the
    all-metrics baseline and every selector that picked the subset share
    that model. A forest's seed is derived from the sample and the subset's
    names, so a selector that keeps every metric, in order, gets deltas of
    exactly zero.
    """
    _check_classifiers(classifiers)
    return _deltas(grid, classifiers, _run_cells(grid, classifiers)[1])


def _quartiles(values: list[float]) -> dict:
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    arr = np.asarray(values)
    return {
        "n": int(arr.size),
        "median": float(np.median(arr)),
        "q1": float(np.quantile(arr, 0.25)),
        "q3": float(np.quantile(arr, 0.75)),
    }


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}


def _from_json(value, hint, key: str):
    """``value`` checked against the type ``hint`` and built into it.

    ``hint`` is ``int``, ``float``, ``str``, ``SelectorId`` (a selector
    name), a config class (a JSON object), a union of these (a JSON object
    picks the config class) or of one with ``None``, or a tuple (a JSON
    list). Booleans are not numbers here; a float is finite, or an integer.
    """
    if get_origin(hint) in (Union, UnionType):
        if value is None and type(None) in get_args(hint):
            return None
        members = [a for a in get_args(hint) if a is not type(None)]
        if len(members) > 1:
            members = [a for a in members if is_dataclass(a) == isinstance(value, dict)]
        (hint,) = members
    if is_dataclass(hint):
        return _config_from_json(hint, value, key)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        args = get_args(hint)
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise ConfigError(f"{key} must be a list of {len(items)} values, got {value!r}")
        return tuple(_from_json(v, a, key) for v, a in zip(value, items))
    if hint is SelectorId:
        return parse_selector(_from_json(value, str, key))
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise ConfigError(f"{key} must be {_JSON_TYPES[hint]}, got {value!r}")
    if hint is float and not math.isfinite(value):  # the report could not echo it
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return hint(value)


def _config_from_json(cls, obj, key: str):
    """An instance of the config class ``cls`` from the JSON object ``obj``,
    every field read through its type annotation in declaration order."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{key} must be a JSON object, got {obj!r}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{key}: fields not allowed here: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in obj and f.default is f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{key}: missing fields: {missing}")
    hints = get_type_hints(cls)
    return cls(**{f.name: _from_json(obj[f.name], hints[f.name], f.name) for f in fields(cls) if f.name in obj})


def load_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object, reading the
    top-level ``_TOP_LEVEL`` settings into ``selector_config`` (whose object
    may be null or left out, and may not repeat them). Every field is
    checked here, before any work runs; a bad value raises ConfigError (an
    unknown selector name, UnsupportedSelector)."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    obj = dict(obj)
    nested = obj.pop("selector_config", None)
    top = {k: obj.pop(k) for k in _TOP_LEVEL if k in obj}
    # the selector settings are read last, so an unknown selector name
    # (exit 2) is found before any bad setting (exit 3)
    cfg = _config_from_json(ExperimentConfig, obj, "config")
    if nested is None:
        nested = {}
    if not isinstance(nested, dict):
        raise ConfigError(f"selector_config must be a JSON object, got {nested!r}")
    if set(nested) & set(_TOP_LEVEL):
        raise ConfigError(f"selector_config: fields not allowed here: {sorted(set(nested) & set(_TOP_LEVEL))}")
    return replace(cfg, selector_config=_config_from_json(SelectorConfig, {**nested, **top}, "selector_config"))


def _to_json(value):
    """The JSON form of a config value, with every field of a config class."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value.value if isinstance(value, SelectorId) else value


def _config_echo(cfg: ExperimentConfig) -> dict:
    """The config as :func:`load_config` reads it: the ``_TOP_LEVEL``
    selector settings moved out of ``selector_config`` to the top."""
    echo = _to_json(cfg)
    echo.update((k, echo["selector_config"].pop(k)) for k in _TOP_LEVEL)
    return echo


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Full pipeline: grid, consistency, correlation flags, performance
    deltas; returns the report's payload.

    The report echoes its configuration and seeds, so an identical re-run
    reproduces it byte for byte apart from the timestamp field. Its output
    paths are checked before any work runs: each must resolve, through any
    symlinks, to a regular file or a new one in an existing directory.
    """
    outputs = [path for path in (cfg.output, cfg.output_csv) if path]
    resolved = [os.path.realpath(path) for path in outputs]
    if len(set(resolved)) < len(resolved):
        raise ConfigError(f"output and output_csv name the same file {cfg.output!r}")
    for path, real in zip(outputs, resolved):
        if (os.path.exists(real) and not os.path.isfile(real)) or not os.path.isdir(os.path.dirname(real)):
            raise ConfigError(f"cannot write {path!r}: not a regular file in an existing directory")
    if isinstance(cfg.dataset, SyntheticSpec):
        d = generate_synthetic(cfg.dataset)
        dataset_id = f"synthetic(seed={cfg.dataset.seed})"
    else:
        d = load_csv(cfg.dataset, cfg.outcome_column)
        dataset_id = cfg.dataset

    selectors = cfg.selectors
    B = cfg.bootstrap_count
    plan = _plan(d, selectors, B, cfg.selector_config)
    grid, measured, flags = _run_cells(plan, cfg.classifiers, cfg.selector_config, flag=True)
    deltas, records = _deltas(grid, cfg.classifiers, measured)

    warnings: list[str] = []
    across_samples = {}
    for sel in selectors:
        subsets = grid.for_selector(sel)
        if not subsets:
            warnings.append(f"{sel.value}: no successful samples")
            continue
        res = consistency(subsets)
        if res.union_size == 0:
            warnings.append(f"{sel.value}: all selected subsets empty; consistency defined 0")
        across_samples[sel.value] = {
            "percentage": res.percentage,
            "intersection_size": res.intersection_size,
            "union_size": res.union_size,
        }

    across_selectors = []
    for j in range(B):
        subsets = grid.for_sample(j)
        across_selectors.append(consistency(subsets).percentage if subsets else None)

    flag_rows = {}
    for sel in selectors:
        cells = [flags[(sel, j)] for j in range(B) if (sel, j) in flags]
        n = len(cells)
        flag_rows[sel.value] = {
            "samples": n,
            "collinearity_pct": 100.0 * sum(f.has_collinearity for f in cells) / n if n else 0.0,
            "multicollinearity_pct": 100.0 * sum(f.has_multicollinearity for f in cells) / n if n else 0.0,
        }

    delta_stats = {
        f"{sel.value}|{clf}|{m}": _quartiles(list(deltas.get((sel, clf, m), {}).values()))
        for sel in selectors
        for clf in cfg.classifiers
        for m in _MEASURES
    }

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(cfg),
        "dataset": {
            "id": dataset_id,
            "modules": d.n_modules,
            "metrics": d.n_metrics,
        },
        "split_seeds": [split.seed for split in grid.splits],
        "consistency_across_samples": across_samples,
        "consistency_across_selectors": across_selectors,
        "correlation_flags": flag_rows,
        "performance_deltas": delta_stats,
        "failures": {f"{sel.value}|{j}": msg for (sel, j), msg in grid.failures.items()},
        "records": records,
        "warnings": warnings,
    }
    if cfg.output:
        write_report(payload, cfg.output)
    if cfg.output_csv:
        _write_cells_csv(cfg, grid, flags, deltas)
    return payload


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside the file ``path`` resolves to,
    then rename it over that file, so it never holds a partial file and a
    symlink at ``path`` still points to it. A rewritten file keeps its
    permission bits; a new one gets the mode ``open`` would give it, where
    ``tempfile.mkstemp``'s is owner-only."""
    path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if os.path.exists(path):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(payload: dict, path: str) -> None:
    """Atomic write: the timestamp rides outside the deterministic payload."""
    doc = dict(payload)
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _write_atomic(path, json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_cells_csv(cfg, grid: SubsetCollection, flags, deltas) -> None:
    """One row per (selector, sample) cell: its subset, flags and deltas."""
    delta_keys = [(clf, m) for clf in cfg.classifiers for m in _MEASURES]
    columns = ["selector", "sample", "subset_size", "metrics", "has_collinearity", "has_multicollinearity"]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns + [f"delta_{clf}_{m}" for clf, m in delta_keys])
    for sel in cfg.selectors:
        for j in range(len(grid.splits)):
            subset = grid.subsets[(sel, j)]
            cell_flags = flags.get((sel, j))
            cell_deltas = [deltas.get((sel, clf, m), {}).get(j) for clf, m in delta_keys]
            writer.writerow(
                [
                    sel.value,
                    j,
                    "" if subset is None else len(subset),
                    "FAILED" if subset is None else "|".join(subset),
                    "" if cell_flags is None else int(cell_flags.has_collinearity),
                    "" if cell_flags is None else int(cell_flags.has_multicollinearity),
                ]
                + ["" if x is None else format(x, ".6f") for x in cell_deltas]
            )
    _write_atomic(cfg.output_csv, text.getvalue())
