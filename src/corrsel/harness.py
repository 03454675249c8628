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
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import signal
import stat
import time
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import partial
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


# set in each forked worker of an ordered map: the (function, tasks) it runs,
# inherited through fork, so a task crosses the process boundary as its index
_worker_job = None


def _start_worker(fn, tasks) -> None:
    global _worker_job
    _worker_job = (fn, tasks)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to answer


def _run_task(i: int):
    fn, tasks = _worker_job
    return fn(tasks[i])


def _ordered_map(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, run on forked workers, one per usable CPU.

    Results come back in task order, so what is built from them does not
    depend on the worker count; only results and a task's exception are
    pickled. Workers fork, so they start without an import and see the
    caller's data as it is. The map runs in this process when there is one
    usable CPU or one task, when the platform cannot fork, or when this
    process is a daemon (which may not start children).

    Each task is sent to a worker on its own. A worker that dies, say
    killed by a signal, ends the map with a ComputationError. Workers ignore
    SIGINT: on Ctrl-C, or when a task raises, the caller terminates the
    workers and re-raises; child processes it started before the map are
    left alone.
    """
    tasks = list(tasks)
    workers = min(_usable_cpus(), len(tasks))
    if workers > 1:
        # imported here, so that commands which run no map do not pay for it
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            fork = multiprocessing.get_context("fork")
            before = set(multiprocessing.active_children())
            with ProcessPoolExecutor(workers, fork, _start_worker, (fn, tasks)) as pool:
                try:
                    futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
                    return [future.result() for future in futures]
                except BrokenProcessPool:
                    name = getattr(fn, "func", fn).__name__
                    raise ComputationError(f"a worker died while mapping {name} over {len(tasks)} tasks") from None
                except BaseException:
                    # a task raised, or Ctrl-C: stop this map's workers now. Cancelling the
                    # tasks not yet run would race the pool's clean-up of killed workers.
                    for child in set(multiprocessing.active_children()) - before:
                        child.terminate()
                    raise
    return [fn(t) for t in tasks]


def run_selection_grid(
    d: Dataset, selectors, B: int, config: SelectorConfig = SelectorConfig()
) -> SubsetCollection:
    """Apply every selector to each of B bootstrap training samples.

    Sample j's split seed is derived from (``config.base_seed``, j) and its
    cell of selector i from (``config.base_seed``, j, i).

    Each sample is one task of :func:`_ordered_map`. The selectors of one
    sample share one logistic fit memo, dropped when the sample is done; a
    memo hit is the fit a fresh call would make, so no cell depends on the
    cells run before it. Per-cell failures are recorded, never fatal; the
    grid stays complete.
    """
    if B < 1:
        raise ConfigError("bootstrap_count must be >= 1")
    if d.n_modules < 2:
        # every draw would take the only row, so no split ever has a test side
        raise DataError(f"bootstrap samples need at least 2 rows, got {d.n_modules}")
    selectors = tuple(selectors)
    base_seed = config.base_seed
    splits = [bootstrap_sample(d, derive_seed(base_seed, j)) for j in range(B)]

    def sample_cells(j: int) -> list[tuple[MetricSubset | None, str | None]]:
        memo: dict = {}
        cells = []
        for i, sel in enumerate(selectors):
            try:
                cells.append((select(sel, splits[j].train, config, derive_seed(base_seed, j, i), memo), None))
            except CorrselError as exc:
                cells.append((None, f"{type(exc).__name__}: {exc}"))
        return cells

    subsets: dict[tuple[SelectorId, int], MetricSubset | None] = {}
    failures: dict[tuple[SelectorId, int], str] = {}
    for j, cells in enumerate(_ordered_map(sample_cells, range(B))):
        for sel, (subset, failure) in zip(selectors, cells):
            subsets[(sel, j)] = subset
            if failure is not None:
                failures[(sel, j)] = failure
    return SubsetCollection(subsets, failures, selectors, base_seed, tuple(splits))


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


def _flag_cells(grid: SubsetCollection, sp_t: float, vif_t: float) -> dict[tuple[SelectorId, int], CorrelationFlags]:
    """Correlation flags of each selected subset on its own training sample."""
    return {
        (sel, j): correlation_flags(subset, grid.splits[j].train, sp_t, vif_t)
        for (sel, j), subset in grid.subsets.items()
        if subset is not None
    }


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

    Each (sample, classifier, ordered subset) is fit and scored once, a
    forest as one task of :func:`_ordered_map`: the all-metrics baseline
    and every selector that picked the subset share that model. A forest's
    seed is derived from the sample and the subset's names, so a selector
    that keeps every metric, in order, gets deltas of exactly zero.
    """
    _check_classifiers(classifiers)
    cells = []  # distinct (sample, classifier, ordered subset), baselines first
    for j, split in enumerate(grid.splits):
        for clf in classifiers:
            cells.append((j, clf, split.train.metric_names))
            cells.extend(
                (j, clf, tuple(grid.subsets[(sel, j)]))
                for sel in grid.selectors
                if grid.subsets[(sel, j)] is not None
            )
    cells = list(dict.fromkeys(cells))

    # a forest cell grows 100 trees; a logistic cell is one IRLS fit of a few
    # milliseconds, less than starting the workers costs, so it runs here
    forests = [cell for cell in cells if cell[1] == "forest"]
    measured = dict(zip(forests, _ordered_map(partial(_cell_measures, grid), forests)))  # measures, or the fit's error
    measured.update((cell, _cell_measures(grid, cell)) for cell in cells if cell[1] != "forest")

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
    grid = run_selection_grid(d, selectors, B, cfg.selector_config)
    flags = _flag_cells(grid, cfg.selector_config.sp_t, cfg.selector_config.vif_t)
    deltas, records = performance_deltas(grid, cfg.classifiers)

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
