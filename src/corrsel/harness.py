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
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .autospearman import AutoSpearmanParams, MetricSubset
from .classifiers import fit_logistic, fit_random_forest, score_rows
from .data import Dataset, BootstrapSplit, SyntheticSpec, bootstrap_sample, generate_synthetic, load_csv
from .errors import ComputationError, ConfigError, CorrselError, DataError, EmptyTestSet, SingleClass
from .evaluation import auc, confusion_at, f_measure, mcc
from .seeding import DEFAULT_SEED, RESEED_OFFSET, derive_seed
from .selectors import SelectorConfig, SelectorId, parse_selector, select
from .stats import spearman_matrix, vif_scores

SCHEMA_VERSION = 1

_MEASURES = ("AUC", "F", "MCC")

_CLASSIFIERS = ("logistic", "forest")

# SelectorConfig fields that a config sets once, at its top level
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
    split_seeds: tuple[int, ...]
    splits: tuple[BootstrapSplit, ...]

    @property
    def sample_count(self) -> int:
        return len(self.splits)

    def for_selector(self, sel: SelectorId) -> list[MetricSubset]:
        return [
            self.subsets[(sel, j)]
            for j in range(self.sample_count)
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
    scope: tuple[str, object]  # ("across_samples", SelectorId) | ("across_selectors", int)
    percentage: float
    intersection_size: int
    union_size: int


@dataclass(frozen=True)
class CorrelationFlags:
    has_collinearity: bool
    has_multicollinearity: bool


@dataclass(frozen=True)
class PerformanceDelta:
    selector: SelectorId
    classifier: str  # "logistic" | "forest"
    measure: str  # "AUC" | "F" | "MCC"
    sample_index: int
    delta: float  # percentage points, selected minus all-metrics


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str | None = None
    outcome_column: str | None = None
    synthetic: SyntheticSpec | None = None
    selectors: tuple[SelectorId, ...] = (SelectorId.AUTOSPEARMAN,)
    bootstrap_count: int = 30
    base_seed: int = DEFAULT_SEED
    sp_t: float = 0.7
    vif_t: float = 5.0
    bins: int = 10
    classifiers: tuple[str, ...] = _CLASSIFIERS
    output: str | None = None
    output_csv: str | None = None
    selector_config: SelectorConfig | None = None

    def __post_init__(self):
        if self.dataset_path is not None and not self.outcome_column:
            raise ConfigError("outcome_column is required with a dataset path")
        if len(set(self.selectors)) != len(self.selectors):
            raise ConfigError(f"duplicate selectors: {[s.value for s in self.selectors]}")
        if self.bootstrap_count < 1:
            raise ConfigError("bootstrap_count must be >= 1")
        if not set(self.classifiers) <= set(_CLASSIFIERS):
            raise ConfigError(
                f"classifiers must be drawn from {list(_CLASSIFIERS)}, got {list(self.classifiers)}"
            )
        AutoSpearmanParams(self.sp_t, self.vif_t)
        self.resolved_selector_config()  # checks bins

    def resolved_selector_config(self) -> SelectorConfig:
        """The selector settings, with those set at the top level of the config."""
        base = self.selector_config or SelectorConfig()
        return replace(base, **{k: getattr(self, k) for k in _TOP_LEVEL})


# fields that a config class's JSON form does not take: the dataset arrives as
# one "dataset" value (a path or a synthetic spec), and the top-level fields
# are not repeated inside "selector_config"
_NOT_IN_JSON = {ExperimentConfig: ("dataset_path", "synthetic"), SelectorConfig: _TOP_LEVEL}


@dataclass
class ExperimentReport:
    payload: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2, allow_nan=False)


def _split_with_retry(d: Dataset, seed: int) -> tuple[BootstrapSplit, int]:
    while True:
        try:
            return bootstrap_sample(d, seed), seed
        except EmptyTestSet:
            seed = (seed + RESEED_OFFSET) % (1 << 64)


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
    """
    tasks = list(tasks)
    workers = min(_usable_cpus(), len(tasks))
    if workers > 1:
        import multiprocessing  # here, so that commands which run no map do not pay its import

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            with multiprocessing.get_context("fork").Pool(workers, _start_worker, (fn, tasks)) as pool:
                results = pool.map(_run_task, range(len(tasks)), chunksize=1)
                pool.close()
                pool.join()
            return results
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
    drawn = [_split_with_retry(d, derive_seed(base_seed, j)) for j in range(B)]
    splits = [split for split, _ in drawn]

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
    return SubsetCollection(subsets, failures, selectors, base_seed, tuple(used for _, used in drawn), tuple(splits))


def _consistency(subsets: list[MetricSubset], scope) -> ConsistencyResult:
    sets = [set(s) for s in subsets]
    if not sets:
        raise ConfigError("consistency needs at least one subset")
    inter = set.intersection(*sets)
    union = set.union(*sets)
    pct = 100.0 * len(inter) / len(union) if union else 0.0
    return ConsistencyResult(scope, pct, len(inter), len(union))


def consistency_across_samples(subsets: list[MetricSubset], selector=None) -> ConsistencyResult:
    """100 * |intersection| / |union| over one technique's per-sample subsets."""
    return _consistency(subsets, ("across_samples", selector))


def consistency_across_selectors(subsets_one_sample: list[MetricSubset], sample_index=None) -> ConsistencyResult:
    """Same formula over the per-technique subsets of a single sample."""
    return _consistency(subsets_one_sample, ("across_selectors", sample_index))


def correlation_flags(
    subset: MetricSubset, train: Dataset, sp_t: float = 0.7, vif_t: float = 5.0
) -> CorrelationFlags:
    """Strictly-above-threshold collinearity and multicollinearity checks.

    Unlike the eliminator (which compares with >=), these diagnostic flags
    use strict > on both thresholds. Empty and singleton subsets flag false.
    """
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


def _intercept_only_scores(train: Dataset, test: Dataset) -> np.ndarray:
    rate = float(np.count_nonzero(train.outcome)) / train.n_modules
    return np.full(test.n_modules, rate)


def _fit_and_score(classifier: str, train: Dataset, subset, test: Dataset, seed: int) -> np.ndarray:
    if not subset:
        return _intercept_only_scores(train, test)
    if classifier == "logistic":
        model = fit_logistic(train, subset)
    elif classifier == "forest":
        model = fit_random_forest(train, subset, ntree=100, seed=seed)
    else:
        raise ConfigError(f"unknown classifier {classifier!r}")
    return score_rows(model, test)


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


def _cell_measures(clf: str, split: BootstrapSplit, subset: tuple[str, ...], base_seed: int, j: int):
    """The measures of one model fit on sample j's training rows and scored
    on its test rows, or the ComputationError its fit raised. A forest's
    seed is keyed on the sample and the subset, not on who picked it."""
    seed = derive_seed(base_seed, j, 202, _subset_key(subset))
    try:
        scores = _fit_and_score(clf, split.train, subset, split.test, seed)
    except ComputationError as exc:
        return exc
    return _measures(scores, split.test.outcome)


def performance_deltas(grid: SubsetCollection, classifiers=_CLASSIFIERS):
    """Per-sample performance differences of the grid's subsets, selected
    minus all metrics.

    Both models of a pair are fit on the grid's bootstrap training sample and
    scored on its test rows; training data is never re-balanced or
    re-sampled. Samples whose test set has one class are skipped for AUC
    (recorded), but still counted for F and MCC.

    Each (sample, classifier, ordered subset) is fit and scored once, a
    forest as one task of :func:`_ordered_map`: the all-metrics baseline
    and every selector that picked the subset share that model. A forest's
    seed is derived from the sample and the subset's names, so a selector
    that keeps every metric, in order, gets deltas of exactly zero.
    """
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

    def measure(cell):
        j, clf, subset = cell
        return _cell_measures(clf, grid.splits[j], subset, grid.base_seed, j)

    # a forest cell grows 100 trees; a logistic cell is one IRLS fit of a few
    # milliseconds, less than starting the workers costs, so it runs here
    forests = [cell for cell in cells if cell[1] == "forest"]
    measured = dict(zip(forests, _ordered_map(measure, forests)))  # measures, or the fit's error
    measured.update((cell, measure(cell)) for cell in cells if cell[1] != "forest")

    deltas: list[PerformanceDelta] = []
    records: list[str] = []
    for j, split in enumerate(grid.splits):
        for clf in classifiers:
            base_vals = measured[(j, clf, split.train.metric_names)]
            if isinstance(base_vals, ComputationError):
                records.append(f"sample {j} {clf} all-metrics: {type(base_vals).__name__}: {base_vals}")
                continue
            if "AUC" not in base_vals:
                records.append(f"sample {j}: single-class test set, AUC skipped")
            for sel in grid.selectors:
                subset = grid.subsets[(sel, j)]
                if subset is None:
                    continue
                vals = measured[(j, clf, tuple(subset))]
                if isinstance(vals, ComputationError):
                    records.append(f"sample {j} {clf} {sel.value}: {type(vals).__name__}: {vals}")
                    continue
                deltas.extend(
                    PerformanceDelta(sel, clf, m, j, 100.0 * (vals[m] - base_vals[m]))
                    for m in _MEASURES
                    if m in vals
                )
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
    name), a config class (a JSON object), ``X | None`` or a tuple (a JSON
    list). Booleans are not numbers here, and an integer is a valid float.
    """
    if get_origin(hint) in (Union, UnionType):
        if value is None:
            return None
        (hint,) = [a for a in get_args(hint) if a is not type(None)]
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
    return hint(value)


def _config_from_json(cls, obj, key: str, **given):
    """An instance of the config class ``cls`` from the JSON object ``obj``.

    Every field is read through its type annotation; ``given`` supplies the
    fields the JSON form does not take.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{key} must be a JSON object, got {obj!r}")
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls) if f.name not in _NOT_IN_JSON.get(cls, ())]
    unknown = set(obj) - set(names)
    if unknown:
        raise ConfigError(f"{key}: fields not allowed here: {sorted(unknown)}")
    values = {k: _from_json(obj[k], hints[k], k) for k in names if k in obj}
    try:
        return cls(**values, **given)
    except (TypeError, ValueError) as exc:  # a missing field, or a value out of range
        raise ConfigError(f"bad {key}: {exc}") from exc


def load_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object.

    Every field is checked here, before any work runs; a bad value raises
    ConfigError (an unknown selector name, UnsupportedSelector).
    """
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    obj = dict(obj)
    dataset = obj.pop("dataset", None)
    if isinstance(dataset, str):
        given = {"dataset_path": dataset}
    elif isinstance(dataset, dict):
        given = {"synthetic": _config_from_json(SyntheticSpec, dataset, "dataset")}
    else:
        raise ConfigError("config needs a 'dataset' path or synthetic spec object")
    return _config_from_json(ExperimentConfig, obj, "config", **given)


def _to_json(value):
    """The JSON form of a config value, as :func:`load_config` reads it."""
    if is_dataclass(value):
        skip = _NOT_IN_JSON.get(type(value), ())
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value) if f.name not in skip}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value.value if isinstance(value, SelectorId) else value


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = _to_json(replace(cfg, selector_config=cfg.resolved_selector_config()))
    echo["dataset"] = cfg.dataset_path if cfg.synthetic is None else _to_json(cfg.synthetic)
    return echo


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Full pipeline: grid, consistency, correlation flags, performance deltas.

    The report echoes its configuration and seeds, so an identical re-run
    reproduces it byte for byte apart from the timestamp field.
    """
    if cfg.synthetic is not None:
        d = generate_synthetic(cfg.synthetic)
        dataset_id = f"synthetic(seed={cfg.synthetic.seed})"
    elif cfg.dataset_path:
        d = load_csv(cfg.dataset_path, cfg.outcome_column)
        dataset_id = cfg.dataset_path
    else:
        raise ConfigError("config needs a dataset")

    selectors = cfg.selectors
    B = cfg.bootstrap_count
    grid = run_selection_grid(d, selectors, B, cfg.resolved_selector_config())
    flags = _flag_cells(grid, cfg.sp_t, cfg.vif_t)
    deltas, records = performance_deltas(grid, cfg.classifiers)
    by_cell: dict[tuple[SelectorId, str, str], dict[int, float]] = {}
    for x in deltas:
        by_cell.setdefault((x.selector, x.classifier, x.measure), {})[x.sample_index] = x.delta

    warnings: list[str] = []
    across_samples = {}
    for sel in selectors:
        subsets = grid.for_selector(sel)
        if not subsets:
            warnings.append(f"{sel.value}: no successful samples")
            continue
        res = consistency_across_samples(subsets, sel)
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
        across_selectors.append(consistency_across_selectors(subsets, j).percentage if subsets else None)

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
        f"{sel.value}|{clf}|{m}": _quartiles(list(by_cell.get((sel, clf, m), {}).values()))
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
        "split_seeds": list(grid.split_seeds),
        "consistency_across_samples": across_samples,
        "consistency_across_selectors": across_selectors,
        "correlation_flags": flag_rows,
        "performance_deltas": delta_stats,
        "failures": {f"{sel.value}|{j}": msg for (sel, j), msg in grid.failures.items()},
        "records": records,
        "warnings": warnings,
    }
    report = ExperimentReport(payload)

    if cfg.output:
        write_report(report, cfg.output)
    if cfg.output_csv:
        _write_cells_csv(cfg, grid, flags, by_cell)
    return report


def write_report(report: ExperimentReport, path: str) -> None:
    """Atomic write: the timestamp rides outside the deterministic payload."""
    doc = dict(report.payload)
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_cells_csv(cfg, grid: SubsetCollection, flags, by_cell) -> None:
    """One row per (selector, sample) cell: its subset, flags and deltas."""
    delta_keys = [(clf, m) for clf in cfg.classifiers for m in _MEASURES]
    columns = ["selector", "sample", "subset_size", "metrics", "has_collinearity", "has_multicollinearity"]
    with open(cfg.output_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns + [f"delta_{clf}_{m}" for clf, m in delta_keys])
        for sel in cfg.selectors:
            for j in range(grid.sample_count):
                subset = grid.subsets[(sel, j)]
                cell_flags = flags.get((sel, j))
                deltas = [by_cell.get((sel, clf, m), {}).get(j) for clf, m in delta_keys]
                writer.writerow(
                    [
                        sel.value,
                        j,
                        "" if subset is None else len(subset),
                        "FAILED" if subset is None else "|".join(subset),
                        "" if cell_flags is None else int(cell_flags.has_collinearity),
                        "" if cell_flags is None else int(cell_flags.has_multicollinearity),
                    ]
                    + ["" if x is None else format(x, ".6f") for x in deltas]
                )
