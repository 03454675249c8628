"""Bootstrap experiment harness.

Runs a set of selection techniques over B out-of-sample bootstrap samples of
one dataset and aggregates three views: subset consistency (across samples
per technique, and across techniques per sample), correlation flags of the
selected subsets on their training samples, and model-performance deltas of
selected-metrics models against all-metrics models on the same split.

Everything is seeded: the per-sample split seed is derived from
(base_seed, sample index) and each grid cell from (base_seed, sample index,
selector index), so a report re-runs bit-for-bit from its echoed
configuration.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .autospearman import AutoSpearmanParams, MetricSubset
from .classifiers import fit_logistic, fit_random_forest, score_rows
from .data import Dataset, BootstrapSplit, SyntheticSpec, bootstrap_sample, generate_synthetic, load_csv
from .errors import ComputationError, ConfigError, CorrselError, EmptyTestSet, SingleClass
from .evaluation import auc, confusion_at, f_measure, mcc
from .seeding import DEFAULT_SEED, RESEED_OFFSET, derive_seed
from .selectors import SelectorConfig, SelectorId, parse_selector, select
from .stats import spearman_matrix, vif_scores

SCHEMA_VERSION = 1

_MEASURES = ("AUC", "F", "MCC")

_CLASSIFIERS = ("logistic", "forest")


@dataclass(frozen=True)
class SubsetCollection:
    """Complete (selector x sample) grid of selected subsets.

    ``splits`` holds the bootstrap split of each sample, drawn once, so the
    later stages score and flag on the very rows the selectors saw.
    """

    subsets: dict[tuple[SelectorId, int], MetricSubset | None]
    failures: dict[tuple[SelectorId, int], str]
    sample_count: int
    dataset_id: str
    split_seeds: tuple[int, ...]
    splits: tuple[BootstrapSplit, ...]

    def for_selector(self, sel: SelectorId) -> list[MetricSubset]:
        return [
            self.subsets[(sel, j)]
            for j in range(self.sample_count)
            if self.subsets[(sel, j)] is not None
        ]

    def for_sample(self, j: int) -> list[MetricSubset]:
        return [
            subset
            for (sel, jj), subset in sorted(self.subsets.items(), key=lambda kv: kv[0][0].value)
            if jj == j and subset is not None
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

    def resolved_selector_config(self) -> SelectorConfig:
        base = self.selector_config or SelectorConfig()
        return SelectorConfig(
            bins=self.bins,
            ranking_rule=base.ranking_rule,
            ranking_top_k=base.ranking_top_k,
            rfe_resamples=base.rfe_resamples,
            rfe_sizes=base.rfe_sizes,
            rfe_ntree=base.rfe_ntree,
            stepwise_max_steps=base.stepwise_max_steps,
            stall_limit=base.stall_limit,
            base_seed=self.base_seed,
            sp_t=self.sp_t,
            vif_t=self.vif_t,
        )


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


def run_selection_grid(
    d: Dataset,
    selectors,
    B: int,
    base_seed: int = DEFAULT_SEED,
    config: SelectorConfig = SelectorConfig(),
    dataset_id: str = "dataset",
) -> SubsetCollection:
    """Apply every selector to each of B bootstrap training samples.

    Per-cell failures are recorded, never fatal; the grid stays complete.
    """
    if B < 1:
        raise ConfigError("bootstrap_count must be >= 1")
    selectors = list(selectors)
    splits: list[BootstrapSplit] = []
    split_seeds: list[int] = []
    for j in range(B):
        split, used = _split_with_retry(d, derive_seed(base_seed, j))
        splits.append(split)
        split_seeds.append(used)

    subsets: dict[tuple[SelectorId, int], MetricSubset | None] = {}
    failures: dict[tuple[SelectorId, int], str] = {}
    for i, sel in enumerate(selectors):
        for j in range(B):
            try:
                subsets[(sel, j)] = select(sel, splits[j].train, config, derive_seed(base_seed, j, i))
            except CorrselError as exc:
                subsets[(sel, j)] = None
                failures[(sel, j)] = f"{type(exc).__name__}: {exc}"
    return SubsetCollection(subsets, failures, B, dataset_id, tuple(split_seeds), tuple(splits))


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


def performance_deltas(
    d: Dataset,
    selectors,
    B: int,
    classifiers=_CLASSIFIERS,
    base_seed: int = DEFAULT_SEED,
    config: SelectorConfig = SelectorConfig(),
    grid: SubsetCollection | None = None,
):
    """Per-sample performance differences, selected minus all metrics.

    Both models of a pair are fit on the same bootstrap training sample and
    scored on the same test rows; training data is never re-balanced or
    re-sampled. Samples whose test set has one class are skipped for AUC
    (recorded), but still counted for F and MCC. The splits are the grid's;
    ``B`` and ``config`` only build the grid when none is given.
    """
    selectors = list(selectors)
    if grid is None:
        grid = run_selection_grid(d, selectors, B, base_seed, config)
    deltas: list[PerformanceDelta] = []
    records: list[str] = []
    all_names = list(d.metric_names)
    for j, split in enumerate(grid.splits):
        for clf in classifiers:
            try:
                base_scores = _fit_and_score(clf, split.train, all_names, split.test, derive_seed(base_seed, j, 101))
            except ComputationError as exc:
                records.append(f"sample {j} {clf} all-metrics: {type(exc).__name__}: {exc}")
                continue
            base_cm = confusion_at(base_scores, split.test.outcome)
            base_vals = {"F": f_measure(base_cm), "MCC": mcc(base_cm)}
            try:
                base_vals["AUC"] = auc(base_scores, split.test.outcome)
            except SingleClass:
                records.append(f"sample {j}: single-class test set, AUC skipped")
            for i, sel in enumerate(selectors):
                subset = grid.subsets.get((sel, j))
                if subset is None:
                    continue
                try:
                    sel_scores = _fit_and_score(clf, split.train, subset, split.test, derive_seed(base_seed, j, 202, i))
                except ComputationError as exc:
                    records.append(f"sample {j} {clf} {sel.value}: {type(exc).__name__}: {exc}")
                    continue
                cm = confusion_at(sel_scores, split.test.outcome)
                vals = {"F": f_measure(cm), "MCC": mcc(cm)}
                if "AUC" in base_vals:
                    try:
                        vals["AUC"] = auc(sel_scores, split.test.outcome)
                    except SingleClass:
                        pass
                for measure in _MEASURES:
                    if measure in vals and measure in base_vals:
                        deltas.append(
                            PerformanceDelta(
                                sel, clf, measure, j,
                                100.0 * (vals[measure] - base_vals[measure]),
                            )
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


def _number(obj: dict, key: str, default, kind):
    """``obj[key]`` (or ``default``) as a JSON integer (``kind`` int) or number."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        wanted = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {wanted}, got {value!r}")
    return kind(value)


def load_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object.

    Every field is checked here, before any work runs; a bad value raises
    ConfigError (an unknown selector name, UnsupportedSelector).
    """
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    known = {
        "dataset", "outcome_column", "selectors", "bootstrap_count", "base_seed",
        "sp_t", "vif_t", "bins", "classifiers", "output", "output_csv", "selector_config",
    }
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("outcome_column", "output", "output_csv"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            raise ConfigError(f"{key} must be a string, got {obj[key]!r}")
    dataset = obj.get("dataset")
    path, synthetic = None, None
    if isinstance(dataset, str):
        path = dataset
    elif isinstance(dataset, dict):
        try:
            synthetic = SyntheticSpec(
                base_metric_count=_number(dataset, "base_metric_count", None, int),
                module_count=_number(dataset, "module_count", None, int),
                signal_coefficients=tuple(dataset["signal_coefficients"]),
                clone_groups=tuple(tuple(g) for g in dataset.get("clone_groups", [])),
                seed=_number(dataset, "seed", 0, int),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic dataset spec: {exc}") from exc
    else:
        raise ConfigError("config needs a 'dataset' path or synthetic spec object")
    if path is not None and not obj.get("outcome_column"):
        raise ConfigError("outcome_column is required with a dataset path")

    names = obj.get("selectors", ["AutoSpearman"])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"selectors must be a list of selector names, got {names!r}")
    selectors = tuple(parse_selector(n) for n in names)
    classifiers = obj.get("classifiers", list(_CLASSIFIERS))
    if not isinstance(classifiers, list) or not all(c in _CLASSIFIERS for c in classifiers):
        raise ConfigError(
            f"classifiers must be a list drawn from {list(_CLASSIFIERS)}, got {classifiers!r}"
        )
    bootstrap_count = _number(obj, "bootstrap_count", 30, int)
    if bootstrap_count < 1:
        raise ConfigError("bootstrap_count must be >= 1")
    sp_t = _number(obj, "sp_t", 0.7, float)
    vif_t = _number(obj, "vif_t", 5.0, float)
    try:
        AutoSpearmanParams(sp_t, vif_t)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sc = None
    if "selector_config" in obj:
        if not isinstance(obj["selector_config"], dict):
            raise ConfigError("selector_config must be a JSON object")
        raw = dict(obj["selector_config"])
        # bins/sp_t/vif_t/base_seed live at the top level of the config
        allowed = {
            "ranking_rule", "ranking_top_k", "rfe_resamples", "rfe_sizes",
            "rfe_ntree", "stepwise_max_steps", "stall_limit",
        }
        bad = set(raw) - allowed
        if bad:
            raise ConfigError(f"selector_config fields not allowed here: {sorted(bad)}")
        try:
            if raw.get("rfe_sizes") is not None:
                raw["rfe_sizes"] = tuple(raw["rfe_sizes"])
            sc = SelectorConfig(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad selector_config: {exc}") from exc
    cfg = ExperimentConfig(
        dataset_path=path,
        outcome_column=obj.get("outcome_column"),
        synthetic=synthetic,
        selectors=selectors,
        bootstrap_count=bootstrap_count,
        base_seed=_number(obj, "base_seed", DEFAULT_SEED, int),
        sp_t=sp_t,
        vif_t=vif_t,
        bins=_number(obj, "bins", 10, int),
        classifiers=tuple(classifiers),
        output=obj.get("output"),
        output_csv=obj.get("output_csv"),
        selector_config=sc,
    )
    cfg.resolved_selector_config()  # checks bins
    return cfg


def _config_echo(cfg: ExperimentConfig) -> dict:
    if cfg.synthetic is not None:
        dataset = {
            "base_metric_count": cfg.synthetic.base_metric_count,
            "module_count": cfg.synthetic.module_count,
            "signal_coefficients": list(cfg.synthetic.signal_coefficients),
            "clone_groups": [list(g) for g in cfg.synthetic.clone_groups],
            "seed": cfg.synthetic.seed,
        }
    else:
        dataset = cfg.dataset_path
    sc = cfg.resolved_selector_config()
    return {
        "dataset": dataset,
        "outcome_column": cfg.outcome_column,
        "selectors": [s.value for s in cfg.selectors],
        "bootstrap_count": cfg.bootstrap_count,
        "base_seed": cfg.base_seed,
        "sp_t": cfg.sp_t,
        "vif_t": cfg.vif_t,
        "bins": cfg.bins,
        "classifiers": list(cfg.classifiers),
        "output": cfg.output,
        "output_csv": cfg.output_csv,
        "selector_config": {
            "ranking_rule": sc.ranking_rule,
            "ranking_top_k": sc.ranking_top_k,
            "rfe_resamples": sc.rfe_resamples,
            "rfe_sizes": list(sc.rfe_sizes) if sc.rfe_sizes else None,
            "rfe_ntree": sc.rfe_ntree,
            "stepwise_max_steps": sc.stepwise_max_steps,
            "stall_limit": sc.stall_limit,
        },
    }


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

    sel_config = cfg.resolved_selector_config()
    selectors = list(cfg.selectors)
    B = cfg.bootstrap_count
    grid = run_selection_grid(d, selectors, B, cfg.base_seed, sel_config, dataset_id)

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
        if not subsets:
            across_selectors.append(None)
            continue
        res = consistency_across_selectors(subsets, j)
        across_selectors.append(res.percentage)

    flag_rows = {}
    flags_by_cell: dict[tuple[str, int], CorrelationFlags] = {}
    for sel in selectors:
        coll = 0
        multi = 0
        counted = 0
        for j in range(B):
            subset = grid.subsets.get((sel, j))
            if subset is None:
                continue
            flags = correlation_flags(subset, grid.splits[j].train, cfg.sp_t, cfg.vif_t)
            flags_by_cell[(sel.value, j)] = flags
            counted += 1
            coll += flags.has_collinearity
            multi += flags.has_multicollinearity
        flag_rows[sel.value] = {
            "samples": counted,
            "collinearity_pct": 100.0 * coll / counted if counted else 0.0,
            "multicollinearity_pct": 100.0 * multi / counted if counted else 0.0,
        }

    delta_stats: dict[str, dict] = {}
    deltas: list[PerformanceDelta] = []
    records: list[str] = []
    if cfg.classifiers:
        deltas, records = performance_deltas(
            d, selectors, B, cfg.classifiers, cfg.base_seed, sel_config, grid
        )
        for sel in selectors:
            for clf in cfg.classifiers:
                for measure in _MEASURES:
                    vals = [
                        x.delta
                        for x in deltas
                        if x.selector is sel and x.classifier == clf and x.measure == measure
                    ]
                    delta_stats[f"{sel.value}|{clf}|{measure}"] = _quartiles(vals)

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
        "failures": {f"{sel.value}|{j}": msg for (sel, j), msg in sorted(
            grid.failures.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        )},
        "records": records,
        "warnings": warnings,
    }
    report = ExperimentReport(payload)

    if cfg.output:
        write_report(report, cfg.output)
    if cfg.output_csv:
        _write_cells_csv(cfg, grid, flags_by_cell, deltas)
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


def _write_cells_csv(cfg, grid: SubsetCollection, flags_by_cell, deltas) -> None:
    delta_index: dict[tuple[str, int], dict[str, float]] = {}
    for x in deltas:
        delta_index.setdefault((x.selector.value, x.sample_index), {})[
            f"{x.classifier}_{x.measure}"
        ] = x.delta
    columns = ["selector", "sample", "subset_size", "metrics", "has_collinearity", "has_multicollinearity"]
    delta_cols = [f"delta_{clf}_{m}" for clf in cfg.classifiers for m in _MEASURES]
    with open(cfg.output_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns + delta_cols)
        for sel in cfg.selectors:
            for j in range(grid.sample_count):
                subset = grid.subsets.get((sel, j))
                flags = flags_by_cell.get((sel.value, j))
                dd = delta_index.get((sel.value, j), {})
                writer.writerow(
                    [
                        sel.value,
                        j,
                        len(subset) if subset is not None else "",
                        "|".join(subset) if subset is not None else "FAILED",
                        "" if flags is None else int(flags.has_collinearity),
                        "" if flags is None else int(flags.has_multicollinearity),
                    ]
                    + [format(dd[c.removeprefix("delta_")], ".6f") if c.removeprefix("delta_") in dd else "" for c in delta_cols]
                )
