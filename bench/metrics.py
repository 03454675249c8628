"""Names, units and intended effects of every metric the benchmark emits.

``END_TO_END`` is what a user of ``corrsel`` waits for; it is measured with
tracing off. ``PER_LAYER`` comes from a separate traced run; each entry says
which end-to-end metric the layer should move, and on which workload, so a
change to one layer can be checked against its prediction.

``error_rate`` is printed with the end-to-end figures and carried by the
``attempted``/``failed`` counts of the result line, but it is not one of the
bounded metrics: it is 0 on a correct program, and bounded metrics must never
be 0.
"""

from __future__ import annotations

WORKLOADS = ("experiment-planted", "experiment-logistic", "select-wide")

#: name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Selectors the workloads run; RFE-RF runs in none of them.
SELECTOR_IDS = (
    "AutoSpearman", "CFS", "IG", "Chisq", "CON",
    "RFE-LR", "Step-FWD", "Step-BWD", "Step-BOTH",
)

_PLANTED = "ops_per_s on experiment-planted; no change on the other two"
_LOGISTIC = "ops_per_s on experiment-logistic; small on experiment-planted"
_WIDE = "op_p50_ms and ops_per_s on select-wide; under 1% of experiment-*"
_CON = "ops_per_s on experiment-logistic"
_GRID = "ops_per_s on experiment-logistic (the grid stage)"
_HARNESS = "ops_per_s on both experiment-*"

#: name -> (unit, what it should move). Counts and times are per op.
PER_LAYER = {
    "classifiers.fit_random_forest.calls": ("count/op", _PLANTED),
    "classifiers.fit_random_forest.self_s": ("s/op", _PLANTED),
    "classifiers.trees_grown": ("count/op", _PLANTED),
    "classifiers.score_rows.calls": ("count/op", _PLANTED),
    "classifiers.score_rows.self_s": ("s/op", _PLANTED),
    "classifiers.fit_logistic.calls": ("count/op", _LOGISTIC),
    "classifiers.fit_logistic.self_s": ("s/op", _LOGISTIC),
    "classifiers.logistic_iterations": ("count/op", _LOGISTIC),
    "classifiers.logistic_nonconverged": ("count/op", _LOGISTIC),
    "classifiers.importance.calls": ("count/op", _LOGISTIC),
    "classifiers.importance.self_s": ("s/op", _LOGISTIC),
    "stats.vif_scores.calls": ("count/op", _WIDE),
    "stats.vif_scores.self_s": ("s/op", _WIDE),
    "stats.ols_r_squared.calls": ("count/op", _WIDE),
    "stats.ols_r_squared.self_s": ("s/op", _WIDE),
    "stats.spearman_matrix.calls": ("count/op", _WIDE),
    "stats.spearman_matrix.self_s": ("s/op", _WIDE),
    "stats.inconsistency_rate.calls": ("count/op", _CON),
    "stats.inconsistency_rate.self_s": ("s/op", _CON),
    "stats.discretize_equal_frequency.calls": ("count/op", _CON),
    "stats.discretize_equal_frequency.self_s": ("s/op", _CON),
    "autospearman.spearman_phase.self_s": ("s/op", "select-wide"),
    "autospearman.vif_phase.self_s": ("s/op", "select-wide"),
    "autospearman.vif_passes": ("count/op", "select-wide"),
    "autospearman.removed": ("count/op", "select-wide"),
    "selectors.select.calls": ("count/op", _GRID),
    **{f"selectors.{sid}.self_s": ("s/op", _GRID) for sid in SELECTOR_IDS},
    "harness.run_experiment.self_s": ("s/op", _HARNESS),
    "harness.run_selection_grid.self_s": ("s/op", _HARNESS),
    "harness.performance_deltas.self_s": ("s/op", _HARNESS),
    "harness.correlation_flags.calls": ("count/op", _HARNESS),
    "harness.correlation_flags.self_s": ("s/op", _HARNESS),
    "harness.write_report.self_s": ("s/op", _HARNESS),
    # distinct split seeds / bootstrap_sample calls made by the harness;
    # 1 when the harness draws no split at all
    "harness.split_useful_ratio": ("ratio", "a single split plan moves it on both experiment-*"),
    "harness.cell_failures": ("count/op", "error_rate on both experiment-*"),
    "data.bootstrap_sample.calls": ("count/op", _HARNESS),
    "data.bootstrap_sample.self_s": ("s/op", _HARNESS),
    "data.empty_test_reseeds": ("count/op", _HARNESS),
    "data.load_csv.calls": ("count/op", "select-wide, once VIF is fast"),
    "data.load_csv.self_s": ("s/op", "select-wide, once VIF is fast"),
    "evaluation.auc.calls": ("count/op", _HARNESS),
    "evaluation.self_s": ("s/op", _HARNESS),
    "cli.main.self_s": ("s/op", "every workload, slightly"),
    "trace.op_s": ("s/op", "traced op wall time, the base of every self_s share"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced wall time of the same ops"),
}
