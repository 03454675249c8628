"""In-memory span tracer that wraps ``corrsel`` functions where callers look them up.

A module that does ``from .stats import vif_scores`` calls the function
through its own attribute, so each binding is wrapped at the module that
makes the call (``corrsel.autospearman.vif_scores``, not
``corrsel.stats.vif_scores``). The program's source is not touched.

A span is ``[name, start, end, parent, op]``; spans are recorded only while
``Tracer.op`` is set, so code run between ops (such as the output checks)
passes through unrecorded. Every wrapped binding is put back on exit from
``Tracer.installed()``, also when the traced code raises.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict

from corrsel.errors import CorrselError, EmptyTestSet
from metrics import PER_LAYER


def _selector_span(args, kwargs):
    sel = args[0] if args else kwargs["id"]
    return f"selectors.{sel.value}"


def _count_logistic(tracer, args, result):
    tracer.counts["classifiers.logistic_iterations"] += result.iterations_used
    tracer.counts["classifiers.logistic_nonconverged"] += not result.converged


def _count_trees(tracer, args, result):
    tracer.counts["classifiers.trees_grown"] += len(result.trees)


def _count_removed(tracer, args, result):
    tracer.counts["autospearman.removed"] += len(result[1].steps)


def _count_vif_pass(tracer, args, result):
    tracer.counts["autospearman.vif_passes"] += 1


def _count_harness_split(tracer, args, result):
    tracer.counts["harness.split_calls"] += 1
    tracer.split_seeds[tracer.op].add(args[1])


def _on_empty_test(tracer, exc):
    if isinstance(exc, EmptyTestSet):
        tracer.counts["data.empty_test_reseeds"] += 1


def _on_cell_failure(tracer, exc):
    # the harness records a CorrselError from one grid cell and goes on
    if isinstance(exc, CorrselError):
        tracer.counts["harness.cell_failures"] += 1


#: (module, attribute, span name or name function, on_result, on_error)
BINDINGS = (
    ("corrsel.cli", "main", "cli.main", None, None),
    ("corrsel.cli", "load_csv", "data.load_csv", None, None),
    ("corrsel.cli", "auto_spearman", "autospearman.auto_spearman", None, None),
    ("corrsel.cli", "run_experiment", "harness.run_experiment", None, None),
    ("corrsel.harness", "run_selection_grid", "harness.run_selection_grid", None, None),
    ("corrsel.harness", "performance_deltas", "harness.performance_deltas", None, None),
    ("corrsel.harness", "correlation_flags", "harness.correlation_flags", None, None),
    ("corrsel.harness", "write_report", "harness.write_report", None, None),
    ("corrsel.harness", "load_csv", "data.load_csv", None, None),
    ("corrsel.harness", "bootstrap_sample", "data.bootstrap_sample", _count_harness_split, _on_empty_test),
    ("corrsel.harness", "select", _selector_span, None, _on_cell_failure),
    ("corrsel.harness", "fit_logistic", "classifiers.fit_logistic", _count_logistic, None),
    ("corrsel.harness", "fit_random_forest", "classifiers.fit_random_forest", _count_trees, None),
    ("corrsel.harness", "score_rows", "classifiers.score_rows", None, None),
    ("corrsel.harness", "auc", "evaluation.auc", None, None),
    ("corrsel.harness", "confusion_at", "evaluation.confusion_at", None, None),
    ("corrsel.harness", "f_measure", "evaluation.f_measure", None, None),
    ("corrsel.harness", "mcc", "evaluation.mcc", None, None),
    ("corrsel.harness", "spearman_matrix", "stats.spearman_matrix", None, None),
    ("corrsel.harness", "vif_scores", "stats.vif_scores", None, None),
    ("corrsel.selectors", "auto_spearman", "autospearman.auto_spearman", None, None),
    ("corrsel.selectors", "fit_logistic", "classifiers.fit_logistic", _count_logistic, None),
    ("corrsel.selectors", "fit_random_forest", "classifiers.fit_random_forest", _count_trees, None),
    ("corrsel.selectors", "importance", "classifiers.importance", None, None),
    ("corrsel.selectors", "score_rows", "classifiers.score_rows", None, None),
    ("corrsel.selectors", "bootstrap_sample", "data.bootstrap_sample", None, _on_empty_test),
    ("corrsel.selectors", "auc", "evaluation.auc", None, None),
    ("corrsel.selectors", "spearman_matrix", "stats.spearman_matrix", None, None),
    ("corrsel.selectors", "inconsistency_rate", "stats.inconsistency_rate", None, None),
    ("corrsel.selectors", "discretize_equal_frequency", "stats.discretize_equal_frequency", None, None),
    ("corrsel.autospearman", "spearman_phase", "autospearman.spearman_phase", _count_removed, None),
    ("corrsel.autospearman", "vif_phase", "autospearman.vif_phase", _count_removed, None),
    ("corrsel.autospearman", "spearman_matrix", "stats.spearman_matrix", None, None),
    ("corrsel.autospearman", "vif_scores", "stats.vif_scores", _count_vif_pass, None),
    ("corrsel.stats", "ols_r_squared", "stats.ols_r_squared", None, None),
    ("corrsel.stats", "discretize_equal_frequency", "stats.discretize_equal_frequency", None, None),
)


class Tracer:
    """Records spans and counters for the op whose id is in ``op``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.counts: Counter = Counter()
        self.split_seeds: dict = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, on_result, on_error):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [
                name(args, kwargs) if callable(name) else name,
                time.perf_counter(),
                0.0,
                tracer._stack[-1] if tracer._stack else -1,
                tracer.op,
            ]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in ``BINDINGS`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, on_result, on_error in BINDINGS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, on_result, on_error))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.op = None

    def self_times(self) -> tuple[Counter, Counter]:
        """Calls and summed self time per span name.

        Self time is a span's duration minus the time its direct children
        cover; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def layer_metrics(self, n_ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every ``PER_LAYER`` metric, counts and times per op."""
        calls, self_s = self.self_times()
        out = {}
        for metric in PER_LAYER:
            stem, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[stem] / n_ops
            elif kind == "self_s":
                out[metric] = self_s[stem] / n_ops
            else:
                out[metric] = self.counts[metric] / n_ops
        out["selectors.select.calls"] = sum(
            v for k, v in calls.items() if k.startswith("selectors.")
        ) / n_ops
        out["evaluation.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith("evaluation.")
        ) / n_ops
        split_calls = self.counts["harness.split_calls"]
        distinct = sum(len(seeds) for seeds in self.split_seeds.values())
        out["harness.split_useful_ratio"] = distinct / split_calls if split_calls else 1.0
        out["trace.op_s"] = traced_s / n_ops
        out["trace.overhead_ratio"] = traced_s / untraced_s
        return out

    def write_spans(self, path) -> None:
        """Write every span once, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
