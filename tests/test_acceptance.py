"""Acceptance suite.

One test per release criterion; each prints a single pass/fail line
(visible with ``pytest -s`` or in failure output). Tolerances and budgets
are pinned in the asserts. Run with::

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from corrsel.autospearman import auto_spearman
from corrsel.classifiers import fit_logistic
from corrsel.cli import main
from corrsel.data import Dataset, SyntheticSpec, bootstrap_sample, generate_synthetic
from corrsel.errors import EmptyTestSet
from corrsel.evaluation import ConfusionMatrix, auc, f_measure, mcc
from corrsel.harness import (
    consistency,
    correlation_flags,
    performance_deltas,
    run_selection_grid,
)
from corrsel.selectors import SelectorConfig, SelectorId
from corrsel.stats import rank_with_ties, spearman, spearman_matrix, vif_scores


@contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {label}  ({time.time() - start:.1f}s)")
        raise
    print(f"[criterion {number:2d}] PASS  {label}  ({time.time() - start:.1f}s)")


def _random_synthetic(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    p = int(rng.integers(5, 31))
    n = int(rng.integers(100, 1001))
    groups = tuple(
        (int(rng.integers(0, p)), int(rng.integers(1, 3)), float(rng.uniform(0, 0.5)))
        for _ in range(int(rng.integers(0, 6)))
    )
    coef = tuple(rng.normal(0, 0.8, p).tolist())
    return generate_synthetic(SyntheticSpec(p, n, coef, groups, seed=seed))


# The planted fixture shared by criteria 2-4: three clone pairs at noise
# sd 0.01 plus four independent metrics. For the consistency/flagging
# experiment the three clone sources carry equal signal, which makes the
# supervised baselines churn between near-identical pair members, while
# the independents carry none.
_PLANTED = dict(
    base_metric_count=7,
    signal_coefficients=(1.2, 1.2, 1.2, 0.0, 0.0, 0.0, 0.0),
    clone_groups=((0, 1, 0.01), (1, 1, 0.01), (2, 1, 0.01)),
)
_CLONE_PAIRS = (("m1", "m1_clone1"), ("m2", "m2_clone1"), ("m3", "m3_clone1"))

_GRID_SELECTORS = [
    SelectorId.AUTOSPEARMAN,
    SelectorId.IG,
    SelectorId.CHISQ,
    SelectorId.STEP_FWD,
    SelectorId.RFE_LR,
]

# The score-ranking cutoff is configured as top-k here: with the default
# keep-positive rule every continuous metric has strictly positive sample
# IG/chi-squared, so those filters would select all metrics on every sample
# and their consistency would be a degenerate 100%.
_GRID_BASE_SEED = 97
_GRID_CONFIG = SelectorConfig(ranking_rule="top_k", ranking_top_k=4, base_seed=_GRID_BASE_SEED)
_GRID_B = 30


@pytest.fixture(scope="module")
def planted_dataset() -> Dataset:
    return generate_synthetic(SyntheticSpec(module_count=500, seed=11, **_PLANTED))


@pytest.fixture(scope="module")
def selection_grid(planted_dataset):
    return run_selection_grid(
        planted_dataset, _GRID_SELECTORS, _GRID_B, _GRID_CONFIG
    )


def test_criterion_1_autospearman_contract():
    with criterion(1, "AutoSpearman postcondition on 100 random synthetics"):
        start = time.time()
        for seed in range(100):
            d = _random_synthetic(1000 + seed)
            subset, _ = auto_spearman(d)
            assert subset, f"seed {seed}: empty output"
            corr = spearman_matrix(d.project(subset)).values
            if len(subset) > 1:
                off = np.abs(corr[np.triu_indices(len(subset), k=1)])
                assert np.all(off < 0.7), f"seed {seed}: pair |rho| >= 0.7 survived"
            for name, v in vif_scores(d, subset).scores.items():
                assert math.isfinite(v), f"seed {seed}: unbounded VIF for {name}"
                assert v < 5.0, f"seed {seed}: VIF {v} >= 5 for {name}"
        assert time.time() - start < 60.0


def test_criterion_2_clone_elimination():
    with criterion(2, "planted clone groups collapse to one member each, 20 seeds"):
        for seed in range(20):
            d = generate_synthetic(SyntheticSpec(module_count=500, seed=3000 + seed, **_PLANTED))
            subset, _ = auto_spearman(d)
            assert len(subset) == 7, f"seed {seed}: size {len(subset)} != 7"
            chosen = set(subset)
            for pair in _CLONE_PAIRS:
                assert len(chosen & set(pair)) == 1, f"seed {seed}: group {pair}"
            for indep in ("m4", "m5", "m6", "m7"):
                assert indep in chosen, f"seed {seed}: lost independent {indep}"


def test_criterion_3_consistency_superiority(selection_grid):
    with criterion(3, "AutoSpearman across-sample consistency strictly greatest, gap >= 10"):
        start = time.time()
        pct = {
            sel: consistency(selection_grid.for_selector(sel)).percentage
            for sel in _GRID_SELECTORS
        }
        auto = pct[SelectorId.AUTOSPEARMAN]
        for sel in (SelectorId.IG, SelectorId.CHISQ, SelectorId.STEP_FWD, SelectorId.RFE_LR):
            assert auto > pct[sel], f"{sel.value}: {pct[sel]} >= AutoSpearman {auto}"
            assert auto - pct[sel] >= 10.0, f"{sel.value}: gap {auto - pct[sel]} < 10"
        assert time.time() - start < 600.0


def test_criterion_4_correlated_subset_flagging(selection_grid):
    with criterion(4, "IG subsets flag collinearity >= 80%, AutoSpearman 0%"):
        splits = selection_grid.splits
        ig_flagged = 0
        for j in range(_GRID_B):
            subset = selection_grid.subsets[(SelectorId.IG, j)]
            assert subset is not None
            flags = correlation_flags(subset, splits[j].train)
            ig_flagged += flags.has_collinearity
        assert ig_flagged >= 0.8 * _GRID_B, f"IG flagged only {ig_flagged}/{_GRID_B}"
        for j in range(_GRID_B):
            subset = selection_grid.subsets[(SelectorId.AUTOSPEARMAN, j)]
            assert subset is not None
            flags = correlation_flags(subset, splits[j].train)
            assert not flags.has_collinearity, f"sample {j}"
            assert not flags.has_multicollinearity, f"sample {j}"


def test_criterion_5_performance_impact_bound():
    with criterion(5, "median |AUC delta| <= 5 %pts for AutoSpearman, both classifiers"):
        spec = SyntheticSpec(
            base_metric_count=7,
            module_count=600,
            signal_coefficients=(0.0, 0.0, 0.0, 1.2, 0.9, 0.0, 0.0),
            clone_groups=((0, 1, 0.01), (1, 1, 0.01), (2, 1, 0.01)),
            seed=23,
        )
        d = generate_synthetic(spec)
        grid = run_selection_grid(d, [SelectorId.AUTOSPEARMAN], 30, SelectorConfig(base_seed=5))
        deltas, _ = performance_deltas(grid, ("logistic", "forest"))
        for clf in ("logistic", "forest"):
            vals = [abs(x) for x in deltas[(SelectorId.AUTOSPEARMAN, clf, "AUC")].values()]
            assert len(vals) == 30
            med = float(np.median(vals))
            assert med <= 5.0, f"{clf}: median |AUC delta| {med} > 5"


def test_criterion_6_numerical_oracles():
    with criterion(6, "Spearman/VIF/AUC/MCC/F against independent oracles"):
        start = time.time()
        rng = np.random.default_rng(42)

        # Spearman vs the tie-free shortcut formula, 1000 vectors
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(5, 80))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            d = rank_with_ties(x) - rank_with_ties(y)
            shortcut = 1 - 6 * float(d @ d) / (n * (n * n - 1))
            worst = max(worst, abs(spearman(x, y) - shortcut))
        assert worst < 1e-12, f"max spearman error {worst}"

        # VIF vs an independent normal-equations solve, 100 designs
        for trial in range(100):
            n, p = 200, 5
            mix = rng.standard_normal((p, p)) + 2 * np.eye(p)
            x = rng.standard_normal((n, p)) @ mix
            d = Dataset(
                tuple(f"m{i}" for i in range(p)), x, rng.random(n) < 0.5
            )
            mine = vif_scores(d, list(d.metric_names)).scores
            for i, name in enumerate(d.metric_names):
                others = np.delete(x, i, axis=1)
                design = np.column_stack([np.ones(n), others])
                beta = np.linalg.solve(design.T @ design, design.T @ x[:, i])
                resid = x[:, i] - design @ beta
                sst = float(((x[:, i] - x[:, i].mean()) ** 2).sum())
                oracle = 1.0 / (1.0 - (1.0 - float(resid @ resid) / sst))
                assert mine[name] == pytest.approx(oracle, rel=1e-6), f"trial {trial} {name}"

        # AUC vs brute-force pair counting, 200 score/label sets, exact
        for _ in range(200):
            n = int(rng.integers(4, 60))
            scores = rng.integers(0, 10, n) / 9.0
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                labels[0] = ~labels[0]
            pos, neg = scores[labels], scores[~labels]
            brute = (
                sum(1.0 for a in pos for b in neg if a > b)
                + 0.5 * sum(1.0 for a in pos for b in neg if a == b)
            ) / (len(pos) * len(neg))
            assert auc(scores, labels) == brute

        # MCC / F-measure vs the direct formulas, 50 matrices
        for _ in range(50):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 500, 4))
            cm = ConfusionMatrix(tp, fp, tn, fn)
            denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            mcc_direct = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
            assert abs(mcc(cm) - mcc_direct) < 1e-12
            if tp == 0:
                f_direct = 0.0
            else:
                prec, rec = tp / (tp + fp), tp / (tp + fn)
                f_direct = 2 * prec * rec / (prec + rec)
            assert abs(f_measure(cm) - f_direct) < 1e-12

        assert time.time() - start < 30.0


def test_criterion_7_bootstrap_out_of_bag_mass():
    with criterion(7, "mean out-of-bag fraction within [0.358, 0.378] at N = 1000"):
        start = time.time()
        rng = np.random.default_rng(0)
        d = Dataset(("a",), rng.standard_normal((1000, 1)), rng.random(1000) < 0.4)
        total = 0.0
        for seed in range(1000):
            try:
                split = bootstrap_sample(d, seed)
                total += split.test.n_modules / 1000
            except EmptyTestSet:  # pragma: no cover - absurdly unlikely at N=1000
                pass
        mean_frac = total / 1000
        assert 0.358 <= mean_frac <= 0.378, f"mean OOB fraction {mean_frac}"
        assert time.time() - start < 10.0


def test_criterion_8_irls_soundness():
    with criterion(8, "IRLS: monotone log-likelihood and tiny converged gradient, 100 fits"):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n, p = 200, 3
            x = rng.standard_normal((n, p))
            beta_true = rng.uniform(-1.2, 1.2, p)
            y = rng.random(n) < 1 / (1 + np.exp(-(x @ beta_true)))
            if y.all() or not y.any():
                y[0] = ~y[0]
            d = Dataset(tuple(f"m{i}" for i in range(p)), x, y)
            model = fit_logistic(d, list(d.metric_names))
            assert model.converged, f"trial {trial}: did not converge"
            trace = model.ll_trace
            assert all(b >= a for a, b in zip(trace, trace[1:])), f"trial {trial}: ll decreased"

            # finite-difference gradient at the fitted point, step 1e-6
            design = np.column_stack([np.ones(n), x])
            yf = y.astype(float)

            def ll(beta):
                eta = design @ beta
                return float(np.sum(yf * eta - np.logaddexp(0.0, eta)))

            beta_hat = np.concatenate([[model.intercept], model.coefficients])
            h = 1e-6
            for k in range(p + 1):
                e = np.zeros(p + 1)
                e[k] = h
                grad_fd = (ll(beta_hat + e) - ll(beta_hat - e)) / (2 * h)
                assert abs(grad_fd) < 1e-6, f"trial {trial}: grad[{k}] = {grad_fd}"


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "two cmd_experiment runs, byte-identical payload"):
        start = time.time()
        report_path = tmp_path / "report.json"
        config = {
            "dataset": {
                "base_metric_count": 4,
                "module_count": 150,
                "signal_coefficients": [1.5, 0, 0, 0],
                "clone_groups": [[0, 1, 0.01]],
                "seed": 13,
            },
            "selectors": ["AutoSpearman", "IG"],
            "bootstrap_count": 5,
            "base_seed": 7,
            "classifiers": ["logistic"],
            "output": str(report_path),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")

        payloads = []
        for _ in range(2):
            assert main(["experiment", str(cfg_path)]) == 0
            doc = json.loads(report_path.read_text())
            doc.pop("timestamp")
            payloads.append(json.dumps(doc, sort_keys=True))
        assert payloads[0] == payloads[1]
        assert time.time() - start < 60.0


def test_criterion_10_consistency_formula_suite():
    with criterion(10, "consistency set arithmetic + exhaustive monotone appension"):
        assert consistency([["a", "b", "c"], ["b", "c", "d"]]).percentage == 50.0
        assert consistency(
            [["a", "b"], ["a", "c"], ["a"]]
        ).percentage == pytest.approx(100 / 3, abs=1e-9)
        assert consistency([["a"], ["b"]]).percentage == 0.0

        universe = ["a", "b", "c", "d"]
        all_subsets = [
            list(c) for r in range(5) for c in itertools.combinations(universe, r)
        ]
        count = 0
        for size in (1, 2, 3):
            for family in itertools.product(all_subsets, repeat=size):
                base = consistency(list(family)).percentage
                for extra in all_subsets:
                    appended = consistency(list(family) + [extra]).percentage
                    assert appended <= base + 1e-12
                    count += 1
        assert count == (16 + 16**2 + 16**3) * 16
