"""Golden digests of canonical experiment payloads.

Each case pins the SHA-256 of ``run_experiment(cfg).payload`` serialised as
canonical JSON (sorted keys, compact separators). A change that moves any
byte of a report -- a selection, a split, a performance delta, a record --
fails here. If a change is meant to move them, re-baseline the digests once,
on purpose, and say why in CHANGES.md.

``output`` stays unset: the config echo carries the output path, so a
temporary path would make the digest depend on the test run. The per-cell
CSV carries no config, so its digest is taken from a temporary file.

Payloads carry subsets, not traces, so AutoSpearman's removal order is pinned
by a digest of ``corrsel select --selector AutoSpearman --json`` on a fixed
CSV whose exact, reversed, tied and noisy clones put many pairs at or above
``sp_t``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from corrsel.cli import main
from corrsel.harness import load_config, run_experiment

_PLANTED = {
    # the acceptance fixture: three clone pairs at sd 0.01 plus four independents
    "dataset": {
        "base_metric_count": 7,
        "module_count": 160,
        "signal_coefficients": [1.2, 1.2, 1.2, 0, 0, 0, 0],
        "clone_groups": [[0, 1, 0.01], [1, 1, 0.01], [2, 1, 0.01]],
        "seed": 11,
    },
    "selectors": ["AutoSpearman", "IG", "Chisq", "Step-FWD", "RFE-LR"],
    "bootstrap_count": 1,
    "base_seed": 97,
    "classifiers": ["logistic", "forest"],
    "selector_config": {"ranking_rule": "top_k", "ranking_top_k": 4, "rfe_resamples": 2},
}

_CORRELATED_LOGISTIC = {
    # every base metric has a noisy clone; no forest
    "dataset": {
        "base_metric_count": 6,
        "module_count": 200,
        "signal_coefficients": [0.8, 0.8, 0.8, 0, 0, 0],
        "clone_groups": [[k, 1, 0.6] for k in range(6)],
        "seed": 5,
    },
    "selectors": ["AutoSpearman", "CFS", "CON", "Step-BWD", "Step-BOTH"],
    "bootstrap_count": 2,
    "base_seed": 41,
    "classifiers": ["logistic"],
}

_VIF_ACTIVE = {
    # six noisy clones per base metric: most pairs stay under the Spearman
    # threshold, so the VIF phase does most of the eliminating
    "dataset": {
        "base_metric_count": 4,
        "module_count": 300,
        "signal_coefficients": [0.5, 0.5, 0, 0],
        "clone_groups": [[k, 6, 1.0] for k in range(4)],
        "seed": 23,
    },
    "selectors": ["AutoSpearman", "IG"],
    "bootstrap_count": 2,
    "base_seed": 3,
    "classifiers": ["logistic"],
    "selector_config": {"ranking_rule": "top_k", "ranking_top_k": 5},
}

_RFE_FOREST = {
    # forest importance ranks metrics for RFE-RF, so its order is pinned too
    "dataset": {
        "base_metric_count": 4,
        "module_count": 120,
        "signal_coefficients": [1.0, 0.6, 0, 0],
        "clone_groups": [[0, 1, 0.3]],
        "seed": 31,
    },
    "selectors": ["RFE-RF", "AutoSpearman"],
    "bootstrap_count": 2,
    "base_seed": 13,
    "classifiers": ["forest"],
    "selector_config": {"rfe_resamples": 2, "rfe_ntree": 20},
}

_LOGISTIC_WRAPPERS = {
    # 16 metrics, every logistic-fitting selector and CON; four RFE resamples
    # put several models in each batched fit
    "dataset": {
        "base_metric_count": 8,
        "module_count": 180,
        "signal_coefficients": [1.0, 0.8, 0.6, 0.4, 0, 0, 0, 0],
        "clone_groups": [[k, 1, 0.5] for k in range(8)],
        "seed": 17,
    },
    "selectors": ["Step-FWD", "Step-BWD", "Step-BOTH", "CON", "RFE-LR"],
    "bootstrap_count": 2,
    "base_seed": 59,
    "classifiers": ["logistic"],
    "selector_config": {"rfe_resamples": 4},
}

_WARM_STARTED = {
    # every warm-started logistic selector on one sample, B = 2: the
    # stepwise searches and RFE-LR's path and per-size resample fits
    "dataset": {
        "base_metric_count": 7,
        "module_count": 220,
        "signal_coefficients": [1.0, 0.8, 0.5, 0.3, 0, 0, 0],
        "clone_groups": [[k, 1, 0.4] for k in range(7)],
        "seed": 71,
    },
    "selectors": ["Step-FWD", "Step-BWD", "Step-BOTH", "RFE-LR"],
    "bootstrap_count": 2,
    "base_seed": 83,
    "classifiers": ["logistic"],
    "selector_config": {"rfe_resamples": 3},
}

GOLDEN = {
    "planted": (
        _PLANTED, "d4b3fcb69699e505d3622d28aa26f60594a42efea9ab6827784c255b285411e8"
    ),
    "correlated-logistic": (
        _CORRELATED_LOGISTIC,
        "7dacd3fa98af114a33dec08ea3296a65a448e92a3c20361fcde2f2b2e965bb45",
    ),
    "vif-active": (
        _VIF_ACTIVE, "3ef80ba912782a318e7c355ecc7991f2db884cbc9bb65ce3ea0842ec34acf1d8"
    ),
    "rfe-forest": (
        _RFE_FOREST, "8c7c624d456ae7b8615fa45d4d87617690786a925a2afc07a5002c2a687496c3"
    ),
    "logistic-wrappers": (
        _LOGISTIC_WRAPPERS,
        "8efc4bc18ba0f21b6fd865a34d7d76e05a586594699520d3d15f3a73b27ce123",
    ),
    "warm-started": (
        _WARM_STARTED,
        "eea83adbfb4c45aa377c472f0c8e265e10f49c2c0e544105338c19890c37cc36",
    ),
}


def payload_digest(raw: dict) -> str:
    payload = run_experiment(load_config(raw)).payload
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_digest_is_pinned(name):
    raw, expected = GOLDEN[name]
    assert payload_digest(raw) == expected


CELLS_CSV_GOLDEN = ("planted", "f01949e35d895ec59fb9d569738c953bf7cbf32432eddfaff7b1e3ec9a32d805")


def test_cells_csv_digest_is_pinned(tmp_path):
    name, expected = CELLS_CSV_GOLDEN
    path = tmp_path / "cells.csv"
    run_experiment(load_config({**GOLDEN[name][0], "output_csv": str(path)}))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


SELECT_TRACE_GOLDEN = "90e55b3651f030ef54a40a90085ed12905a2fec6903f9500c1c42336bc64f0e0"


def _write_trace_csv(path) -> None:
    rng = np.random.default_rng(2018)
    n = 60
    base = rng.standard_normal((n, 6))
    b1, b2, b3, b4, b5, b6 = base.T
    noisy = b3 + 0.4 * rng.standard_normal(n)
    cols = {f"b{k + 1}": base[:, k] for k in range(6)}
    cols.update({
        "b1_copy": b1.copy(),  # exact clone
        "b1_neg": -b1,  # reversed clone
        "b2_round": np.round(b2),  # tied clone
        "b2_exp": np.exp(b2),  # monotone map
        "b3_noisy": noisy,
        "b3_noisy_copy": noisy.copy(),  # ties the pair (b3, b3_noisy) below |rho| 1
        "b3_noisy_neg": -noisy,
        "b4_floor": np.floor(2 * b4),
        "b4_cube": b4**3,
        "b5_rev_noisy": -(b5 + 0.3 * rng.standard_normal(n)),
        "b6_a": b6.copy(),
        "b6_b": b6.copy(),
        "flat": np.full(n, 3.0),
        "mix": b1 + b2 + 0.2 * rng.standard_normal(n),
    })
    y = rng.random(n) < 0.4
    names = list(cols)
    lines = [",".join(names + ["bug"])]
    for i in range(n):
        lines.append(",".join(repr(float(cols[c][i])) for c in names) + f",{int(y[i])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_select_trace_digest_is_pinned(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    _write_trace_csv(path)
    code = main(["select", str(path), "--outcome", "bug", "--selector", "AutoSpearman", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["trace"]) == 14
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SELECT_TRACE_GOLDEN
