"""Golden digests of canonical experiment payloads.

Each case pins the SHA-256 of ``run_experiment(cfg).payload`` serialised as
canonical JSON (sorted keys, compact separators). A change that moves any
byte of a report -- a selection, a split, a performance delta, a record --
fails here. If a change is meant to move them, re-baseline the digests once,
on purpose, and say why in CHANGES.md.

``output`` stays unset: the config echo carries the output path, so a
temporary path would make the digest depend on the test run. The per-cell
CSV carries no config, so its digest is taken from a temporary file.
"""

from __future__ import annotations

import hashlib
import json

import pytest

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

GOLDEN = {
    "planted": (
        _PLANTED, "43c985ff1af81c88f19015d31d1689e09d2ee7be9a4ad0262bd0ba44c65d5e4c"
    ),
    "correlated-logistic": (
        _CORRELATED_LOGISTIC,
        "7dacd3fa98af114a33dec08ea3296a65a448e92a3c20361fcde2f2b2e965bb45",
    ),
    "vif-active": (
        _VIF_ACTIVE, "3ef80ba912782a318e7c355ecc7991f2db884cbc9bb65ce3ea0842ec34acf1d8"
    ),
    "rfe-forest": (
        _RFE_FOREST, "3c1aadf2a64e8d373a939e1f048501878e9eeb502750e72c7725d367254b0cdf"
    ),
    "logistic-wrappers": (
        _LOGISTIC_WRAPPERS,
        "8efc4bc18ba0f21b6fd865a34d7d76e05a586594699520d3d15f3a73b27ce123",
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


CELLS_CSV_GOLDEN = ("planted", "ea87773b7aa80e77d91a84f04bf9a10ef6b336d4005bb4aa8c83bb0be0de24fa")


def test_cells_csv_digest_is_pinned(tmp_path):
    name, expected = CELLS_CSV_GOLDEN
    path = tmp_path / "cells.csv"
    run_experiment(load_config({**GOLDEN[name][0], "output_csv": str(path)}))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
