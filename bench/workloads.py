"""The three workloads: inputs made from the seed, one op, and its output check.

Each op is one in-process call of ``corrsel.cli.main``, looked up through
the module at call time so a traced run sees its wrapper. ``prepare`` (which
writes the op's input) and ``check`` run outside the timed interval.
``output`` turns what the op produced into canonical bytes: the checked
value, and the input of the op's SHA-256 digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from corrsel.data import SyntheticSpec, generate_synthetic, write_csv
from corrsel.harness import SCHEMA_VERSION
from corrsel.stats import spearman_matrix, vif_scores

#: AutoSpearman thresholds: the CLI defaults, which every workload uses.
SP_T = 0.7
VIF_T = 5.0


def seed_of(*parts) -> int:
    """A 31-bit seed fixed by the workload seed and any further parts."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


class Experiment:
    """``corrsel experiment <config>`` on an inline synthetic dataset.

    Op ``i`` draws its dataset seed and ``base_seed`` from (seed, i), so a
    run averages over several datasets and bootstrap plans. The report goes
    to a fixed relative path, because the config (path included) is echoed
    into the payload and the payload digest must not depend on the checkout.
    """

    def __init__(self, name, workdir, seed, *, base, clone_groups, rows, signal,
                 selectors, classifiers, bootstrap_count):
        self.name = name
        self.workdir = workdir
        self.seed = seed
        self.base = base
        self.clone_groups = [list(g) for g in clone_groups]  # (source, clones, sd)
        self.metrics = base + sum(clones for _, clones, _ in clone_groups)
        self.rows = rows
        self.signal = (tuple(signal) + (0.0,) * base)[:base]
        self.selectors = list(selectors)
        self.classifiers = list(classifiers)
        self.bootstrap_count = bootstrap_count
        self.config_path = os.path.join(workdir, "op.json")
        self.report_path = os.path.join(workdir, "report.json")
        self._base_seeds: dict[int, int] = {}

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def prepare(self, i: int) -> list[str]:
        base_seed = seed_of(self.name, self.seed, i, "base_seed")
        self._base_seeds[i] = base_seed
        config = {
            "dataset": {
                "base_metric_count": self.base,
                "module_count": self.rows,
                "signal_coefficients": list(self.signal),
                "clone_groups": self.clone_groups,
                "seed": seed_of(self.name, self.seed, i, "dataset"),
            },
            "selectors": self.selectors,
            "bootstrap_count": self.bootstrap_count,
            "base_seed": base_seed,
            "classifiers": self.classifiers,
            "output": self.report_path,
            "selector_config": {"ranking_rule": "top_k", "ranking_top_k": 4},
        }
        if os.path.exists(self.report_path):
            os.unlink(self.report_path)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return ["experiment", self.config_path]

    def output(self, i: int, stdout: str) -> bytes:
        """The report payload: the written report without its timestamp."""
        with open(self.report_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("timestamp", None)
        return canonical(doc)

    def check(self, i: int, out: bytes) -> str | None:
        """Why the payload is wrong, or None when it holds."""
        try:
            p = json.loads(out)
        except ValueError as exc:
            return f"payload does not parse: {exc}"
        B = self.bootstrap_count
        if p.get("schema_version") != SCHEMA_VERSION:
            return f"schema_version {p.get('schema_version')!r} != {SCHEMA_VERSION}"
        if p["config"]["base_seed"] != self._base_seeds.get(i):
            return "config echo has the wrong base_seed"
        if p["dataset"]["modules"] != self.rows or p["dataset"]["metrics"] != self.metrics:
            return "dataset shape differs from the spec"
        if p["failures"]:
            return f"grid cells failed: {sorted(p['failures'])}"
        if sorted(p["consistency_across_samples"]) != sorted(self.selectors):
            return "consistency_across_samples misses a selector"
        across = p["consistency_across_selectors"]
        if len(across) != B or any(v is None or not 0.0 <= v <= 100.0 for v in across):
            return "consistency_across_selectors is incomplete"
        for sel in self.selectors:
            if p["correlation_flags"][sel]["samples"] != B:
                return f"correlation flags for {sel} miss samples"
            pct = p["consistency_across_samples"][sel]["percentage"]
            if not 0.0 <= pct <= 100.0:
                return f"consistency of {sel} is {pct}"
            for clf in self.classifiers:
                for measure in ("AUC", "F", "MCC"):
                    stats = p["performance_deltas"].get(f"{sel}|{clf}|{measure}")
                    if stats is None:
                        return f"no deltas for {sel}|{clf}|{measure}"
                    n = stats["n"]
                    if not (n == B or (measure == "AUC" and 1 <= n <= B)):
                        return f"{sel}|{clf}|{measure} has {n} of {B} samples"
                    qs = (stats["q1"], stats["median"], stats["q3"])
                    if not all(isinstance(q, (int, float)) and math.isfinite(q) for q in qs):
                        return f"{sel}|{clf}|{measure} delta is not finite"
                    if not qs[0] <= qs[1] <= qs[2]:
                        return f"{sel}|{clf}|{measure} quartiles out of order"
        return None


class SelectWide:
    """``corrsel select <csv> --selector AutoSpearman --json`` on wide CSVs.

    Set-up writes a pool of CSVs, one dataset seed each; op ``i`` reads CSV
    ``i mod pool``. The pool is fixed in size so that set-up work does not
    grow when ops get faster.
    """

    def __init__(self, name, workdir, seed, *, base, clones, clone_sd, rows, pool):
        self.name = name
        self.workdir = workdir
        self.seed = seed
        self.spec = dict(base=base, clones=clones, clone_sd=clone_sd, rows=rows)
        self.pool = pool
        self.datasets = []

    def _path(self, k: int) -> str:
        return os.path.join(self.workdir, f"wide-{k}.csv")

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        s = self.spec
        signal = [0.5] * min(5, s["base"]) + [0.0] * max(0, s["base"] - 5)
        groups = [(k, s["clones"], s["clone_sd"]) for k in range(s["base"])]
        for k in range(self.pool):
            spec = SyntheticSpec(s["base"], s["rows"], tuple(signal), tuple(groups),
                                 seed=seed_of(self.name, self.seed, k))
            d = generate_synthetic(spec)
            write_csv(d, self._path(k), "bug")
            self.datasets.append(d)

    def prepare(self, i: int) -> list[str]:
        return ["select", self._path(i % self.pool), "--outcome", "bug",
                "--selector", "AutoSpearman", "--json"]

    def output(self, i: int, stdout: str) -> bytes:
        return stdout.encode()

    def check(self, i: int, out: bytes) -> str | None:
        """The AutoSpearman postcondition, recomputed on the op's dataset."""
        try:
            doc = json.loads(out)
            selected, trace = doc["selected"], doc["trace"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"output does not parse: {exc!r}"
        d = self.datasets[i % self.pool]
        removed = [step["removed"] for step in trace]
        if not selected:
            return "empty selection"
        if sorted(selected + removed) != sorted(d.metric_names):
            return "selected and removed metrics do not partition the dataset"
        if len(selected) > 1:
            corr = np.abs(spearman_matrix(d.project(selected)).values)
            worst = float(corr[np.triu_indices(len(selected), k=1)].max())
            if not worst < SP_T:
                return f"a selected pair has |rho| {worst:.4f} >= {SP_T}"
        scores = vif_scores(d, selected).scores.values()
        if not all(math.isfinite(v) and v < VIF_T for v in scores):
            return f"a selected metric has VIF {max(scores)} >= {VIF_T}"
        return None


def make(name: str, workdir: str, seed: int, small: bool = False):
    """Build workload ``name``; ``small`` shrinks it for the smoke test."""
    if name == "experiment-planted":
        # the acceptance fixture: 3 clone pairs at sd 0.01 + 4 independents,
        # graded with the criterion-3 selector grid and both classifiers
        return Experiment(
            name, workdir, seed, base=7 if not small else 4,
            clone_groups=[(k, 1, 0.01) for k in range(3)],
            rows=500 if not small else 60, signal=(1.2, 1.2, 1.2), bootstrap_count=1,
            selectors=["AutoSpearman", "IG", "Chisq", "Step-FWD", "RFE-LR"],
            classifiers=["logistic", "forest"],
        )
    if name == "experiment-logistic":
        # every selector but RFE-RF, so no forest is grown anywhere
        base = 12 if not small else 3
        return Experiment(
            name, workdir, seed, base=base, clone_groups=[(k, 1, 0.6) for k in range(base)],
            rows=500 if not small else 60, signal=(1.2, 1.0, 0.8, 0.6, 0.4, 0.2),
            bootstrap_count=2 if not small else 1,
            selectors=["AutoSpearman", "CFS", "IG", "Chisq", "CON",
                       "RFE-LR", "Step-FWD", "Step-BWD", "Step-BOTH"],
            classifiers=["logistic"],
        )
    if name == "select-wide":
        return SelectWide(
            name, workdir, seed, base=15 if not small else 3, clones=5 if not small else 2,
            clone_sd=1.2 if not small else 0.3, rows=500 if not small else 60,
            pool=16 if not small else 2,
        )
    raise ValueError(f"unknown workload {name!r}")
