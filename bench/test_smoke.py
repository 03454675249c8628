"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench -q

Checks that every metric in BENCHMARK.json is emitted with its unit on every
workload, that a wrong output handed to the checker (not to the program)
counts as a failed op, and that the tracer leaves ``corrsel`` as it found it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (unit, _) in PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_output_given_to_the_checker_raises_error_rate(workload, tmp_path, monkeypatch):
    w = workloads.make(workload, str(tmp_path), seed=5, small=True)
    w.setup()
    good = run.run_op(w, 0)
    assert good.error is None

    def corrupted(i, stdout, _output=w.output):
        doc = json.loads(_output(i, stdout))
        if workload == "select-wide":
            # keep every metric, so correlated clones survive together
            doc["selected"] = list(w.datasets[i % w.pool].metric_names)
            doc["trace"] = []
        else:
            doc["failures"] = {"IG|0": "DegenerateOutcome: planted by the test"}
        return json.dumps(doc).encode()

    monkeypatch.setattr(w, "output", corrupted)
    ops = run.run_loop(w, seconds=0.0)
    assert len(ops) == 1 and ops[0].error is not None


def test_tracer_restores_every_corrsel_attribute(tmp_path):
    import corrsel.cli

    modules = sorted({m for m, *_ in tracer.BINDINGS})
    before = {m: dict(vars(sys.modules[m])) for m in modules}
    w = workloads.make("experiment-logistic", str(tmp_path), seed=5, small=True)
    w.setup()
    t = tracer.Tracer()
    with t.installed():
        assert run.run_op(w, 0, t).error is None
    assert t.spans and t.op is None
    with pytest.raises(RuntimeError):
        with t.installed():
            assert corrsel.cli.main is not before["corrsel.cli"]["main"]
            raise RuntimeError("traced code failed")
    after = {m: dict(vars(sys.modules[m])) for m in modules}
    for m in modules:
        assert after[m].keys() == before[m].keys()
        changed = [k for k in before[m] if after[m][k] is not before[m][k]]
        assert changed == [], f"{m}: {changed}"
    assert t.missing == []
