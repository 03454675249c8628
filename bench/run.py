"""Benchmark of corrsel: three closed-loop workloads, measured from outside.

    python3 bench/run.py --workload experiment-planted --seed 1 --seconds 35 --trace 0

One client in one process runs ops back to back for ``--seconds``; each op
is one in-process ``corrsel.cli.main`` call on inputs made from ``--seed``.
Every op's output is checked outside the timed interval.

``--trace 0`` prints the end-to-end metrics (see ``metrics.py``).
``setup_s`` is the median of five fresh processes that each import the
program, make the inputs and run one warm-up op on the workload's smallest
inputs, made from a fixed seed: that fills lazy set-up without a full op's
input-dependent cost. The last of them goes on to the timed loop, so
``peak_rss_mb`` belongs to this workload alone.

``--trace 1`` runs the same loop untraced, then the same ops again with every
layer boundary wrapped (``tracer.py``), and prints the per-layer metrics. A
traced op whose output digest differs from its untraced twin counts as failed.

BLAS is pinned to one thread: one client is one core's worth of work, and on
a small shared machine BLAS threads spinning against each other add spread
(and cost the wide workload half its speed). ``CORRSEL_THREADS`` is removed
from the environment so the program runs at its default.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from typing import NamedTuple

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # relative to ROOT, the working directory of every child

SETUP_RUNS = 5
BLAS_THREADS = 1
#: The whole command must end within this many seconds.
TIME_LIMIT_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- child process: set-up, timed loop, checks ---------------------------------

class OpResult(NamedTuple):
    seconds: float
    error: str | None  # why the op failed, None when its output checked out
    digest: str | None  # SHA-256 of the op's canonical output


def run_op(workload, i: int, tracer=None) -> OpResult:
    """Run op ``i`` of ``workload``; only the program call is timed and traced."""
    import corrsel.cli

    argv = workload.prepare(i)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = i
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = corrsel.cli.main(argv)
    except Exception as exc:  # a crash of the program is one failed op
        return OpResult(time.perf_counter() - start, f"raised {exc!r}", None)
    finally:
        if tracer is not None:
            tracer.op = None
    seconds = time.perf_counter() - start
    if rc != 0:
        return OpResult(seconds, f"exit code {rc}: {err.getvalue().strip()}", None)
    try:
        payload = workload.output(i, out.getvalue())
        error = workload.check(i, payload)
    except Exception as exc:  # an output the checker cannot read is wrong
        return OpResult(seconds, f"output check raised {exc!r}", None)
    return OpResult(seconds, error, hashlib.sha256(payload).hexdigest())


def run_loop(workload, seconds: float) -> list[OpResult]:
    """Closed loop: ops back to back until ``seconds`` pass, at least one."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_op(workload, len(results)))
    return results


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def child(args) -> dict:
    sys.path.insert(0, SRC)
    import workloads

    workdir = os.path.join(WORK, f"{args.workload}-{args.child}")
    workload = workloads.make(args.workload, workdir, args.seed, small=args.small)
    workload.setup()
    # the warm-up inputs do not depend on the seed, nor then does its cost
    warm = workloads.make(args.workload, os.path.join(workdir, "warm-up"), 0, small=True)
    warm.setup()
    run_op(warm, 0)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if args.child == "setup":
        return result

    ops = run_loop(workload, args.seconds)
    bad = {i: r.error for i, r in enumerate(ops) if r.error is not None}
    if args.trace:
        import tracer as tracing

        t = tracing.Tracer()
        with t.installed():
            traced = [run_op(workload, i, t) for i in range(len(ops))]
        for i, (a, b) in enumerate(zip(ops, traced)):
            if b.error is not None:
                bad.setdefault(i, f"traced: {b.error}")
            elif a.digest != b.digest:
                bad.setdefault(i, "traced output differs from the untraced run")
        spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
        t.write_spans(spans_path)
        result["layers"] = t.layer_metrics(
            len(ops), sum(r.seconds for r in traced), sum(r.seconds for r in ops)
        )
        result["missing_bindings"] = t.missing
        result["spans_path"] = spans_path
        result["spans"] = len(t.spans)
        ops = traced
    result.update(
        op_seconds=[r.seconds for r in ops],
        failures=[f"op {i}: {msg}" for i, msg in sorted(bad.items())],
        payload_sha256=ops[0].digest,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment(),
    )
    return result


# -- parent process: pinning, fresh processes, aggregation -------------------------

def _pinned_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    env["MKL_NUM_THREADS"] = threads
    env.pop("CORRSEL_THREADS", None)
    return env


def _spawn(kind: str, args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_pinned_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_rows(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<42} {value:>14.6g} {unit:<9} {note}")


def parent(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "corrsel", "__init__.py")):
        print(f"error: no program source at {os.path.join(SRC, 'corrsel')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup_runs = [] if args.trace else [
            _spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)
        ]
        m = _spawn("measure", args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for kind in ("setup", "measure"):
            shutil.rmtree(os.path.join(ROOT, WORK, f"{args.workload}-{kind}"), ignore_errors=True)

    lat = m["op_seconds"]
    attempted, failed = len(lat), len(m["failures"])
    print(f"env {json.dumps(m['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"payload_sha256 {m['payload_sha256']}")
    for line in m["failures"]:
        print(f"  FAILED {line}")
    if args.trace:
        metrics = {k: {"value": m["layers"][k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        op_s = m["layers"]["trace.op_s"]
        print(f"per-layer metrics, traced run of the same {attempted} ops "
              f"({m['spans']} spans in {m['spans_path']}):")
        _print_rows(
            (k, v["value"], v["unit"],
             f"{100 * v['value'] / op_s:5.1f}% of op" if k.endswith(".self_s") else "")
            for k, v in metrics.items()
        )
        if m["missing_bindings"]:
            print(f"  bindings not found: {', '.join(m['missing_bindings'])}")
    else:
        setup_runs.append(m["setup_s"])
        values = {
            "ops_per_s": (attempted - failed) / sum(lat),
            "op_p50_ms": 1000.0 * statistics.median(lat),
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
        notes = {
            "ops_per_s": f"closed loop, 1 client, {attempted} ops",
            "op_p50_ms": f"median of {attempted} ops",
            "setup_s": f"median of {len(setup_runs)} fresh processes",
            "peak_rss_mb": "fresh process, this workload only",
        }
        print("end-to-end metrics:")
        _print_rows((k, v["value"], v["unit"], notes[k]) for k, v in metrics.items())
        _print_rows([("error_rate", failed / attempted, "1", f"{failed} of {attempted} ops failed")])
        print("  op latencies (ms): " + " ".join(f"{1000 * s:.0f}" for s in lat))
        print("  setup runs (s): " + " ".join(f"{s:.3f}" for s in setup_runs))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        os.chdir(ROOT)
        print(json.dumps(child(args)))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
