"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/spread.py --seeds 1-10 [--out FILE]

The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median; a metric is steady when its spread stays well inside its bound in
BENCHMARK.json. With ``--out`` the summary, with each run's
``payload_sha256``, is written as JSON; that is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        digests = {}
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            digests[seed] = proc.stdout.split("payload_sha256 ", 1)[1].split()[0]
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s, "
                  f"{result['attempted']} ops, " + ", ".join(
                      f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            ok = spread <= bounds[name] / 3
            steady &= ok
            print(f"  {workload} {name}: median {med:.6g}, spread {spread:.4f} "
                  f"(bound {bounds[name]}){'' if ok else '  NOT below a third of the bound'}")
        summary["workloads"][workload] = {"metrics": rows, "payload_sha256": digests}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
