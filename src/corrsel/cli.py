"""Command-line interface.

Four subcommands: ``select`` (run one technique on a CSV), ``diagnose``
(Spearman matrix, VIF table, correlation flags), ``experiment`` (run a JSON
config through the bootstrap harness), and ``synth`` (write a synthetic
dataset to CSV). Exit codes: 0 success, 2 usage error, 3 data error,
4 computation error, 130 interrupted (Ctrl-C), 141 broken pipe (stdout's
reader has gone). All randomness comes from --seed or config seeds; the
default seed is a fixed constant, never the clock.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .autospearman import AutoSpearmanParams, auto_spearman
from .data import SyntheticSpec, generate_synthetic, load_csv, write_csv
from .errors import ComputationError, ConfigError, DataError, UnsupportedSelector
from .harness import _strict_flags, load_config, run_experiment
from .seeding import DEFAULT_SEED
from .selectors import SelectorConfig, SelectorId, parse_selector, select
from .stats import spearman_matrix, vif_scores

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _param(field: str):
    """argparse ``type=`` for a SelectorConfig field, parsed as the type of
    its default and checked by SelectorConfig; a bad value exits 2."""
    kind = type(getattr(SelectorConfig, field))

    def parse(text: str):
        try:
            value = kind(text)
            SelectorConfig(**{field: value})
        except (ValueError, ConfigError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrsel",
        description="Correlated-metric elimination and feature-selection benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("dataset")
    shared.add_argument("--outcome", required=True, help="name of the outcome column")
    shared.add_argument("--sp-t", type=_param("sp_t"), default=AutoSpearmanParams.sp_t)
    shared.add_argument("--vif-t", type=_param("vif_t"), default=AutoSpearmanParams.vif_t)
    shared.add_argument("--json", action="store_true", dest="as_json")

    p_select = sub.add_parser("select", parents=[shared], help="run one selection technique on a CSV")
    p_select.add_argument("--selector", required=True, help="technique abbreviation")
    p_select.add_argument("--bins", type=_param("bins"), default=SelectorConfig.bins)
    p_select.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_diag = sub.add_parser("diagnose", parents=[shared], help="Spearman matrix, VIF table, correlation flags")
    p_diag.add_argument("--metrics", help="comma-separated subset (default: all)")

    p_exp = sub.add_parser("experiment", help="run a JSON experiment config")
    p_exp.add_argument("config")

    p_synth = sub.add_parser("synth", help="write a synthetic dataset to CSV")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--metrics", type=int, default=7, help="base metric count")
    p_synth.add_argument("--modules", type=int, default=500)
    p_synth.add_argument(
        "--clones",
        default="",
        help="clone groups as src:count:sd triples, comma separated (1-based src)",
    )
    p_synth.add_argument(
        "--signal", default="", help="comma-separated log-odds coefficients (default all 0)"
    )
    p_synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_synth.add_argument("--outcome", default="bug", help="outcome column name")
    return parser


def _fmt_stat(v: float) -> str:
    return "inf" if math.isinf(v) else f"{v:.4f}"


def _json_stat(v: float):
    return "inf" if math.isinf(v) else v


def _cmd_select(args) -> int:
    selector = parse_selector(args.selector)
    d = load_csv(args.dataset, args.outcome)
    trace = None
    if selector is SelectorId.AUTOSPEARMAN:
        subset, trace = auto_spearman(d, AutoSpearmanParams(args.sp_t, args.vif_t))
    else:
        config = SelectorConfig(bins=args.bins, base_seed=args.seed, sp_t=args.sp_t, vif_t=args.vif_t)
        subset = select(selector, d, config)
    if args.as_json:
        doc = {"selected": subset}
        if trace is not None:
            doc["trace"] = [{**vars(s), "statistic": _json_stat(s.statistic)} for s in trace.steps]
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    for name in subset:
        print(name)
    for step in trace.steps if trace is not None else ():
        kept = f" (kept {step.kept})" if step.kept else ""
        print(f"# removed {step.removed} [{step.phase}, {_fmt_stat(step.statistic)}]{kept}", file=sys.stderr)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    d = load_csv(args.dataset, args.outcome)
    names = list(d.metric_names)
    if args.metrics:
        names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    corr = spearman_matrix(d.project(names)).values
    vifs = vif_scores(d, names).scores
    flags = _strict_flags(corr, vifs.values(), args.sp_t, args.vif_t)
    if args.as_json:
        print(
            json.dumps(
                {
                    "metrics": names,
                    "spearman": [[round(float(v), 12) for v in row] for row in corr],
                    "vif": {k: _json_stat(v) for k, v in vifs.items()},
                    "has_collinearity": flags.has_collinearity,
                    "has_multicollinearity": flags.has_multicollinearity,
                },
                indent=2,
            )
        )
        return EXIT_OK
    width = max(len(n) for n in names)
    print("Spearman rank correlation:")
    header = " ".join(f"{n:>{max(7, len(n))}}" for n in names)
    print(f"{'':{width}} {header}")
    for i, n in enumerate(names):
        row = " ".join(f"{corr[i, j]:>{max(7, len(names[j]))}.3f}" for j in range(len(names)))
        print(f"{n:{width}} {row}")
    print("\nVariance inflation factors:")
    for n in names:
        print(f"{n:{width}} {_fmt_stat(vifs[n])}")
    print(f"\nhas_collinearity (|rho| > {args.sp_t}): {'yes' if flags.has_collinearity else 'no'}")
    print(f"has_multicollinearity (VIF > {args.vif_t}): {'yes' if flags.has_multicollinearity else 'no'}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config is not valid JSON: {exc}") from exc
    cfg = load_config(raw)
    payload = run_experiment(cfg)
    if cfg.output:
        print(f"report written to {cfg.output}")
    if cfg.output_csv:
        print(f"per-cell rows written to {cfg.output_csv}")
    rows = payload["consistency_across_samples"]
    if rows:
        print("consistency across samples (%):")
        for sel, row in rows.items():
            print(f"  {sel:14} {row['percentage']:6.1f}")
    else:
        print("consistency across samples (%): none, no selector succeeded on any sample")
    stats = payload["performance_deltas"]
    medians = {key: stats[key]["median"] for key in sorted(stats) if stats[key]["median"] is not None}
    if medians:
        print("median performance delta (%pts, selected - all):")
        for key, med in medians.items():
            print(f"  {key:32} {med:+7.2f}")
    else:
        print("median performance delta (%pts, selected - all): none, no sample has a delta")
    for warning in payload["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    if payload["failures"]:
        cells = len(cfg.selectors) * cfg.bootstrap_count
        print(f"warning: {len(payload['failures'])} of {cells} grid cells failed", file=sys.stderr)
    return EXIT_OK


def _parse_clone_groups(text: str, metrics: int):
    """``src:count:sd`` triples, ``src`` 1-based in 1..``metrics``, as
    :class:`SyntheticSpec` clone groups (0-based sources)."""
    groups = []
    if not text:
        return tuple(groups)
    for part in text.split(","):
        try:
            src, count, sd = part.strip().split(":")
            src, count, sd = int(src), int(count), float(sd)
        except ValueError:
            raise DataError(f"bad clone group {part!r}, expected src:count:sd") from None
        if not 1 <= src <= metrics:
            raise DataError(f"clone source {src} out of range 1..{metrics}")
        groups.append((src - 1, count, sd))
    return tuple(groups)


def _cmd_synth(args) -> int:
    coef = [0.0] * args.metrics
    if args.signal:
        given = []
        for c in args.signal.split(","):
            try:
                given.append(float(c))
            except ValueError:
                raise DataError(f"bad signal coefficient {c!r}") from None
        if len(given) > args.metrics:
            raise DataError("more signal coefficients than base metrics")
        coef[: len(given)] = given
    spec = SyntheticSpec(
        base_metric_count=args.metrics,
        module_count=args.modules,
        signal_coefficients=tuple(coef),
        clone_groups=_parse_clone_groups(args.clones, args.metrics),
        seed=args.seed,
    )
    d = generate_synthetic(spec)
    write_csv(d, args.out, args.outcome)
    defective = int(d.outcome.sum())
    print(f"wrote {d.n_modules} modules x {d.n_metrics} metrics to {args.out} "
          f"({defective} defective)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "select": _cmd_select,
        "diagnose": _cmd_diagnose,
        "experiment": _cmd_experiment,
        "synth": _cmd_synth,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # no error line: point stdout at the null device, so that the
        # interpreter's last flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (DataError, ComputationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnsupportedSelector):
            return EXIT_USAGE
        return EXIT_COMPUTE if isinstance(exc, ComputationError) else EXIT_DATA
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
