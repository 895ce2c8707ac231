"""Command-line front end.

Four subcommands wire the library into reproducible experiments:

    threshold   one DE overhead threshold plus its stability lower bounds
    bounds      the stability report alone (no DE runs)
    sweep       thresholds over an L grid, optionally crossed with a dr grid
    simulate    finite-length Monte Carlo decoding trials over an alpha grid

Output is CSV with '#'-prefixed header lines carrying the full experiment
spec (parameters, seed, tool version), or a single JSON document with the
same content.  Identical inputs produce byte-identical output files.

Exit codes: 0 success, 2 validation error (an unusable ``--out`` too), 3 computation error.
``threshold``, ``sweep`` and ``simulate`` refuse dg = 1 with exit 2 before any
work unless given ``--allow-dg1``.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from pathlib import Path

from . import __version__
from .codec import monte_carlo, pool_map
from .density import (
    DEConfig,
    NoSuccessInBracket,
    NonMonotoneBracket,
    NonMonotoneRun,
    SweepRow,
    fill_sweep_row,
    threshold_sweep,
)
from .ensemble import EnsembleParams
from .stability import NonConvergence, threshold_lower_bounds


def _grid(convert):
    """A parser for a comma-separated grid of distinct values, at least one,
    with no empty item; argparse reports a value ``convert`` rejects as an
    "invalid grid value"."""
    def grid(text: str) -> list:
        values = [convert(part) for part in text.split(",") if part]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        if len(values) <= text.count(","):
            raise argparse.ArgumentTypeError("has an empty item")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise argparse.ArgumentTypeError(f"repeats {','.join(map(str, repeated))}")
        return values
    return grid


def _common(dr_grid: bool = False) -> argparse.ArgumentParser:
    """The flags every subcommand shares.  ``sweep`` takes one ``--dr`` or a
    ``--dr-grid``, never both."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dl", type=int, default=2, help="precode bit degree (default 2)")
    dr = common.add_mutually_exclusive_group() if dr_grid else common
    dr.add_argument("--dr", type=int, default=3, help="precode check degree (default 3)")
    if dr_grid:
        dr.add_argument("--dr-grid", type=_grid(int), default=None,
                        help="comma-separated check degrees (one sweep per entry)")
    common.add_argument("--dg", type=int, required=True, help="channel-node degree")
    common.add_argument("--w", type=int, default=2, help="coupling width (default 2)")
    common.add_argument("--eps", type=float, default=0.5, help="BEC erasure rate (default 0.5)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--seed", type=int, default=0)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sc-rateless",
        description="Thresholds, stability bounds, and Monte Carlo decoding "
        "for spatially-coupled precoded rateless codes on the BEC.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    dg1 = argparse.ArgumentParser(add_help=False)
    dg1.add_argument("--allow-dg1", action="store_true",
                     help="compute dg = 1, which cannot reach capacity "
                     "(refused by default)")

    deconf = argparse.ArgumentParser(add_help=False)
    deconf.add_argument("--max-iter", type=int, default=DEConfig.max_iterations)
    deconf.add_argument("--fp-tol", type=float, default=DEConfig.fixed_point_tol)
    deconf.add_argument("--success-target", type=float, default=DEConfig.success_target)
    deconf.add_argument("--bisect-tol", type=float, default=DEConfig.bisection_tol)

    p = sub.add_parser("threshold", parents=[_common(), dg1, deconf],
                       help="DE overhead threshold at one chain length")
    p.add_argument("--L", type=int, required=True)

    p = sub.add_parser("bounds", parents=[_common()],
                       help="stability lower bounds at one chain length")
    p.add_argument("--L", type=int, required=True)

    p = sub.add_parser("sweep", parents=[_common(dr_grid=True), dg1, deconf],
                       help="threshold sweep over chain lengths")
    p.add_argument("--L-grid", type=_grid(int), required=True,
                   help="comma-separated chain lengths")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers across dr-grid entries")

    p = sub.add_parser("simulate", parents=[_common(), dg1],
                       help="finite-length Monte Carlo decoding trials")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, required=True, help="bits per section")
    p.add_argument("--trials", type=int, required=True)
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--alpha", type=float, default=None, help="single overhead point")
    grid.add_argument("--alpha-grid", type=_grid(float), default=None,
                      help="comma-separated overhead points")
    p.add_argument("--zero-codeword", action="store_true",
                   help="skip the encoder and transmit the all-zero codeword "
                   "(exact on the BEC; intended for large sweeps)")
    p.add_argument("--workers", type=int, default=1, help="parallel trial workers")

    return parser


def _ensemble(args, L: int, dr: int | None = None) -> EnsembleParams:
    return EnsembleParams(dl=args.dl, dr=args.dr if dr is None else dr, dg=args.dg, L=L,
                          w=args.w, epsilon=args.eps)


def _deconfig(args) -> DEConfig:
    return DEConfig(
        max_iterations=args.max_iter,
        fixed_point_tol=args.fp_tol,
        success_target=args.success_target,
        bisection_tol=args.bisect_tol,
    )


def _spec_header(args, extra: dict) -> dict:
    spec = {
        "command": args.command,
        "version": __version__,
        "dl": args.dl,
        "dr": args.dr,
        "dg": args.dg,
        "w": args.w,
        "eps": args.eps,
        "seed": args.seed,
    }
    spec.update(extra)
    return spec


def cmd_threshold(args):
    params = _ensemble(args, args.L)
    config = _deconfig(args)
    row = SweepRow(L=args.L)
    fill_sweep_row(row, params, config)
    # A failed threshold raises, so no row reaches here with an error to drop.
    columns = {k: v for k, v in dataclasses.asdict(row).items() if k != "error"}
    spec = _spec_header(args, {"L": args.L, **dataclasses.asdict(config)})
    return spec, [columns]


def cmd_bounds(args):
    params = _ensemble(args, args.L)
    report = threshold_lower_bounds(params)
    row = {"L": args.L, **dataclasses.asdict(report)}
    spec = _spec_header(args, {"L": args.L})
    return spec, [row]


def cmd_sweep(args):
    config = _deconfig(args)
    dr_grid = sorted(args.dr_grid or [args.dr])
    # threshold_sweep is looked up here, at call time, so a wrapper installed
    # on this module's name is the one the pool runs.
    sweep = functools.partial(threshold_sweep, L_values=args.L_grid, config=config)
    curves = pool_map(sweep, [_ensemble(args, max(args.L_grid), dr) for dr in dr_grid],
                      args.workers)
    rows = [{"dr": dr, **dataclasses.asdict(entry)}
            for dr, curve in zip(dr_grid, curves) for entry in curve]
    spec = _spec_header(args, {
        "L_grid": ",".join(map(str, sorted(args.L_grid))),
        "dr_grid": ",".join(map(str, dr_grid)),
        **dataclasses.asdict(config),
    })
    if args.dr_grid:
        del spec["dr"]  # the grid replaced --dr; each row's dr says which ran
    return spec, rows


def cmd_simulate(args):
    params = _ensemble(args, args.L)
    alphas = args.alpha_grid or [args.alpha]
    results = monte_carlo(
        params, args.M, alphas, args.trials, args.seed,
        zero_codeword=args.zero_codeword,
        workers=args.workers,
    )
    errors = sum(row.trial_errors for row in results)
    if errors:
        total = errors + sum(row.trials for row in results)
        print(
            f"warning: {errors} of {total} trials failed: the socket matching "
            f"could not be conditioned at M = {args.M}; each row's rates cover "
            "only its other trials",
            file=sys.stderr,
        )
    rows = [dataclasses.asdict(row) for row in results]
    spec = _spec_header(args, {
        "L": args.L,
        "M": args.M,
        "trials": args.trials,
        "alpha_grid": ",".join(repr(a) for a in sorted(alphas)),
        "zero_codeword": args.zero_codeword,
    })
    return spec, rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(spec: dict, rows: list[dict]) -> str:
    buffer = io.StringIO()
    buffer.writelines(f"# {key}={_format_cell(value)}\n" for key, value in spec.items())
    if rows:
        writer = csv.DictWriter(buffer, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({key: _format_cell(value) for key, value in row.items()} for row in rows)
    return buffer.getvalue()


def render_json(spec: dict, rows: list[dict]) -> str:
    def clean(value):
        if isinstance(value, float) and math.isnan(value):
            return None
        return value

    doc = {
        "spec": spec,
        "rows": [{k: clean(v) for k, v in row.items()} for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_DISPATCH = {
    "threshold": cmd_threshold,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # bounds has no --allow-dg1: the stability report takes dg = 1 as it is.
    if args.dg == 1 and not getattr(args, "allow_dg1", True):
        print("error: dg = 1 cannot reach capacity and is refused by default; "
              "pass --allow-dg1 to compute it anyway", file=sys.stderr)
        return 2
    out = None if args.out is None else Path(args.out)
    if out is not None and (not args.out or out.is_dir() or not out.parent.is_dir()):
        problem = ("the path is empty" if not args.out else
                   "is a directory" if out.is_dir() else f"no directory {out.parent}")
        print(f"error: --out {args.out}: {problem}", file=sys.stderr)
        return 2

    try:
        spec, rows = _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoSuccessInBracket, NonMonotoneBracket, NonMonotoneRun, NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    text = render_csv(spec, rows) if args.format == "csv" else render_json(spec, rows)
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
