"""Command-line driver: sweeps, validation suites, closed-form queries, and
figure-data reproduction.  Sweeps and config parsing live in
`spinbus.sweep`, the validation suites in `spinbus.validate`.

Subcommands
-----------
sweep <config>        run the sweep described by a key = value config file
validate [--suite]    run validation suites a/b/c/d (default all), one
                      `PASS|FAIL [suite] name: details` line per check
exact <model> <param> one-shot closed-form query (ZZZZ only)
fig <2|3|4|5|6>       reproduce a bundled figure configuration

Exit codes: 0 success, 1 validation failure or an `exact` query that cannot
be answered, 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import importlib.resources
import sys

from . import sweep as sweeplib
from . import zzzz_exact
from .dynamics import ModelKind, ModelSpec, Param
from .states import DEFAULT_ANGLES, StateAngles
from .sweep import parse_config, parse_number
from .validate import SUITES, validate

FIG_NUMBERS = ("2", "3", "4", "5", "6")


def _apply_overrides(config, args):
    updates = {}
    if getattr(args, "out", None):
        updates["out"] = args.out
    if getattr(args, "workers", None) not in (None, 1):
        raise ValueError(f"--{sweeplib.WORKERS_REMOVED}")
    if getattr(args, "nmax", None) is not None:
        trimmed = tuple(n for n in config.n_list if n <= args.nmax)
        updates["n_list"] = trimmed
    if updates:
        from dataclasses import replace
        config = replace(config, **updates)
    return config


def _run_and_emit(text: str, args, default_out: str) -> int:
    try:
        config = _apply_overrides(parse_config(text), args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = sweeplib.run_sweep(config)
    out = config.out or default_out
    try:
        sweeplib.emit_csv(result, out)
    except OSError as err:
        print(f"error: cannot write {out}: {err}", file=sys.stderr)
        return 2
    print(f"wrote {len(result.rows)} rows to {out}")
    for fit in result.fits:
        print(f"  fit {fit.quantity}/{fit.regime} N in [{fit.n_min}, {fit.n_max}]: "
              f"exponent {fit.exponent:.3f} +- {fit.stderr:.3f}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"error: cannot read {args.config}: {err}", file=sys.stderr)
        return 2
    return _run_and_emit(text, args, default_out="sweep.csv")


def _cmd_validate(args) -> int:
    if args.seed is not None and args.seed < 0:  # numpy seeds no generator from one
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    seed = {} if args.seed is None else {"seed": args.seed}
    report = validate(suites=args.suite, **seed)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} [{check.suite}] {check.name}: {check.details}")
    return 0 if report.passed else 1


def _cmd_exact(args) -> int:
    try:
        kind = ModelKind(args.model.upper())
        sel = Param[args.param.upper()]
    except (ValueError, KeyError):
        print(f"error: unknown model or parameter: {args.model} {args.param}",
              file=sys.stderr)
        return 1
    try:
        spec = ModelSpec(kind=kind, delta=args.delta, epsilon=args.epsilon,
                         omega0=args.omega0, omega1=args.omega1, x=args.x, t=args.t)
        angles = StateAngles(alpha=parse_number(args.alpha), phi=parse_number(args.phi),
                             beta=parse_number(args.beta), varphi=parse_number(args.varphi))
        if args.thermal is not None:
            value = zzzz_exact.thermal_global_qfi(spec, args.n, args.thermal,
                                                  angles.beta, sel)
            label = f"thermal global QFI[{sel.value}]"
        elif args.local:
            if sel is not Param.X:
                print("error: the local closed form is available for x only",
                      file=sys.stderr)
                return 1
            value = zzzz_exact.local_qfi_x_closed(spec, args.n, angles)
            label = "local QFI[x]"
        else:
            value = zzzz_exact.global_qfi_closed(spec, args.n, angles, sel)
            label = f"global QFI[{sel.value}]"
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ArithmeticError as err:  # OverflowError or numpy's FloatingPointError
        print(f"error: the closed form cannot be evaluated in floats: {err}", file=sys.stderr)
        return 1
    print(f"{label} N={args.n}: {value:.17g}")
    return 0


def _cmd_fig(args) -> int:
    text = importlib.resources.files("spinbus").joinpath(
        "configs", f"fig{args.number}.cfg").read_text(encoding="utf-8")
    return _run_and_emit(text, args, default_out=f"fig{args.number}.csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinbus",
        description="N-probe/quantum-bus sensitivity sweeps and validation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep config file")
    p_sweep.add_argument("config")
    _add_common(p_sweep)

    p_val = sub.add_parser("validate", help="run validation suites")
    p_val.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p_val.add_argument("--seed", type=int, default=None)

    p_exact = sub.add_parser("exact", help="closed-form query (ZZZZ)")
    p_exact.add_argument("model")
    p_exact.add_argument("param", help="x, omega0 or omega1")
    p_exact.add_argument("--n", type=int, default=10)
    p_exact.add_argument("--local", action="store_true",
                         help="local (bus) QFI instead of global")
    p_exact.add_argument("--thermal", type=float, default=None, metavar="BETA_TH",
                         help="thermal probes at inverse temperature BETA_TH")
    for name, default in vars(DEFAULT_ANGLES).items():
        p_exact.add_argument(f"--{name}", default=str(default))
    for name in ("delta", "epsilon", "omega0", "omega1", "x", "t"):
        p_exact.add_argument(f"--{name}", type=float, default=getattr(ModelSpec, name))

    p_fig = sub.add_parser("fig", help="reproduce a bundled figure sweep")
    p_fig.add_argument("number", choices=FIG_NUMBERS)
    _add_common(p_fig)

    args = parser.parse_args(argv)
    handlers = {"sweep": _cmd_sweep, "validate": _cmd_validate,
                "exact": _cmd_exact, "fig": _cmd_fig}
    return handlers[args.command](args)


def _add_common(subparser):
    subparser.add_argument("--out", default=None, help="output CSV path")
    # perfbench's Figures.run_pass passes `--workers 1`; ROADMAP direction 1's
    # benchmark change deletes this flag
    subparser.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)
    subparser.add_argument("--nmax", type=int, default=None,
                           help="truncate the N grid at this value")


if __name__ == "__main__":
    sys.exit(main())
