"""Command-line interface.

Subcommands:

* ``run <config>``          -- full nonlinear experiment (or whatever mode
                               the config selects)
* ``operator-test <config>`` -- operator-level verification, no evolution
* ``linearized <config>``   -- linearized decay experiment
* ``fit <csv>``             -- offline re-fit of an existing series CSV

``--set section.key=value`` overrides config keys; the environment variable
``VPLANDAU_THREADS`` sets the number of threads over which the spatial nodes
split (:func:`vplandau.grid.split_nodes` reads it; the config checks and
echoes it).  ``operator-test`` reads a config written for ``run`` and lists
the evolution-only keys it ignores in its summary.  The exit status is 0
when the mode's built-in assertions pass, 1 when they fail, and 2 on
configuration or runtime errors (with a structured JSON report on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import diagnostics
from .config import load_config
from .errors import ConfigError
from .experiments import run_experiment


def _parse_overrides(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError([f"--set expects section.key=value, got {item!r}"])
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _cmd_run(args, forced_mode=None):
    overrides = _parse_overrides(args.set)
    if forced_mode:
        overrides["flags.mode"] = forced_mode
    cfg = load_config(args.config, overrides)
    summary, passed = run_experiment(cfg)
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if passed else 1


def _cmd_fit(args):
    data = diagnostics.read_series_csv(args.csv)
    if args.column not in data:
        raise ValueError(f"{args.csv} has no column {args.column!r}; "
                         f"its columns: {', '.join(data)}")
    window = None
    if args.window:
        try:
            lo, hi = (float(tok) for tok in args.window.split(","))
        except ValueError:
            raise ValueError("--window takes T0,T1, two numbers, got "
                             f"{args.window!r}") from None
        window = (lo, hi)
    fit = diagnostics.fit_decay(data["time"], data[args.column], args.mode,
                                window=window)
    json.dump(asdict(fit), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vplandau",
        description="Two-species Vlasov-Poisson-Landau spectral solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, mode in (("run", None), ("operator-test", "operator_test"),
                       ("linearized", "linearized")):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the INI-style config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config entry")
        p.set_defaults(func=lambda a, m=mode: _cmd_run(a, m))
    pf = sub.add_parser("fit")
    pf.add_argument("csv", help="series CSV produced by a run")
    pf.add_argument("--mode", choices=("exponential", "polynomial"),
                    default="exponential")
    pf.add_argument("--column", default="e_k")
    pf.add_argument("--window", default=None, metavar="T0,T1")
    pf.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        json.dump({"error": "config", "violations": exc.violations},
                  sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # structured error report, nonzero exit
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
