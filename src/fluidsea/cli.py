"""Command-line entry point.

Subcommands take an experiment config file and write CSV/report artifacts
plus a SHA-256 manifest into the output directory:

    fluidsea simulate <config>     time-domain run, trace.csv
    fluidsea sysid <config>        chirp identification pipeline
    fluidsea impedance <config>    endpoint impedance sweep
    fluidsea workloop <config>     quasi-static backdrive work loops
    fluidsea zwidth <config>       impedance range against the stiff PD hold
    fluidsea passivity <config>    observer passivity bounds and report
    fluidsea preset <name>         run a built-in figure pipeline
    fluidsea presets               list built-in presets

There is one config subcommand per ``[analysis] type``, and the config's
type must match it. Global overrides: --out, --dt, --seed, --lambda
(observer cutoff, rad/s).
Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    _RUNNERS,
    ConfigError,
    apply_overrides,
    parse_config_file,
    presets,
    run_experiment,
    run_preset,
)
from .impedance import DahlFitError, WorkLoopError
from .plant import SimulationDivergedError
from .sysid import FitError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidsea",
        description="fluid series-elastic actuation: simulation and analysis runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--dt", type=float, help="control period override [s]")
        p.add_argument("--seed", type=int, help="noise seed override")
        p.add_argument(
            "--lambda", dest="lam", type=float,
            help="observer cutoff override [rad/s]",
        )

    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} analysis from a config file")
        p.add_argument("config", help="experiment config file (INI form)")
        add_common(p)

    p = sub.add_parser("preset", help="run a built-in figure pipeline")
    p.add_argument("name", help="preset name; see 'fluidsea presets'")
    add_common(p)

    sub.add_parser("presets", help="list built-in presets")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, desc in presets().items():
                print(f"{name:18s} {desc}")
            return 0
        if args.command == "preset":
            out = args.out or args.name.replace("/", "_")
            files = run_preset(args.name, out, dt=args.dt, seed=args.seed, lam=args.lam)
            for f in files:
                print(f)
            return 0

        cfg = parse_config_file(args.config)
        if cfg.analysis.kind != args.command:
            raise ConfigError(
                f"[analysis] type is {cfg.analysis.kind!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        cfg = apply_overrides(cfg, dt=args.dt, seed=args.seed, lam=args.lam)
        files = run_experiment(cfg, args.out)
        for f in files:
            print(f)
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationDivergedError, FitError, WorkLoopError, DahlFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
