"""Command-line front end.

Subcommands: ``constants`` (derived-constant block + constants.csv),
``simulate`` (trajectory.csv + report.txt), ``sweep`` (sweep.csv over one
scalar parameter), and ``verify`` (the acceptance-criteria suite).

Exit codes: 0 success, 2 config error (an output directory that cannot be
created too), 3 integration or solver failure, 4 verification failure, 5 an
artifact that cannot be written.  The output directory is ``--out`` if
given, else the ``HRNET_OUTDIR`` environment variable, else the config's
``[output] directory``; it is created before the command's work starts.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigError, SingularParameterError
from .runner import (
    atomic_write_text,
    check_sweepable,
    resolve_output_dir,
    run_constants,
    run_simulate,
    sweep_csv,
    sweep_rows,
    sweep_values,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_VERIFY = 4
EXIT_OUTPUT = 5


def _add_common(parser, config_required=True):
    parser.add_argument("--config", required=config_required, default=None,
                        help="path to the run config (INI format)")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides HRNET_OUTDIR and config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the initial-condition seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrnet",
        description="Boundary-coupled neural-network simulator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_constants = sub.add_parser(
        "constants", help="print model parameters and derived constants")
    _add_common(p_constants)
    p_constants.add_argument(
        "--domain-only", action="store_true",
        help="print only the Poincare constants and the domain measure")

    p_simulate = sub.add_parser(
        "simulate", help="run one simulation, writing trajectory.csv and report.txt")
    _add_common(p_simulate)

    p_sweep = sub.add_parser(
        "sweep", help="repeat the run over values of one scalar parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="name of the swept scalar parameter (e.g. p)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of values")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="number of worker processes, each running one "
                              "batch of the sweep's members")

    p_verify = sub.add_parser(
        "verify", help="run the acceptance-criteria suite")
    _add_common(p_verify, config_required=False)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="number of worker processes; each takes the next "
                               "shared ensemble or self-contained criterion")
    p_verify.add_argument("--list", action="store_true",
                          help="print criterion names without running them")
    return parser


def _constants(cfg, out_dir, args) -> int:
    sys.stdout.write(run_constants(cfg, out_dir, domain_only=args.domain_only))
    return EXIT_OK


def _simulate(cfg, out_dir, args) -> int:
    if run_simulate(cfg, out_dir) is None:
        return EXIT_OK
    print("run failed; partial trajectory flushed, see report.txt", file=sys.stderr)
    return EXIT_RUN


def _sweep(cfg, out_dir, args) -> int:
    rows = sweep_rows(cfg, args.param, args.values, jobs=args.jobs)
    atomic_write_text(os.path.join(out_dir, "sweep.csv"), sweep_csv(rows))
    return EXIT_OK


def _verify(cfg, out_dir, args) -> int:
    from . import verify

    results = verify.run_all(cfg, jobs=args.jobs)
    text = "".join(verify.format_result(r) + "\n" for r in results)
    sys.stdout.write(text)
    atomic_write_text(os.path.join(out_dir, "verify_report.txt"), text)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# each command's handler: (config, output directory, parsed arguments) -> exit code
_COMMANDS = {"constants": _constants, "simulate": _simulate, "sweep": _sweep,
             "verify": _verify}


def main(argv=None) -> int:
    """Load the config and create the output directory once, then run the command."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError("--jobs must be >= 1")
        if getattr(args, "list", False):
            from .verify import CRITERIA

            for number, name, _, _ in CRITERIA:
                print(f"{number:2d} {name}")
            return EXIT_OK
        if args.command == "sweep":  # every argument is checked before anything is made
            check_sweepable(args.param)
            args.values = sweep_values(args.values)
        if args.config is None:
            raise ConfigError("verify needs --config (or use --list)")
        cfg = load_config(args.config, seed=args.seed)
        out_dir = resolve_output_dir(cfg, args.out)
        if not getattr(args, "domain_only", False):  # the one run that writes nothing
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as err:
                raise ConfigError(f"cannot create output directory {out_dir}: {err.strerror}")
        return _COMMANDS[args.command](cfg, out_dir, args)
    except (ConfigError, SingularParameterError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # every read raises ConfigError, so this is a write
        print(f"output error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return EXIT_OUTPUT
