"""Command-line front end.

Subcommands: ``constants`` (derived-constant block + constants.csv),
``simulate`` (trajectory.csv + report.txt), ``sweep`` (sweep.csv over one
scalar parameter), and ``verify`` (the acceptance-criteria suite).

Exit codes: 0 success, 2 config error, 3 integration or solver failure,
4 verification failure.  The output directory is ``--out`` if given, else
the ``HRNET_OUTDIR`` environment variable, else the config's
``[output] directory``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigError, SingularParameterError
from .runner import (
    atomic_write_text,
    resolve_output_dir,
    run_constants,
    run_simulate,
    run_sweep,
    sweep_values,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 4


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
                          help="number of worker processes for the criteria's "
                               "ensembles, one batch of members each")
    p_verify.add_argument("--list", action="store_true",
                          help="print criterion names without running them")
    return parser


def _cmd_constants(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out_dir = resolve_output_dir(cfg, args.out)
    block = run_constants(cfg, out_dir, domain_only=args.domain_only)
    sys.stdout.write(block)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out_dir = resolve_output_dir(cfg, args.out)
    code = run_simulate(cfg, out_dir)
    if code != EXIT_OK:
        print("run failed; partial trajectory flushed, see report.txt",
              file=sys.stderr)
    return code


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out_dir = resolve_output_dir(cfg, args.out)
    values = sweep_values(args.values)
    return run_sweep(cfg, out_dir, args.param, values, jobs=args.jobs)


def _cmd_verify(args) -> int:
    from . import verify

    if args.list:
        for number, name, _ in verify.CRITERIA:
            print(f"{number:2d} {name}")
        return EXIT_OK
    if args.config is None:
        raise ConfigError("verify needs --config (or use --list)")
    cfg = load_config(args.config, seed=args.seed)
    out_dir = resolve_output_dir(cfg, args.out)
    results = verify.run_all(cfg, jobs=args.jobs)
    lines = [verify.format_result(r) for r in results]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    atomic_write_text(os.path.join(out_dir, "verify_report.txt"), text)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


_COMMANDS = {
    "constants": _cmd_constants,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError("--jobs must be >= 1")
        return _COMMANDS[args.command](args)
    except (ConfigError, SingularParameterError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
