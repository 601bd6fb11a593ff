"""Pinned artifacts: the CLI must reproduce every golden file byte for byte.

Each case runs the CLI into a temporary directory and compares its artifacts
with the files under ``tests/golden/<case>/``.  The stock cases derive their
config from ``configs/default.ini`` with one line changed (a shorter
``t_end``, or ``eta_mode = analytic``); the others keep
theirs next to the pinned files as ``run.ini``, except that ``sweep-2d`` and
``sweep-2d-d`` sweep ``ring-2d``'s.  A command listed in ``STDOUT`` has its standard output
pinned as a file of its own.

``verify/verify_report.txt`` is the stock config's ``hrnet verify`` report;
``tests/test_acceptance.py`` compares it with the results it already has, so
verify runs once per test session.

Re-pin only for an intended change of numbers, and log it in CHANGES.md.
With case names, only those cases are re-pinned (``verify`` is one); with
none, every case and ``verify``::

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

import contextlib
import io
import pathlib
import shutil
import sys
import tempfile

import pytest

from hrnet.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# stock-config cases: the line each replaces in configs/default.ini, and its replacement
STOCK_EDITS = {"stock": ("t_end = 50.0", "t_end = 5.0"),
               "sweep-p": ("t_end = 50.0", "t_end = 2.0"),
               "sweep-d": ("t_end = 50.0", "t_end = 2.0"),
               "stock-analytic": ("eta_mode = discrete", "eta_mode = analytic")}

# cases that run another case's run.ini
SHARED_CONFIG = {"sweep-2d": "ring-2d", "sweep-2d-d": "ring-2d"}

# CLI command -> the file its stdout is pinned as
STDOUT = {("constants",): "constants.txt", ("constants", "--domain-only"): "domain.txt"}

# case -> (CLI commands, artifacts compared)
CASES = {
    "stock": ((["simulate"], ["constants"], ["constants", "--domain-only"]),
              ("trajectory.csv", "report.txt", "constants.csv",
               "constants.txt", "domain.txt")),
    "stock-analytic": ((["constants"], ["constants", "--domain-only"]),
                       ("constants.csv", "constants.txt", "domain.txt")),
    "ring-1d": ((["simulate"],), ("trajectory.csv", "report.txt")),
    "ring-1d-n32": ((["simulate"],), ("trajectory.csv", "report.txt")),
    "ring-2d": ((["simulate"],), ("trajectory.csv", "report.txt")),
    "sweep-p": ((["sweep", "--param", "p", "--values", "0,2,32"],),
                ("sweep.csv",)),
    "sweep-2d": ((["sweep", "--param", "p", "--values", "0,1,4"],),
                 ("sweep.csv",)),
    # members of different d in one batch: per-d uncoupled solves and Green's blocks
    "sweep-d": ((["sweep", "--param", "d", "--values", "0.5,1,2"],),
                ("sweep.csv",)),
    "sweep-2d-d": ((["sweep", "--param", "d", "--values", "0.5,1,2"],),
                   ("sweep.csv",)),
}


def config_text(case):
    if case in STOCK_EDITS:
        old, new = STOCK_EDITS[case]
        text = (ROOT / "configs" / "default.ini").read_text()
        assert old in text
        return text.replace(old, new)
    return (GOLDEN / SHARED_CONFIG.get(case, case) / "run.ini").read_text()


def run_case(case, out_dir):
    config = out_dir / "run.ini"
    config.write_text(config_text(case))
    for command, *options in CASES[case][0]:
        argv = [command, "--config", str(config), "--out", str(out_dir), *options]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == 0, argv
        if (command, *options) in STDOUT:
            (out_dir / STDOUT[command, *options]).write_text(stdout.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_artifacts_byte_identical(case, tmp_path, capsys):
    run_case(case, tmp_path)
    for name in CASES[case][1]:
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / case / name).read_bytes(), f"{case}/{name} changed"


def pin(case):
    """Rewrite the pinned files of ``case``, or of ``verify``, from a fresh run."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp)
        if case == "verify":
            main(["verify", "--config", str(ROOT / "configs" / "default.ini"), "--out", tmp])
            artifacts = ("verify_report.txt",)
        else:
            run_case(case, out_dir)
            artifacts = CASES[case][1]
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name in artifacts:
            shutil.copyfile(out_dir / name, GOLDEN / case / name)
    print(f"pinned {case}: {', '.join(artifacts)}")


if __name__ == "__main__":
    known = (*CASES, "verify")
    names = sys.argv[1:] or known
    unknown = [name for name in names if name not in known]
    if unknown:
        sys.exit(f"unknown case(s) {', '.join(unknown)}; known: {', '.join(known)}")
    for case in names:
        pin(case)
