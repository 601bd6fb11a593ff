"""Pinned artifacts: the CLI must reproduce every golden file byte for byte.

Each case runs the CLI into a temporary directory and compares its artifacts
with the files under ``tests/golden/<case>/``.  The stock cases derive their
config from ``configs/default.ini`` with a shorter ``t_end``; the others keep
theirs next to the pinned files as ``run.ini``.

``verify/verify_report.txt`` is the stock config's ``hrnet verify`` report;
``tests/test_acceptance.py`` compares it with the results it already has, so
verify runs once per test session.

Re-pin only for an intended change of numbers, and log it in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib
import shutil
import tempfile

import pytest

from hrnet.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# stock-config cases: t_end replacing the shipped 50.0
STOCK_T_END = {"stock": "5.0", "sweep-p": "2.0"}

# case -> (CLI commands, artifacts compared)
CASES = {
    "stock": ((["simulate"], ["constants"]),
              ("trajectory.csv", "report.txt", "constants.csv")),
    "ring-1d": ((["simulate"],), ("trajectory.csv", "report.txt")),
    "ring-2d": ((["simulate"],), ("trajectory.csv", "report.txt")),
    "sweep-p": ((["sweep", "--param", "p", "--values", "0,2,32"],),
                ("sweep.csv",)),
}


def config_text(case):
    if case in STOCK_T_END:
        text = (ROOT / "configs" / "default.ini").read_text()
        assert "t_end = 50.0" in text
        return text.replace("t_end = 50.0", f"t_end = {STOCK_T_END[case]}")
    return (GOLDEN / case / "run.ini").read_text()


def run_case(case, out_dir):
    config = out_dir / "run.ini"
    config.write_text(config_text(case))
    for command, *options in CASES[case][0]:
        argv = [command, "--config", str(config), "--out", str(out_dir), *options]
        assert main(argv) == 0, argv


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_artifacts_byte_identical(case, tmp_path, capsys):
    run_case(case, tmp_path)
    for name in CASES[case][1]:
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / case / name).read_bytes(), f"{case}/{name} changed"


if __name__ == "__main__":
    for case, (_, artifacts) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            run_case(case, pathlib.Path(tmp))
            (GOLDEN / case).mkdir(parents=True, exist_ok=True)
            for name in artifacts:
                shutil.copyfile(pathlib.Path(tmp) / name, GOLDEN / case / name)
        print(f"pinned {case}: {', '.join(artifacts)}")
    with tempfile.TemporaryDirectory() as tmp:
        main(["verify", "--config", str(ROOT / "configs" / "default.ini"), "--out", tmp])
        (GOLDEN / "verify").mkdir(exist_ok=True)
        shutil.copyfile(pathlib.Path(tmp) / "verify_report.txt",
                        GOLDEN / "verify" / "verify_report.txt")
    print("pinned verify: verify_report.txt")
