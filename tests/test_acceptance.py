"""Acceptance gate: every verification criterion, one pass/fail line each.

The full registry runs once (shared scenario cache) against the stock
config; each criterion then asserts its own result, so the -v output shows
one line per criterion, and the report lines together must equal the pinned
``tests/golden/verify/verify_report.txt`` byte for byte (``python
tests/test_golden.py`` re-pins it).  The step-size guard's failing branch is
exercised separately with a deliberately unstable configuration.
"""

import dataclasses
import pathlib

import pytest

from hrnet.config import load_config
from hrnet.verify import CRITERIA, VerifyContext, format_result, run_all, run_criterion

ROOT = pathlib.Path(__file__).resolve().parents[1]
STOCK_CONFIG = ROOT / "configs" / "default.ini"
VERIFY_GOLDEN = ROOT / "tests" / "golden" / "verify" / "verify_report.txt"


@pytest.fixture(scope="module")
def results():
    cfg = load_config(STOCK_CONFIG)
    res = {r.number: r for r in run_all(cfg, jobs=1)}
    for number in sorted(res):
        print(format_result(res[number]))
    return res


@pytest.mark.parametrize(
    "number,name",
    [(number, name) for number, name, _ in CRITERIA],
    ids=[f"{number:02d}-{name}" for number, name, _ in CRITERIA],
)
def test_criterion(results, number, name):
    result = results[number]
    print(format_result(result))
    assert result.passed, format_result(result)


def test_verify_report_matches_golden(results):
    # the lines `hrnet verify` writes, from the results the criteria share
    text = "".join(format_result(results[number]) + "\n" for number in sorted(results))
    assert text.encode("utf-8") == VERIFY_GOLDEN.read_bytes()


def test_step_size_guard_flags_unstable_config():
    cfg = load_config(STOCK_CONFIG)
    bad = dataclasses.replace(
        cfg, integrator=cfg.integrator.replace(scheme="explicit-rk4", dt=1.0))
    result = run_criterion(13, VerifyContext(cfg=bad))
    assert not result.passed
    assert "exceeds" in result.detail
    # the message must carry the computed stability bound
    assert "e-05" in result.detail


def test_verify_registry_is_complete():
    numbers = [number for number, _, _ in CRITERIA]
    assert numbers == list(range(1, 14))
    names = [name for _, name, _ in CRITERIA]
    assert len(set(names)) == len(names)
