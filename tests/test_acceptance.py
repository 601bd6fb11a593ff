"""Acceptance gate: every verification criterion, one pass/fail line each.

The full registry runs once (shared scenario cache) against the stock
config; each criterion then asserts its own result, so the -v output shows
one line per criterion, and the report lines together must equal the pinned
``tests/golden/verify/verify_report.txt`` byte for byte (``python
tests/test_golden.py`` re-pins it).  The step-size guard's failing branch is
exercised separately with a deliberately unstable configuration, and
criteria 1, 2, 3, 10, 11 and 12 each with a planted fault.
"""

import dataclasses
import pathlib

import pytest

import hrnet.verify as verify
from hrnet.config import MetricsOptions, load_config
from hrnet.core import HRParameters, derive_constants
from hrnet.domain import build_domain, full_boundary_matching, poincare_constants
from hrnet.dynamics import InitialCondition, IntegratorConfig
from hrnet.metrics import record_trajectories
from hrnet.verify import (
    CRITERIA,
    SWEEP_P_VALUES,
    VerifyContext,
    format_result,
    run_all,
    run_criterion,
)

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


def test_coupling_sweep_ignores_the_configured_floor():
    # simulation criteria fix their own settings: a small ensemble stands in
    # for criterion 8's sweep, and [metrics] floor must not reach the result
    domain = build_domain(1, [1.0], [16])
    matching = full_boundary_matching(domain, 2, "1-2")
    pc = poincare_constants(domain, mode="discrete")
    params_list = [HRParameters.default(p=p) for p in SWEEP_P_VALUES]
    consts_list = [derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
                   for params in params_list]
    cfg = IntegratorConfig(t_end=2.0, scheme="imex-euler", dt=1e-2, record_every=5)
    records = record_trajectories([InitialCondition(seed=42)] * len(params_list),
                                  params_list, domain, matching, cfg, consts_list)
    stock = load_config(STOCK_CONFIG)
    details = []
    for floor in (1e-14, 1e-3):
        ctx = VerifyContext(cfg=dataclasses.replace(stock, metrics=MetricsOptions(floor=floor)))
        ctx._cache["sweep"] = list(zip(SWEEP_P_VALUES, records))
        details.append(run_criterion(8, ctx).detail)
    assert details[0] == details[1]
    assert "floor 1e-14" in details[0]


def test_verify_registry_is_complete():
    numbers = [number for number, _, _ in CRITERIA]
    assert numbers == list(range(1, 14))
    names = [name for _, name, _ in CRITERIA]
    assert len(set(names)) == len(names)


# ---------------------------------------------------------------------------
# planted faults: each criterion below must catch a defect that leaves the
# run plausible.  A name that ``hrnet.verify`` imports is patched, so no
# long simulation runs.
# ---------------------------------------------------------------------------

def scaled(monkeypatch, name, change):
    """Patch ``verify.<name>`` to return ``change`` of the original's result."""
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args, **kwargs: change(original(*args, **kwargs)))


def planted_result(number):
    return run_criterion(number, VerifyContext(cfg=load_config(STOCK_CONFIG)))


def test_constants_oracle_catches_a_perturbed_c1(monkeypatch):
    scaled(monkeypatch, "derive_constants",
           lambda consts: dataclasses.replace(consts, c1=consts.c1 * (1.0 + 1e-9)))
    result = planted_result(1)
    assert not result.passed
    # the entry time, which reads c1 too, moves by more than c1 itself
    assert "max rel err 2.466e-09 (tolerance 1e-12)" in result.detail


def test_poincare_criterion_catches_a_scaled_eta1(monkeypatch):
    scaled(monkeypatch, "poincare_constants",
           lambda pc: dataclasses.replace(pc, eta1=pc.eta1 * 1.02))
    result = planted_result(2)
    assert not result.passed
    # a constant 2 % offset: the errors stop converging
    assert "orders -0.045, -0.011 (band 2.0 +/- 0.2)" in result.detail
    assert "rel err 1.991e-02 (<= 1e-2)" in result.detail


def test_operator_order_catches_a_scaled_diffusion(monkeypatch):
    scaled(monkeypatch, "apply_diffusion", lambda out: out * 1.01)
    result = planted_result(3)
    assert not result.passed
    assert "orders -0.094, -0.023 (band 2.0 +/- 0.2)" in result.detail


def test_k_probe_catches_a_scaled_cross_term(monkeypatch):
    scaled(monkeypatch, "compute_K",
           lambda res: dataclasses.replace(res, k_sum=res.k_sum * 1.01))
    result = planted_result(10)
    assert not result.passed
    assert "(4 d^2 |Gamma|, rel 1.0e-02)" in result.detail


def test_determinism_criterion_catches_a_changed_rerun(monkeypatch, tmp_path):
    runs = []

    def run_simulate(cfg, out_dir):
        runs.append(out_dir)
        pathlib.Path(out_dir).mkdir()
        (pathlib.Path(out_dir) / "trajectory.csv").write_text(f"run {len(runs)}\n")
        return 0

    monkeypatch.setattr(verify, "run_simulate", run_simulate)
    monkeypatch.setattr(verify, "sweep_rows", lambda cfg, param, values, jobs: [
        {"value": value, "status": "stub"} for value in values])
    result = planted_result(11)
    assert len(runs) == 2
    assert not result.passed
    assert result.detail == ("repeated stock run byte-identical: False (6 bytes); "
                             "duplicate sweep values give identical rows: True")


def test_async_degree_criterion_catches_a_zero_estimate(monkeypatch):
    monkeypatch.setattr(verify, "asynchronous_degree", lambda *args, **kwargs: 0.0)
    result = planted_result(12)
    assert not result.passed
    assert result.detail.startswith("p=0 heterogeneous sampling: 0 (> 0)")
