"""Acceptance gate: every verification criterion, one pass/fail line each.

The full registry runs once, over two workers, against the stock config;
each criterion then asserts its own result, so the -v output shows one line
per criterion, and the report lines together must equal the pinned
``tests/golden/verify/verify_report.txt`` byte for byte (``python
tests/test_golden.py`` re-pins it).  The step-size guard's failing branch is
exercised separately with a deliberately unstable configuration, and
every other criterion with a planted fault.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

import hrnet.domain
import hrnet.dynamics
import hrnet.verify as verify
from hrnet.config import MetricsOptions, load_config
from hrnet.core import HRParameters, derive_constants
from hrnet.domain import build_domain, full_boundary_matching, poincare_constants
from hrnet.dynamics import InitialCondition, IntegratorConfig, cfl_bound
from hrnet.errors import IntegrationError, LinearSolveError
from hrnet.metrics import record_trajectories
from hrnet.verify import CRITERIA, SWEEP_P_VALUES, format_result, run_all, run_criterion

ROOT = pathlib.Path(__file__).resolve().parents[1]
STOCK_CONFIG = ROOT / "configs" / "default.ini"
VERIFY_GOLDEN = ROOT / "tests" / "golden" / "verify" / "verify_report.txt"


@pytest.fixture(scope="module")
def results():
    cfg = load_config(STOCK_CONFIG)
    res = {r.number: r for r in run_all(cfg, jobs=2)}
    for number in sorted(res):
        print(format_result(res[number]))
    return res


@pytest.mark.parametrize(
    "number,name",
    [(number, name) for number, name, _, _ in CRITERIA],
    ids=[f"{number:02d}-{name}" for number, name, _, _ in CRITERIA],
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
    result = run_criterion(13, bad)
    assert not result.passed
    assert "exceeds" in result.detail
    # the message must carry the computed stability bound
    assert "e-05" in result.detail


@pytest.fixture(scope="module")
def small_runs():
    """Short runs on a 16-cell network standing in for the shared runs the
    criteria read, by name."""
    domain = build_domain(1, [1.0], [16])
    matching = full_boundary_matching(domain, 2, "1-2")
    pc = poincare_constants(domain, mode="discrete")
    params_list = [HRParameters.default(p=p) for p in SWEEP_P_VALUES]
    consts_list = [derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
                   for params in params_list]
    cfg = IntegratorConfig(t_end=2.0, scheme="imex-euler", dt=1e-2, record_every=5)
    sweep = record_trajectories([InitialCondition(seed=42)] * len(params_list),
                                params_list, domain, matching, cfg, consts_list)
    params = HRParameters.default()
    consts = derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
    ics = [InitialCondition(seed=seed) for seed in verify.ENVELOPE_SEEDS[:2]]
    envelope = record_trajectories(ics, [params] * 2, domain, matching, cfg, [consts] * 2)
    return {"envelope": envelope, "sweep": sweep}


def test_step_size_guard_names_the_bound_of_strong_coupling():
    # at p = 1000 the coupled end cells, not the Laplacian, bound the step
    cfg = load_config(STOCK_CONFIG)
    strong = dataclasses.replace(
        cfg, params=cfg.params.replace(p=1000.0),
        integrator=cfg.integrator.replace(scheme="explicit-rk4", dt="auto"))
    result = run_criterion(13, strong)
    assert result.passed
    assert result.detail == "auto step size respects the bound 6.233378e-06 by construction"


def test_step_size_guard_passes_a_numeric_step_within_the_bound():
    cfg = load_config(STOCK_CONFIG)
    integ = cfg.integrator.replace(scheme="explicit-rk4")
    bound = cfl_bound(cfg.domain, cfg.params.d, cfg.params.p) * integ.cfl_safety
    result = run_criterion(13, dataclasses.replace(cfg, integrator=integ.replace(dt=bound / 2)))
    assert result.passed
    assert result.detail == "configured dt 1.373291e-05 within the stability bound 2.746582e-05"


def test_coupling_sweep_ignores_the_configured_floor(small_runs):
    # simulation criteria fix their own settings: a small ensemble stands in
    # for criterion 8's sweep, and [metrics] floor must not reach the result
    stock = load_config(STOCK_CONFIG)
    details = []
    for floor in (1e-14, 1e-3):
        cfg = dataclasses.replace(stock, metrics=MetricsOptions(floor=floor))
        details.append(run_criterion(8, cfg, small_runs).detail)
    assert details[0] == details[1]
    assert "floor 1e-14" in details[0]


def test_verify_registry_is_complete():
    numbers = [number for number, _, _, _ in CRITERIA]
    assert numbers == list(range(1, 14))
    names = [name for _, name, _, _ in CRITERIA]
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
    return run_criterion(number, load_config(STOCK_CONFIG))


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
        return None  # completed

    monkeypatch.setattr(verify, "run_simulate", run_simulate)
    monkeypatch.setattr(verify, "sweep_rows", lambda cfg, param, values, jobs: [
        {"value": value, "status": "stub"} for value in values])
    result = planted_result(11)
    assert len(runs) == 2
    assert not result.passed
    assert result.detail == ("repeated stock run byte-identical: False (6 bytes); "
                             "duplicate sweep values give identical rows: True")


def test_determinism_criterion_words_a_failed_stock_run_as_report_txt(tmp_path):
    cfg = load_config(STOCK_CONFIG)
    cfg = dataclasses.replace(cfg, integrator=cfg.integrator.replace(linear_tol=1e-30))
    assert isinstance(verify.run_simulate(cfg, tmp_path), LinearSolveError)
    result = run_criterion(11, cfg)
    assert not result.passed
    assert result.detail + "\n" == (tmp_path / "report.txt").read_text()
    assert result.detail.startswith("linear solve failed: backward Euler solve at t=0: ")


def test_async_degree_criterion_catches_a_zero_estimate(monkeypatch):
    monkeypatch.setattr(verify, "asynchronous_degree", lambda *args, **kwargs: 0.0)
    result = planted_result(12)
    assert not result.passed
    assert result.detail.startswith("p=0 heterogeneous sampling: 0 (> 0)")


def shortened(monkeypatch, name):
    """Patch ``verify.<name>``, a runner taking the integrator config fifth,
    to run to t = 0.5 only: a planted fault shows within a few hundred steps."""
    original = getattr(verify, name)

    def run(ic, params, domain, matching, cfg, *rest, **kwargs):
        return original(ic, params, domain, matching, cfg.replace(t_end=0.5), *rest, **kwargs)

    monkeypatch.setattr(verify, name, run)


def test_conservation_criterion_catches_a_leaking_boundary(monkeypatch):
    # the zero-flux Laplacian's end cells lose a little more than they pass
    # on, in the solver and in the guard's assembled operator alike
    original = hrnet.domain._axis_laplacian

    def leaking(n, h):
        lap = original(n, h)
        lap.data[[0, -1]] *= 1.0 + 1e-6  # the two end cells' diagonal entries
        return lap

    monkeypatch.setattr(hrnet.domain, "_axis_laplacian", leaking)
    monkeypatch.setattr(hrnet.dynamics, "_axis_laplacian", leaking)
    shortened(monkeypatch, "simulate")
    result = planted_result(4)
    assert not result.passed
    assert result.detail == ("reaction off, N=2, p=1, t in [0, 10]: total mass 1.9902, "
                             "max drift 2.488e-04 (rel 1.250e-04 <= 1e-11)")


def test_sync_manifold_criterion_catches_a_neuron_dependent_reaction(monkeypatch):
    # the reaction gives the first neuron an input current 1e-6 too large
    original = hrnet.dynamics.reaction_rhs

    def uneven(state, params, out=None):
        du, dv, dw = original(state, params, out=out)
        du[..., 0, :] += 1e-6
        return du, dv, dw

    monkeypatch.setattr(hrnet.dynamics, "reaction_rhs", uneven)
    shortened(monkeypatch, "record_trajectory")
    result = planted_result(5)
    assert not result.passed
    assert result.detail == ("N=3 identical initial data, chain coupling, t_end=50: max "
                             "pairwise difference energy 2.985e-12 (<= 1e-16) over 2 records")


def seeded_result(number, small_runs, **replaced):
    """Criterion ``number`` judging ``small_runs`` with the runs named in
    ``replaced`` swapped for the records given."""
    return run_criterion(number, load_config(STOCK_CONFIG), {**small_runs, **replaced})


def test_small_runs_pass_the_criteria_that_judge_them(small_runs):
    assert [seeded_result(n, small_runs).passed for n in (6, 7, 9)] == [True] * 3


def test_envelope_criterion_catches_energy_above_the_envelope(small_runs):
    records = small_runs["envelope"]
    total = records[1].total_energy.copy()
    total[-1] = records[1].gronwall_envelope[-1] * 1.06
    perturbed = [records[0], dataclasses.replace(records[1], total_energy=total)]
    result = seeded_result(6, small_runs, envelope=perturbed)
    assert not result.passed
    assert result.detail == "seed 101: 1 envelope violations"


def test_energy_monitor_criterion_catches_a_jump(small_runs):
    records = small_runs["envelope"]
    weighted = records[0].weighted_energy.copy()
    weighted[10:] += 1e9  # between two records 0.05 apart: lhs 2e10 against rhs ~6e8
    perturbed = [dataclasses.replace(records[0], weighted_energy=weighted), records[1]]
    result = seeded_result(7, small_runs, envelope=perturbed)
    assert not result.passed
    assert result.detail == "seed 100: 1 violations"


def decaying(records, final=None):
    """``records`` with member k's difference energy 1e-3 exp(-2 (k + 1) t),
    which criterion 8 passes; ``final`` replaces the last member's last row."""
    out = []
    for k, record in enumerate(records):
        sync = 1e-3 * np.exp(-2.0 * (k + 1) * record.t)
        if final is not None and k == len(records) - 1:
            sync[-1] = final
        out.append(dataclasses.replace(record, diff_energy_g=sync[:, None]))
    return out


def test_coupling_sweep_criterion_catches_a_stalled_synchronization(small_runs):
    assert seeded_result(8, small_runs, sweep=decaying(small_runs["sweep"])).passed
    result = seeded_result(8, small_runs, sweep=decaying(small_runs["sweep"], final=1e-6))
    assert not result.passed
    assert "non-increasing with floor 1e-14: False; p=32 final 1.00e-06 <= 1e-8: False" \
        in result.detail


def test_conditional_decay_criterion_catches_a_rising_window(small_runs):
    records = small_runs["envelope"]
    record = records[0]
    stimulation, sync = record.stimulation_s.copy(), record.diff_energy_g.copy()
    # above the per-pair threshold for rows 10..15, the difference energy doubling
    stimulation[10:16] = 2.0 * record.threshold_perpair[10:16]
    sync[10:16] *= 2.0 ** np.arange(6)[:, None]
    perturbed = [dataclasses.replace(record, stimulation_s=stimulation, diff_energy_g=sync),
                 records[1]]
    result = seeded_result(9, small_runs, envelope=perturbed)
    assert not result.passed
    assert result.detail == "seed 100: decay envelope violated"


def test_conditional_decay_criterion_counts_a_decaying_window(small_runs):
    record = small_runs["envelope"][0]
    stimulation, sync = record.stimulation_s.copy(), record.diff_energy_g.copy()
    # above the per-pair threshold for rows 10..15, the difference energy halving
    stimulation[10:16] = 2.0 * record.threshold_perpair[10:16]
    sync[10:16] = sync[10] * 0.5 ** np.arange(6)[:, None]
    decaying_window = dataclasses.replace(record, stimulation_s=stimulation, diff_energy_g=sync)
    result = seeded_result(9, small_runs, envelope=[decaying_window], sweep=[])
    assert result.passed
    assert result.detail == ("1 above-threshold window(s) across 1 runs, all within the "
                             "exponential envelope at 10% tolerance")


def stub_own_runs(monkeypatch):
    """Stub every criterion that reads no shared run, to pass with "own run"."""
    monkeypatch.setattr(verify, "CRITERIA", tuple(
        (number, name, fn if reads else lambda cfg, runs: (True, "own run"), reads)
        for number, name, fn, reads in CRITERIA))


def test_a_linear_solve_failure_is_worded_as_in_report_txt():
    # the envelope run's member fails its implicit solve: the criterion reads
    # "linear solve failed: ...", as `hrnet simulate` writes it to report.txt
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    pc = poincare_constants(domain)
    consts = derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
    cfg = IntegratorConfig(t_end=0.1, scheme="imex-euler", dt=1e-2, linear_tol=1e-30)
    (failed,) = record_trajectories([InitialCondition(seed=3)], [params], domain, matching,
                                    cfg, [consts])
    assert isinstance(failed, LinearSolveError)
    result = run_criterion(6, load_config(STOCK_CONFIG), {"envelope": [failed]})
    assert not result.passed
    assert result.detail == f"linear solve failed: {failed}"


def test_run_criterion_rejects_an_unknown_number():
    with pytest.raises(ValueError, match="no criterion numbered 14"):
        run_criterion(14, load_config(STOCK_CONFIG))


def test_a_failed_shared_member_fails_every_criterion_that_reads_it(monkeypatch, small_runs):
    # the second envelope member blows up: 6, 7 and 9 fail with its error
    error = IntegrationError(3.5, 12.0)
    monkeypatch.setitem(verify.SHARED, "envelope",
                        lambda: [small_runs["envelope"][0], error])
    monkeypatch.setitem(verify.SHARED, "sweep", lambda: decaying(small_runs["sweep"]))
    stub_own_runs(monkeypatch)
    results = run_all(load_config(STOCK_CONFIG), jobs=1)
    assert [r.number for r in results] == list(range(1, 14))
    failed = {r.number: r.detail for r in results if not r.passed}
    assert failed == dict.fromkeys((6, 7, 9), f"integration failed: {error}")
    assert results[7].detail == seeded_result(8, small_runs,
                                              sweep=decaying(small_runs["sweep"])).detail
    assert {r.detail for r in results if r.number not in (6, 7, 8, 9)} == {"own run"}


def test_a_crashed_shared_run_fails_its_readers(monkeypatch, small_runs):
    # a builder that raises, rather than a member that fails, is reported the same way
    def crash():
        raise ValueError("no network")

    monkeypatch.setitem(verify.SHARED, "envelope", lambda: small_runs["envelope"])
    monkeypatch.setitem(verify.SHARED, "sweep", crash)
    stub_own_runs(monkeypatch)
    failed = {r.number: r.detail for r in run_all(load_config(STOCK_CONFIG), jobs=1)
              if not r.passed}
    assert failed == dict.fromkeys((8, 9), "raised ValueError: no network")
