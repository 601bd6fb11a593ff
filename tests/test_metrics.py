"""Trajectory observables, envelope monitors, rate fits, asynchronous degree.

Closed-form cases are worked by hand from the quadrature definitions
(midpoint rule on cell centers, per-face area weights on the boundary);
simulated cases use profiles whose exact behavior is known, or synthetic
records built directly so each monitor's pass and fail branches are both
exercised against hand-computed envelopes.
"""

import dataclasses
import math

import numpy as np
import pytest

import hrnet.metrics as metrics
from hrnet.core import DerivedConstants, HRParameters, derive_constants, entry_time
from hrnet.domain import (
    build_domain,
    full_boundary_matching,
    integrate_domain,
    parse_matching,
    poincare_constants,
)
from hrnet.dynamics import (
    InitialCondition,
    IntegratorConfig,
    NetworkState,
    initial_state,
    simulate,
)
from hrnet.errors import IntegrationError, LinearSolveError
from hrnet.metrics import (
    MetricsOptions,
    TrajectoryObserver,
    TrajectoryRecord,
    asynchronous_degree,
    compute_K,
    energy_monitor,
    envelope_check,
    fit_sync_rate,
    pair_differences,
    record_trajectories,
    record_trajectory,
    stimulation_signal,
)
from hrnet.runner import simulation_report, sweep_row

# round-number constants so every envelope below is hand-checkable:
# threshold_perpair = big_r_alt * omega = 1, decay amplitude 2*max(g,1)*Q = 2
FRIENDLY = DerivedConstants(
    c1=1.0, c2=1.0, r_star=1.0, big_m=1.0, big_q=1.0, g=1.0,
    eta1=1.0, eta2=1.0, big_r=2.0, big_r_alt=1.0, mu=1.0, omega_measure=1.0,
)


# the measurements ahead of the pair columns in an observer row
ROW = ("t", "total_energy", "weighted_energy", "stimulation_s", "boundary_diff_full", "k_sum")
PAIRS = slice(len(ROW), None)


def observe(domain, consts, state):
    """One observer row of ``state``, on a network with both ends coupled."""
    matching = full_boundary_matching(domain, state.n_neurons, "1-2")
    return TrajectoryObserver(HRParameters.default(), matching, consts)(state)


def make_state(domain, u_rows, v_rows=None, w_rows=None, t=0.0):
    u = np.array(u_rows, dtype=np.float64)
    v = np.array(v_rows, dtype=np.float64) if v_rows is not None else np.zeros_like(u)
    w = np.array(w_rows, dtype=np.float64) if w_rows is not None else np.zeros_like(u)
    assert u.shape[-1] == domain.n_cells
    return NetworkState(t=t, u=u, v=v, w=w)


def constant_rows(domain, values):
    return [np.full(domain.n_cells, val) for val in values]


def synth_record(t, total, stim, sync, consts=FRIENDLY, envelope=None, weighted=None):
    """Assemble a record directly so monitor branches can be forced."""
    t = np.asarray(t, dtype=np.float64)
    total = np.asarray(total, dtype=np.float64)
    diff_g = np.asarray(sync, dtype=np.float64).reshape(-1, 1)
    if envelope is None:
        envelope = np.full_like(t, 10.0 * max(total.max(), 1.0))
    return TrajectoryRecord(
        t=t,
        total_energy=total,
        weighted_energy=np.asarray(weighted, np.float64) if weighted is not None else total.copy(),
        gronwall_envelope=np.asarray(envelope, dtype=np.float64),
        stimulation_s=np.asarray(stim, dtype=np.float64),
        threshold_literal=np.full_like(t, consts.big_r * consts.omega_measure),
        threshold_perpair=np.full_like(t, consts.big_r_alt * consts.omega_measure),
        boundary_diff_full=np.zeros_like(t),
        k_sum=np.zeros_like(t),
        diff_energy_g=diff_g,
        n_neurons=2,
        consts=consts,
    )


# ---------------------------------------------------------------------------
# pairwise difference energies
# ---------------------------------------------------------------------------

def test_pair_differences_identical_states_are_zero():
    domain = build_domain(1, [1.0], [8])
    field = np.linspace(-1.0, 2.0, domain.n_cells)
    state = make_state(domain, [field, field.copy()], [field, field.copy()])
    sq = pair_differences(state, domain)
    # one column per pair i < j: N = 2 has one
    assert sq.shape == (3, 1)
    assert np.all(sq == 0.0)


def test_pair_differences_constant_gap_oracle():
    # |Omega| = 2: u gap of 1 integrates to exactly 2, weighted by g in the row
    domain = build_domain(1, [2.0], [8])
    state = make_state(domain, constant_rows(domain, (1.0, 0.0)))
    u_sq, v_sq, w_sq = pair_differences(state, domain)
    assert u_sq.tolist() == [2.0]
    assert v_sq.tolist() == [0.0]
    assert (u_sq + v_sq + w_sq).tolist() == [2.0]
    row = observe(domain, dataclasses.replace(FRIENDLY, g=7.0), state)
    assert row[PAIRS].tolist() == [14.0]


def test_pair_differences_v_w_terms_not_weighted_by_g():
    domain = build_domain(1, [2.0], [8])
    u = constant_rows(domain, (0.5, 0.5))
    v = constant_rows(domain, (2.0, 0.0))
    w = constant_rows(domain, (3.0, 0.0))
    state = make_state(domain, u, v, w)
    u_sq, v_sq, w_sq = pair_differences(state, domain)
    assert u_sq.tolist() == [0.0]
    assert v_sq.tolist() == [8.0]   # 2^2 * |Omega|
    assert w_sq.tolist() == [18.0]  # 3^2 * |Omega|
    assert (u_sq + v_sq + w_sq).tolist() == [26.0]
    # g multiplies only the membrane term
    row = observe(domain, dataclasses.replace(FRIENDLY, g=7.0), state)
    assert row[PAIRS].tolist() == [26.0]


def test_pair_differences_three_neurons_symmetric():
    domain = build_domain(1, [1.0], [16])
    rng = np.random.default_rng(402)
    state = NetworkState(
        t=0.0,
        u=rng.normal(size=(3, domain.n_cells)),
        v=rng.normal(size=(3, domain.n_cells)),
        w=rng.normal(size=(3, domain.n_cells)),
    )
    sq = pair_differences(state, domain)
    # columns (1, 2), (1, 3), (2, 3); each pair's measure is that of its
    # reverse difference, so one column serves both orders
    assert sq.shape == (3, 3)
    for col, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        for k, field in enumerate((state.u, state.v, state.w)):
            gap = field[j] - field[i]
            assert sq[k, col] == integrate_domain(gap * gap, domain)


# ---------------------------------------------------------------------------
# boundary signals
# ---------------------------------------------------------------------------

def test_stimulation_signal_constant_gap_1d():
    # two faces of area 1, gap 0.5: S = p * 0.25 * 2 = p * 0.5
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    state = make_state(domain, constant_rows(domain, (0.75, 0.25)))
    assert stimulation_signal(state, matching, p=2.0) == 1.0
    assert stimulation_signal(state, matching, p=0.0) == 0.0


def test_stimulation_signal_trivial_matching_is_zero():
    domain = build_domain(1, [1.0], [8])
    state = make_state(domain, constant_rows(domain, (5.0, -5.0)))
    assert stimulation_signal(state, parse_matching([], domain, 2), p=3.0) == 0.0


def test_stimulation_signal_2d_area_weighting():
    # perimeter of [0,1]x[0,1.5] is 5; unit gap, p = 1 integrates to 5
    domain = build_domain(2, [1.0, 1.5], [4, 6])
    matching = full_boundary_matching(domain, 2, "1-2")
    state = make_state(domain, constant_rows(domain, (1.0, 0.0)))
    assert stimulation_signal(state, matching, p=1.0) == 5.0


def test_compute_K_two_neuron_constant_gap_probe():
    # gap delta = 0.5 on the whole boundary |Gamma| = 2:
    #   K_12 = 2 delta^2 |Gamma| = 1, summed K = 2, ordered-pair gap sum = 1
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    state = make_state(domain, constant_rows(domain, (0.75, 0.25)))
    res = compute_K(state, matching)
    assert res.k[0, 0] == 0.0 and res.k[1, 1] == 0.0
    assert res.k[0, 1] == pytest.approx(1.0, rel=1e-12)
    assert res.k[1, 0] == res.k[0, 1]
    assert res.k_sum == pytest.approx(2.0, rel=1e-12)
    assert res.boundary_diff_full == pytest.approx(1.0, rel=1e-12)
    assert res.k_sum / res.boundary_diff_full == pytest.approx(2.0, rel=1e-12)


def test_compute_K_symmetry_and_full_sum_random_fields():
    domain = build_domain(1, [1.0], [12])
    matching = full_boundary_matching(domain, 3, "1-2")  # neuron 3 zero-flux
    rng = np.random.default_rng(515)
    state = NetworkState(
        t=0.0,
        u=rng.normal(size=(3, domain.n_cells)),
        v=np.zeros((3, domain.n_cells)),
        w=np.zeros((3, domain.n_cells)),
    )
    res = compute_K(state, matching)
    assert np.array_equal(res.k, res.k.T)
    assert np.all(np.diag(res.k) == 0.0)
    # the full-boundary gap sum counts every ordered pair on every face
    uf = state.u[:, matching.domain.face_cell]
    expected = sum(
        float(np.sum((uf[i] - uf[j]) ** 2 * matching.domain.face_area))
        for i in range(3) for j in range(3) if i != j
    )
    assert res.boundary_diff_full == pytest.approx(expected, rel=1e-12)


def test_compute_K_trivial_matching_zero_cross_term():
    domain = build_domain(1, [1.0], [8])
    matching = parse_matching([], domain, 2)
    state = make_state(domain, constant_rows(domain, (1.0, 0.0)))
    res = compute_K(state, matching)
    assert np.all(res.k == 0.0)
    assert res.boundary_diff_full == 4.0  # unit gap, two unit faces, both orders
    assert res.k_sum == 0.0
    # identical fields: both sides vanish
    same = compute_K(make_state(domain, constant_rows(domain, (1.0, 1.0))), matching)
    assert same.k_sum == same.boundary_diff_full == 0.0


def test_report_gives_the_k_ratio_only_where_there_is_a_gap():
    t = np.linspace(0.0, 1.0, 4)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t), sync=np.exp(-t))
    # no gap on any row: no ratio to report
    assert "summed-K" not in simulation_report(record, FRIENDLY, MetricsOptions())
    # rows without a gap are left out of the range
    record.boundary_diff_full[:] = (0.0, 1.0, 2.0, 0.0)
    record.k_sum[:] = (5.0, 2.0, 2.0, 0.0)
    assert ("summed-K to boundary-gap ratio over run: min 1, max 2 (measured, not presumed)\n"
            in simulation_report(record, FRIENDLY, MetricsOptions()))


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

def standard_run(t_end=0.5, dt=1e-2, record_every=10, seed=3):
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [16])
    matching = full_boundary_matching(domain, 2, "1-2")
    pc = poincare_constants(domain, mode="analytic")
    consts = derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
    ic = InitialCondition(kind="uniform-random", seed=seed, offset=1.0, noise=0.1)
    cfg = IntegratorConfig(t_end=t_end, scheme="imex-euler", dt=dt,
                           record_every=record_every)
    record = record_trajectory(ic, params, domain, matching, cfg, consts)
    return record, consts, params, domain, matching


def test_record_trajectory_shapes_and_invariants():
    record, consts, *_ = standard_run()
    assert len(record) == 6  # steps 0, 10, 20, 30, 40, 50
    assert np.all(np.diff(record.t) > 0)
    assert record.t[0] == 0.0
    assert record.t[-1] == pytest.approx(0.5, abs=1e-12)
    assert record.n_neurons == 2
    assert record.diff_energy_g.shape == (6, 1)
    # thresholds are constants of the run, repeated per row
    assert np.all(record.threshold_literal == consts.big_r * consts.omega_measure)
    assert np.all(record.threshold_perpair == consts.big_r_alt * consts.omega_measure)
    assert np.array_equal(record.sync_total(), record.diff_energy_g[:, 0])


def test_trajectory_observer_row_contents():
    domain = build_domain(1, [2.0], [8])
    state0 = make_state(domain, constant_rows(domain, (1.0, 0.0)),
                        constant_rows(domain, (0.5, 0.5)),
                        constant_rows(domain, (0.25, 0.25)))
    later_state = make_state(domain, constant_rows(domain, (0.0, 0.0)), t=1.5)
    obs = TrajectoryObserver(HRParameters.default(p=2.0),
                             full_boundary_matching(domain, 2, "1-2"), FRIENDLY)
    # the observer keeps no state: the order of calls changes no row
    later = obs(later_state)
    row0 = obs(state0)
    assert np.array_equal(obs(later_state), later)
    assert not hasattr(obs, "rho0")
    assert row0.dtype == np.float64 and row0.shape == (len(ROW) + 1,)
    # energies: u contributes 1^2*2, v 2*0.25*2, w 2*0.0625*2 over both neurons
    assert row0[ROW.index("t")] == 0.0
    assert row0[ROW.index("total_energy")] == pytest.approx(2.0 + 1.0 + 0.25, rel=1e-14)
    assert row0[ROW.index("weighted_energy")] == pytest.approx(
        FRIENDLY.c1 * 2.0 + 1.0 + 0.25, rel=1e-14)
    # unit gap over both unit faces: S = p * 2, summed K = 4, gap sum = 2
    assert row0[ROW.index("stimulation_s")] == pytest.approx(4.0, rel=1e-14)
    assert row0[ROW.index("k_sum")] == pytest.approx(8.0, rel=1e-14)
    assert row0[ROW.index("boundary_diff_full")] == pytest.approx(4.0, rel=1e-14)
    assert row0[PAIRS].tolist() == [pytest.approx(2.0, rel=1e-14)]
    record = TrajectoryRecord.from_rows([row0, later], 2, FRIENDLY)
    # envelope anchored at the first row: ratio 1, decay 1, offset M|Omega|/1
    rho0 = row0[ROW.index("total_energy")]
    assert record.gronwall_envelope[0] == pytest.approx(rho0 + 1.0, rel=1e-14)
    assert record.threshold_literal.tolist() == [2.0, 2.0]   # big_r * omega_measure
    assert record.threshold_perpair.tolist() == [1.0, 1.0]   # big_r_alt * omega_measure
    # rho0 stays anchored; envelope decays with r_star = 1
    assert record.gronwall_envelope[1] == pytest.approx(
        math.exp(-1.5) * rho0 + 1.0, rel=1e-14)


def envelope_formula(t, rho0, c):
    """The Gronwall envelope at time t, as a scalar expression."""
    lo = min(c.c1, 1.0)
    return (max(c.c1, 1.0) / lo) * math.exp(-c.r_star * t) * rho0 + c.big_m * c.omega_measure / lo


def assert_derived_columns(record):
    c = record.consts
    rho0 = float(record.total_energy[0])
    assert record.gronwall_envelope.tolist() == [envelope_formula(t, rho0, c)
                                                 for t in record.t.tolist()]
    assert all(x == c.big_r * c.omega_measure for x in record.threshold_literal.tolist())
    assert all(x == c.big_r_alt * c.omega_measure for x in record.threshold_perpair.tolist())


def test_from_rows_derives_envelope_and_thresholds_per_row():
    record, consts, *_ = standard_run()
    assert record.consts is consts and len(record) == 6
    assert_derived_columns(record)
    # a partial record, cut short by a blow-up, anchors at its own first row
    partial = blown_up_record()
    assert 0 < len(partial) < 11
    assert_derived_columns(partial)


def unexpected_call(*args, **kwargs):
    raise AssertionError("called unexpectedly")


def test_observer_row_gathers_the_boundary_once(monkeypatch):
    domain = build_domain(1, [2.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    params = HRParameters.default(p=2.0)
    calls = []
    monkeypatch.setattr(metrics, "compute_K",
                        lambda state, m: calls.append(state) or compute_K(state, m))
    # the stimulation signal comes from compute_K's own gather
    monkeypatch.setattr(metrics, "stimulation_signal", unexpected_call)
    obs = TrajectoryObserver(params, matching, FRIENDLY)
    row = obs(make_state(domain, constant_rows(domain, (1.0, 0.0))))
    assert len(calls) == 1
    assert row[ROW.index("stimulation_s")] == 4.0  # p * 2 unit faces of unit gap


def test_record_from_rows_requires_rows():
    with pytest.raises(ValueError, match="no rows"):
        TrajectoryRecord.from_rows([], 2, FRIENDLY)


def blown_up_rows():
    """The rows kept by a run that overflows within its 10 steps, and its constants."""
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [32])
    matching = full_boundary_matching(domain, 2, "1-2")
    pc = poincare_constants(domain, mode="analytic")
    consts = derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
    ic = InitialCondition(kind="constant-per-neuron", u_values=(50.0, -50.0))
    cfg = IntegratorConfig(t_end=10.0, scheme="explicit-rk4", dt=1.0, record_every=1)
    with pytest.raises(IntegrationError) as exc:
        record_trajectory(ic, params, domain, matching, cfg, consts)
    return exc.value.rows, consts


def blown_up_record():
    """The partial record of a run that overflows within its 10 steps."""
    rows, consts = blown_up_rows()
    return TrajectoryRecord.from_rows(rows, 2, consts)


def test_record_trajectory_keeps_rows_on_blowup():
    rows, _ = blown_up_rows()
    assert 0 < len(rows) < 11
    assert rows[0][ROW.index("t")] == 0.0
    # recorded rows predate the failure, so all finite
    assert np.isfinite(np.array(rows)).all()


# ---------------------------------------------------------------------------
# envelope checks
# ---------------------------------------------------------------------------

def test_envelope_check_healthy_run_passes():
    record, consts, *_ = standard_run()
    report = envelope_check(record, consts)
    assert report.gronwall_violations == []
    # the absorbing radius dwarfs desk-scale energies: entry at the first row
    assert report.entry_time_observed == 0.0
    assert report.entry_ok
    # stimulation never reaches the (enormous) threshold: vacuous decay check
    assert report.windows == []
    assert report.decay_ok
    assert report.ok
    text = "\n".join(report.lines())
    assert "vacuously" in text
    assert "pass" in text


def test_envelope_check_flags_gronwall_violation():
    record = synth_record(
        [0.0, 1.0, 2.0], total=[0.5, 2.0, 0.5], stim=[0.0, 0.0, 0.0],
        sync=[0.1, 0.1, 0.1], envelope=[1.0, 1.0, 1.0])
    report = envelope_check(record, FRIENDLY)
    assert len(report.gronwall_violations) == 1
    v = report.gronwall_violations[0]
    assert v.t == 1.0 and v.energy == 2.0 and v.bound == 1.0
    assert not report.ok
    assert "FAIL" in "\n".join(report.lines())


def test_envelope_check_entry_failure_when_due():
    # energy pinned at 5 > Q = 1; deadline ln(5)*1.1 + 1 ~ 2.77 < horizon 4
    record = synth_record(
        [0.0, 1.0, 2.0, 3.0, 4.0], total=[5.0] * 5, stim=[0.0] * 5,
        sync=[0.1] * 5)
    report = envelope_check(record, FRIENDLY)
    assert report.entry_allowed == pytest.approx(math.log(5.0) * 1.1 + 1.0, rel=1e-12)
    assert report.entry_time_observed is None
    assert report.entry_due
    assert not report.entry_ok
    assert "never observed" in "\n".join(report.lines())


def test_envelope_check_entry_not_yet_due():
    record = synth_record([0.0, 0.5], total=[5.0, 5.0], stim=[0.0, 0.0],
                          sync=[0.1, 0.1])
    report = envelope_check(record, FRIENDLY)
    assert report.entry_time_observed is None
    assert not report.entry_due
    assert report.entry_ok
    assert "not yet due" in "\n".join(report.lines())


def test_envelope_check_entry_observed_time():
    record = synth_record([0.0, 1.0, 2.0], total=[5.0, 5.0, 0.5],
                          stim=[0.0] * 3, sync=[0.1] * 3)
    report = envelope_check(record, FRIENDLY)
    assert report.entry_time_observed == 2.0
    # observed 2.0 <= allowed ln(5)*1.1 + 1 ~ 2.77
    assert report.entry_ok


def test_envelope_decay_window_detection_and_pass():
    # rows 1..3 sit above threshold 1; sync halves each step, well under
    # the envelope 2 exp(-(t - 1)) * 1.1 = [2.2, 0.809, 0.298]
    record = synth_record(
        [0.0, 1.0, 2.0, 3.0, 4.0],
        total=[0.5] * 5,
        stim=[0.0, 5.0, 5.0, 5.0, 0.0],
        sync=[1.0, 1.0, 0.5, 0.25, 0.25])
    report = envelope_check(record, FRIENDLY)
    assert len(report.windows) == 1
    w = report.windows[0]
    assert (w.t_start, w.t_end, w.n_rows) == (1.0, 3.0, 3)
    assert w.envelope_ok and w.monotonic_ok
    assert report.decay_ok and report.ok
    # the largest ratio is the last row's: 0.25 / (2 exp(-2) * 1.1)
    assert report.lines()[2:] == [
        "conditional decay: pass over 1 window(s)",
        "  window t=[1, 3] rows=3 envelope_ratio=8.397e-01 monotonic=yes",
    ]


def test_envelope_decay_window_fails_on_growth():
    record = synth_record(
        [0.0, 1.0, 2.0, 3.0],
        total=[0.5] * 4,
        stim=[0.0, 5.0, 5.0, 0.0],
        sync=[0.1, 0.5, 1.0, 0.1])  # doubles inside the window
    report = envelope_check(record, FRIENDLY)
    assert len(report.windows) == 1
    assert not report.windows[0].monotonic_ok
    assert not report.decay_ok and not report.ok
    # 1.0 / (2 exp(-1) * 1.1) at t = 2
    assert report.lines()[2:] == [
        "conditional decay: FAIL over 1 window(s)",
        "  window t=[1, 2] rows=2 envelope_ratio=1.236e+00 monotonic=NO",
    ]


def test_envelope_decay_window_fails_on_envelope():
    # flat at 1.9: passes monotonicity, but the envelope at offset 2 is
    # 2 exp(-2) * 1.1 ~ 0.2977 < 1.9
    record = synth_record(
        [0.0, 1.0, 2.0, 3.0],
        total=[0.5] * 4,
        stim=[5.0, 5.0, 5.0, 0.0],
        sync=[1.9, 1.9, 1.9, 0.1])
    report = envelope_check(record, FRIENDLY)
    assert len(report.windows) == 1
    w = report.windows[0]
    assert w.monotonic_ok and not w.envelope_ok
    assert w.max_envelope_ratio > 1.0
    assert not report.ok


def test_envelope_two_separate_windows():
    record = synth_record(
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        total=[0.5] * 6,
        stim=[5.0, 0.0, 5.0, 5.0, 0.0, 5.0],
        sync=[0.1, 0.1, 0.2, 0.1, 0.1, 0.1])
    report = envelope_check(record, FRIENDLY)
    assert [(w.t_start, w.t_end) for w in report.windows] == [
        (0.0, 0.0), (2.0, 3.0), (5.0, 5.0)]


@pytest.mark.parametrize("scheme, dt", [("imex-euler", 1e-3), ("explicit-rk4", "auto")])
def test_low_threshold_profile_counts_a_decaying_window_on_real_rows(scheme, dt):
    # a legal profile that brings the per-pair threshold down to 0.277 on the
    # stock interval: at p = 10 the first rows rise above it, then decay
    domain = build_domain(1, [1.0], [128])
    matching = full_boundary_matching(domain, 2, "1-2")
    pc = poincare_constants(domain, mode="discrete")
    profile = HRParameters.default(a=1e-3, alpha=1e-3, q=1e-3, J=0.0, c=0.0, r=1.0,
                                   beta=0.1, b=40.0, d=0.01)
    profile.validate_strict()
    # one batch with an uncoupled member: each row takes its own member's p
    params_list = [profile.replace(p=10.0), profile.replace(p=0.0)]
    consts_list = [derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
                   for params in params_list]
    ic = InitialCondition(kind="uniform-random", seed=0, offset=1.0, noise=0.5)
    cfg = IntegratorConfig(t_end=1.0, scheme=scheme, dt=dt, record_every=10)
    coupled, uncoupled = record_trajectories([ic, ic], params_list, domain, matching, cfg,
                                             consts_list)
    assert np.count_nonzero(coupled.stimulation_s > coupled.threshold_perpair) >= 5
    report = envelope_check(coupled, consts_list[0])
    (window,) = report.windows
    assert window.n_rows >= 5 and window.envelope_ok and window.monotonic_ok
    assert report.decay_ok
    assert not uncoupled.stimulation_s.any()
    assert envelope_check(uncoupled, consts_list[1]).windows == []


# ---------------------------------------------------------------------------
# energy inequality monitor
# ---------------------------------------------------------------------------

def test_energy_monitor_healthy_run_passes():
    record, consts, *_ = standard_run()
    report = energy_monitor(record, consts)
    assert report.ok
    assert report.n_intervals == len(record) - 1
    assert report.max_lhs <= report.rhs
    assert report.rhs == pytest.approx(
        (consts.c2 + consts.c1 ** 2 / 32.0) * 2 * consts.omega_measure, rel=1e-14)
    assert "pass" in report.lines()[0]


def test_energy_monitor_flags_violation():
    # rhs = (1 + 1/32) * 2 * 1 = 2.0625; a jump of 10 over dt 1 gives
    # lhs = 10 + 0.5 * 10 = 15 > 2.0625 * 1.05
    record = synth_record([0.0, 1.0], total=[0.0, 10.0], stim=[0.0, 0.0],
                          sync=[0.1, 0.1], weighted=[0.0, 10.0])
    report = energy_monitor(record, FRIENDLY)
    assert not report.ok
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.t_mid == 0.5
    assert v.lhs == pytest.approx(15.0, rel=1e-14)
    assert report.max_lhs == v.lhs
    # one record has no interval: nothing to violate
    single = energy_monitor(synth_record([0.0], [1.0], [0.0], [0.1]), FRIENDLY)
    assert (single.ok, single.n_intervals, single.max_lhs) == (True, 0, -math.inf)
    assert "FAIL" in report.lines()[0]


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_sync_rate_recovers_pure_exponential():
    t = np.linspace(0.0, 5.0, 51)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t),
                          sync=np.exp(-3.0 * t))
    fit = fit_sync_rate(record)
    assert fit.rate == pytest.approx(3.0, abs=1e-9)
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.t_start == pytest.approx(2.5, abs=1e-12)  # trailing half
    assert fit.n_points == 26
    assert not fit.already_synchronized


def test_fit_sync_rate_constant_signal_is_zero_rate():
    t = np.linspace(0.0, 2.0, 21)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t),
                          sync=np.full_like(t, 0.5))
    fit = fit_sync_rate(record)
    assert abs(fit.rate) < 1e-12
    assert fit.r_squared == 1.0  # zero variance handled explicitly


def test_fit_sync_rate_floor_everywhere_is_synchronized_sentinel():
    t = np.linspace(0.0, 1.0, 11)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t),
                          sync=np.full_like(t, 1e-20))
    fit = fit_sync_rate(record)
    assert fit.already_synchronized
    assert math.isinf(fit.rate)
    assert fit.r_squared == 1.0
    assert "inf" in fit.lines()[0]


def test_fit_sync_rate_uses_prefix_before_floor_crossing():
    # exp(-40 t) crosses the 1e-14 floor at t ~ 0.806; later rows sit at
    # 1e-20 and must not pollute the fit
    t = np.linspace(0.0, 1.0, 101)
    sync = np.exp(-40.0 * t)
    sync[sync <= 1e-14] = 1e-20
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t),
                          sync=sync)
    fit = fit_sync_rate(record)
    assert fit.rate == pytest.approx(40.0, rel=1e-8)
    assert fit.t_end <= 0.80 + 1e-12
    assert fit.r_squared > 1.0 - 1e-10


def test_fit_sync_rate_falls_back_to_the_last_two_points():
    # a window of a tenth of the range holds one point, so the fit takes the
    # last two: the final step's rate, 3, not the earlier rate 1
    t = np.arange(4.0)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t),
                          sync=np.exp(-np.array([0.0, 1.0, 2.0, 5.0])))
    fit = fit_sync_rate(record, MetricsOptions(window_fraction=0.1))
    assert (fit.n_points, fit.t_start, fit.t_end) == (2, 2.0, 3.0)
    assert fit.rate == pytest.approx(3.0, rel=1e-12)


def test_fit_sync_rate_window_fraction_validation():
    # the options hold the fit's window, so a bad one fails before any fit
    with pytest.raises(ValueError, match="window_fraction"):
        MetricsOptions(window_fraction=0.0)
    with pytest.raises(ValueError, match="window_fraction"):
        MetricsOptions(window_fraction=1.5)


@pytest.mark.parametrize("change,message", [
    ({"tail_fraction": 0.0}, "tail_fraction must lie in"),
    ({"tail_fraction": 1.5}, "tail_fraction must lie in"),
    ({"floor": 0.0}, "floor must be > 0"),
])
def test_tail_fraction_and_floor_validation(change, message):
    with pytest.raises(ValueError, match=message):
        MetricsOptions(**change)


# ---------------------------------------------------------------------------
# each option governs its result
# ---------------------------------------------------------------------------

def test_tolerance_governs_both_envelope_monitors():
    # energy 1.04 over bound 1, and lhs 2.0625 * 1.04 over rhs 2.0625
    gronwall = synth_record([0.0, 1.0], total=[0.5, 1.04], stim=[0.0, 0.0],
                            sync=[0.1, 0.1], envelope=[1.0, 1.0])
    jump = 2.0625 * 1.04 / 1.5
    energy = synth_record([0.0, 1.0], total=[0.0, jump], stim=[0.0, 0.0],
                          sync=[0.1, 0.1], weighted=[0.0, jump])
    for opts, violated in ((MetricsOptions(), False), (MetricsOptions(tolerance=0.01), True)):
        assert bool(envelope_check(gronwall, FRIENDLY, opts).gronwall_violations) == violated
        assert bool(energy_monitor(energy, FRIENDLY, opts).violations) == violated


def test_entry_slack_moves_the_entry_deadline():
    record = synth_record([0.0, 1.0, 2.0, 3.0, 4.0], total=[5.0] * 5, stim=[0.0] * 5,
                          sync=[0.1] * 5)
    loose = envelope_check(record, FRIENDLY, MetricsOptions(entry_slack=0.5))
    assert loose.entry_allowed == pytest.approx(math.log(5.0) * 1.5 + 1.0, rel=1e-12)
    assert loose.entry_allowed > envelope_check(record, FRIENDLY).entry_allowed


def test_decay_tolerance_governs_window_monotonicity():
    # sync grows by 15 % inside one window, within its envelope throughout
    record = synth_record([0.0, 1.0, 2.0], total=[0.5] * 3, stim=[0.0, 5.0, 5.0],
                          sync=[0.1, 0.1, 0.115])
    assert not envelope_check(record, FRIENDLY).windows[0].monotonic_ok
    loose = envelope_check(record, FRIENDLY, MetricsOptions(decay_tolerance=0.2))
    assert loose.windows[0].monotonic_ok


def test_window_fraction_sets_the_fit_window():
    t = np.linspace(0.0, 5.0, 51)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t),
                          sync=np.exp(-3.0 * t))
    assert fit_sync_rate(record).n_points == 26
    assert fit_sync_rate(record, MetricsOptions(window_fraction=1.0)).n_points == 51


def test_floor_decides_already_synchronized():
    t = np.linspace(0.0, 1.0, 11)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t),
                          sync=np.full_like(t, 1e-10))
    assert not fit_sync_rate(record).already_synchronized
    assert fit_sync_rate(record, MetricsOptions(floor=1e-8)).already_synchronized


def test_floor_clamps_the_window_monotonicity():
    # inside one above-threshold window the pair energy rises from 2e-13 to
    # 1e-12: growth at the default floor, two zeros at floor 1e-10
    consts = derive_constants(HRParameters.default(), 1.0, 9.0, 9.0)
    stim = 2.0 * consts.big_r_alt * consts.omega_measure
    rows = [[t, 1.0, 1.0, stim, 0.0, 0.0, pair] for t, pair in ((0.0, 2e-13), (1.0, 1e-12))]
    record = TrajectoryRecord.from_rows(rows, 2, consts)
    assert not envelope_check(record, consts).windows[0].monotonic_ok
    assert envelope_check(record, consts, MetricsOptions(floor=1e-10)).windows[0].monotonic_ok


def test_tail_fraction_sets_the_sweep_tail():
    t = np.linspace(0.0, 1.0, 11)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t),
                          sync=np.exp(-t))
    # the tail maximum is the first row the tail holds
    assert sweep_row(MetricsOptions(), 1.0, FRIENDLY, record)["tail_dE_G"] == math.exp(-0.8)
    assert sweep_row(MetricsOptions(tail_fraction=1.0), 1.0, FRIENDLY,
                     record)["tail_dE_G"] == 1.0


@pytest.mark.parametrize("t,fraction", [([0.0], 0.2), ([0.0], 1.0),
                                        (np.linspace(0.0, 1.0, 11), 1.0)])
def test_trailing_window_keeps_every_row_of_one_row_or_the_whole_range(t, fraction):
    # row 0 holds the largest summed energy, so a tail maximum equal to it
    # shows the sweep's window kept row 0; the fit's window holds every row
    t = np.asarray(t)
    record = synth_record(t, total=np.ones_like(t), stim=np.zeros_like(t), sync=np.exp(-t))
    opts = MetricsOptions(tail_fraction=fraction, window_fraction=fraction)
    assert sweep_row(opts, 1.0, FRIENDLY, record)["tail_dE_G"] == 1.0
    assert fit_sync_rate(record, opts).n_points == len(t)


# ---------------------------------------------------------------------------
# asynchronous degree
# ---------------------------------------------------------------------------

def test_asynchronous_degree_identical_initial_data_is_zero():
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.05, scheme="explicit-rk4", dt=1e-3,
                           record_every=10)
    ic = InitialCondition(kind="constant-per-neuron",
                          u_values=(0.5, 0.5), v_values=(0.1, 0.1))
    deg = asynchronous_degree(params, domain, matching, cfg,
                              sample_count=2, seed=7, ic=ic)
    assert deg == 0.0


def test_asynchronous_degree_uncoupled_constant_gap_oracle():
    # reaction off, p = 0: the unit gap persists, so the degree is the
    # ordered-pair sum of sqrt(gap^2 * |Omega|) = 2
    params = HRParameters(a=0.0, b=0.0, alpha=0.0, beta=0.0, q=0.0, r=1.0,
                          c=0.0, J=0.0, d=1.0, p=0.0, n_neurons=2)
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.5, scheme="explicit-rk4", dt="auto",
                           record_every=5)
    ic = InitialCondition(kind="constant-per-neuron", u_values=(1.0, 0.0))
    deg = asynchronous_degree(params, domain, matching, cfg,
                              sample_count=3, seed=0, ic=ic)
    assert deg == pytest.approx(2.0, rel=1e-12)


def test_asynchronous_degree_of_a_one_row_run_is_its_initial_gap():
    # t_end = 0 records the initial state alone, and the tail keeps it: the
    # unit gap over |Omega| = 1, summed over both ordered pairs
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.0, scheme="explicit-rk4", dt=1e-3)
    ic = InitialCondition(kind="constant-per-neuron", u_values=(1.0, 0.0))
    deg = asynchronous_degree(params, domain, matching, cfg, sample_count=1, seed=0, ic=ic)
    assert deg == pytest.approx(2.0, rel=1e-12)


def test_asynchronous_degree_single_sample_matches_manual_run():
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.2, scheme="explicit-rk4", dt="auto",
                           record_every=2)
    ic = InitialCondition(kind="uniform-random", seed=0, offset=1.0, noise=0.1)
    seed = 11
    deg = asynchronous_degree(params, domain, matching, cfg, sample_count=1,
                              seed=seed, ic=ic)

    # replay the single sample by hand: same seed, horizon, tail rule
    from dataclasses import replace as dc_replace

    manual_ic = dc_replace(ic, seed=seed)
    res = simulate(manual_ic, params, domain, matching, cfg,
                   observer=lambda st: pair_differences(st, domain).sum(axis=0))
    times = np.asarray(res.times)
    tail = times >= times[-1] - 0.2 * (times[-1] - times[0])
    (worst,) = np.maximum.reduce([row for row, keep in zip(res.rows, tail) if keep])
    # summed over both ordered pairs (1, 2) and (2, 1)
    assert deg == float(np.sqrt([[0.0, worst], [worst, 0.0]]).sum())
    assert deg > 0.0


def test_asynchronous_degree_validates_sample_count():
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=1.0, dt=1e-3)
    with pytest.raises(ValueError, match="sample_count"):
        asynchronous_degree(params, domain, matching, cfg,
                            sample_count=0, seed=0)


def test_asynchronous_degree_default_initial_condition():
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.05, scheme="explicit-rk4", dt="auto", record_every=5)
    stock = InitialCondition(kind="uniform-random", offset=1.0, noise=0.1)
    deg = asynchronous_degree(params, domain, matching, cfg, sample_count=2, seed=3)
    assert deg == asynchronous_degree(params, domain, matching, cfg, sample_count=2,
                                      seed=3, ic=stock)
    assert deg > 0.0


def test_asynchronous_degree_linear_solve_failure_names_sample():
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.1, scheme="imex-euler", dt=1e-2, linear_tol=1e-30)
    with pytest.raises(LinearSolveError, match="residual") as exc:
        asynchronous_degree(params, domain, matching, cfg, sample_count=2, seed=4)
    assert str(exc.value).endswith("; asynchronous-degree sample 0 (seed 4)")


def test_asynchronous_degree_failure_names_sample():
    params = HRParameters.default()
    domain = build_domain(1, [1.0], [8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=10.0, scheme="explicit-rk4", dt=1.0,
                           record_every=1)
    ic = InitialCondition(kind="constant-per-neuron", u_values=(50.0, -50.0))
    with pytest.raises(IntegrationError) as exc:
        asynchronous_degree(params, domain, matching, cfg, sample_count=2,
                            seed=4, ic=ic)
    assert "sample 0" in str(exc.value)
    assert "seed 4" in str(exc.value)
