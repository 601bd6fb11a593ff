"""Reaction terms, integrators, and the simulation driver.

The equilibrium oracle solves the pointwise steady-state system through an
independent route (polynomial root finding) and checks the assembled
right-hand side there.  Temporal accuracy is established by self-convergence:
the error of step size s is measured against the s/4 solution, so halving s
must shrink it by the scheme's order.
"""

import math
import pickle

import numpy as np
import pytest

import hrnet.dynamics as dynamics
from hrnet.core import HRParameters
from hrnet.domain import (
    apply_diffusion,
    build_domain,
    full_boundary_matching,
    integrate_domain,
)
from hrnet.dynamics import (
    InitialCondition,
    IntegratorConfig,
    Integrator,
    NetworkState,
    cfl_bound,
    initial_state,
    reaction_rhs,
    resolve_dt,
    simulate,
    simulate_ensemble,
)
from hrnet.errors import ConfigError, IntegrationError, LinearSolveError


def default_setup(n_cells=32, n_neurons=2, pairs="1-2", **overrides):
    params = HRParameters.default(n_neurons=n_neurons, **overrides)
    domain = build_domain(1, [1.0], [n_cells])
    matching = full_boundary_matching(domain, n_neurons, pairs)
    return params, domain, matching


def constant_state(domain, n, u=0.0, v=0.0, w=0.0):
    shape = (n, domain.n_cells)
    return NetworkState(0.0, np.full(shape, u), np.full(shape, v), np.full(shape, w))


def equilibrium_root(params):
    """Steady state of the pointwise system via polynomial roots.

    Eliminating v = alpha - beta u^2 and w = q (u - c) / r leaves a cubic in
    u; the real root is the resting potential.
    """
    coeffs = [
        -params.b,
        params.a - params.beta,
        -params.q / params.r,
        params.alpha + params.J + params.q * params.c / params.r,
    ]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9].real
    assert real.size >= 1
    u = float(real[0])
    v = params.alpha - params.beta * u * u
    w = params.q * (u - params.c) / params.r
    return u, v, w


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_reaction_at_origin():
    params = HRParameters.default(c=0.0)
    domain = build_domain(1, [1.0], [8])
    state = constant_state(domain, 2)
    du, dv, dw = reaction_rhs(state, params)
    assert np.all(du == params.J)
    assert np.all(dv == params.alpha)
    assert np.all(dw == 0.0)


def test_reaction_all_terms_off():
    params = HRParameters(a=0, b=0, alpha=0, beta=0, q=0, r=1.0, c=0.0, J=0.0,
                          d=1.0, p=1.0, n_neurons=2)
    domain = build_domain(1, [1.0], [8])
    state = constant_state(domain, 2, u=1.3, v=0.0, w=0.0)
    du, dv, dw = reaction_rhs(state, params)
    assert np.all(du == 0.0)
    assert np.all(dv == 0.0)
    assert np.all(dw == 0.0)


def test_reaction_substitution():
    # u=1, v=2, w=3, a=3, b=1, J=0: du = 3 - 1 + 2 - 3 = 1
    params = HRParameters.default(a=3.0, b=1.0, J=0.0)
    domain = build_domain(1, [1.0], [8])
    state = constant_state(domain, 2, u=1.0, v=2.0, w=3.0)
    du, _, _ = reaction_rhs(state, params)
    assert np.all(du == 1.0)


# the full right-hand side is the reaction plus diffusion and coupling on u

def test_full_rhs_vanishes_at_equilibrium():
    params, domain, matching = default_setup()
    u, v, w = equilibrium_root(params)
    state = constant_state(domain, 2, u=u, v=v, w=w)
    du, dv, dw = reaction_rhs(state, params)
    du = du + apply_diffusion(state.u, matching, params.d, params.p)
    for arr in (du, dv, dw):
        assert np.abs(arr).max() <= 1e-9


def test_full_rhs_equals_reaction_when_uncoupled_constant():
    params, domain, matching = default_setup(p=0.0)
    state = constant_state(domain, 2, u=0.7, v=-0.2, w=0.4)
    du, _, _ = reaction_rhs(state, params)
    full = du + apply_diffusion(state.u, matching, params.d, params.p)
    assert np.array_equal(full, du)


def test_full_rhs_added_term_linear_in_u():
    params, domain, matching = default_setup()
    rng = np.random.default_rng(88)
    u1 = rng.normal(size=(2, domain.n_cells))
    u2 = rng.normal(size=(2, domain.n_cells))

    def added(u):
        return apply_diffusion(u, matching, params.d, params.p)

    lhs = added(2.0 * u1 - 3.0 * u2)
    rhs = 2.0 * added(u1) - 3.0 * added(u2)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(np.abs(rhs).max(), 1.0)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_preserves_equilibrium():
    params, domain, matching = default_setup()
    u, v, w = equilibrium_root(params)
    state = constant_state(domain, 2, u=u, v=v, w=w)
    batch = NetworkState(0.0, state.u[None], state.v[None], state.w[None])
    for scheme in ("explicit-rk4", "imex-euler"):
        cfg = IntegratorConfig(t_end=1.0, scheme=scheme, dt=1e-3)
        new, errors = Integrator(params, domain, matching, cfg).step(batch)
        assert errors == {}
        assert np.abs(new.u - state.u).max() <= 1e-10
        assert np.abs(new.v - state.v).max() <= 1e-10
        assert np.abs(new.w - state.w).max() <= 1e-10


def reaction_off_params(n_neurons=2):
    return HRParameters(a=0, b=0, alpha=0, beta=0, q=0, r=1.0, c=0.0, J=0.0,
                        d=1.0, p=1.0, n_neurons=n_neurons)


def test_pure_transport_conserves_total_u():
    params = reaction_off_params()
    domain = build_domain(1, [1.0], [64])
    matching = full_boundary_matching(domain, 2, "1-2")
    state = initial_state(
        InitialCondition(kind="uniform-random", seed=7, offset=1.0, noise=0.5),
        domain, 2,
    )
    state.v[:] = 0.0
    state.w[:] = 0.0
    total0 = float(np.sum(integrate_domain(state.u, domain)))
    for scheme, dt, t_end in (("explicit-rk4", "auto", 1.0), ("imex-euler", 2e-3, 5.0)):
        cfg = IntegratorConfig(t_end=t_end, scheme=scheme, dt=dt, record_every=10 ** 9)
        res = simulate(state, params, domain, matching, cfg)
        total1 = float(np.sum(integrate_domain(res.state.u, domain)))
        assert abs(total1 - total0) <= 1e-12 * abs(total0) * t_end


def smooth_setup():
    params = HRParameters.default(p=2.0)
    domain = build_domain(1, [1.0], [16])
    matching = full_boundary_matching(domain, 2, "1-2")
    ic = InitialCondition(kind="smooth-bump", offset=0.5, amplitude=1.0, width=0.2)
    return params, domain, matching, ic


def terminal_vector(scheme, dt, t_end, setup):
    params, domain, matching, ic = setup
    cfg = IntegratorConfig(t_end=t_end, scheme=scheme, dt=dt, record_every=10 ** 9)
    res = simulate(ic, params, domain, matching, cfg)
    return np.concatenate(
        [res.state.u.ravel(), res.state.v.ravel(), res.state.w.ravel()]
    )


def self_convergence_ratio(scheme, s1, t_end, setup):
    e = []
    for s in (s1, s1 / 2):
        coarse = terminal_vector(scheme, s, t_end, setup)
        ref = terminal_vector(scheme, s / 4, t_end, setup)
        e.append(float(np.abs(coarse - ref).max()))
    return e[0] / e[1]


def test_rk4_fourth_order_self_convergence():
    ratio = self_convergence_ratio("explicit-rk4", 8e-4, 0.16, smooth_setup())
    assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3, ratio


def test_imex_first_order_self_convergence():
    ratio = self_convergence_ratio("imex-euler", 4e-3, 0.2, smooth_setup())
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3, ratio


def test_schemes_agree_to_first_order():
    setup = smooth_setup()
    d1 = np.abs(
        terminal_vector("explicit-rk4", 1e-3, 1.0, setup)
        - terminal_vector("imex-euler", 1e-3, 1.0, setup)
    ).max()
    d2 = np.abs(
        terminal_vector("explicit-rk4", 5e-4, 1.0, setup)
        - terminal_vector("imex-euler", 5e-4, 1.0, setup)
    ).max()
    assert 2.0 * 0.7 <= d1 / d2 <= 2.0 * 1.3, d1 / d2


def test_imex_linear_tolerance_enforced():
    params, domain, matching = default_setup()
    ic = InitialCondition(kind="uniform-random", seed=3)
    cfg = IntegratorConfig(t_end=0.1, scheme="imex-euler", dt=1e-2, linear_tol=1e-30)
    with pytest.raises(LinearSolveError):
        simulate(ic, params, domain, matching, cfg)


def test_non_finite_update_fails_integration_whatever_the_guard_says():
    # no residual meets 1e-30, so the guard fails both members at the first
    # step; the member whose u^3 overflows has a non-finite new state, and
    # the health check reports it as an integration failure
    params, domain, matching = default_setup()
    ics = [InitialCondition(kind="constant-per-neuron", u_values=(1e103, 0.0)),
           InitialCondition(kind="uniform-random", seed=3)]
    cfg = IntegratorConfig(t_end=0.1, scheme="imex-euler", dt=1e-2, linear_tol=1e-30)
    blown, unsolved = simulate_ensemble(ics, [params] * 2, domain, matching, cfg)
    assert type(blown) is IntegrationError
    assert (blown.t, blown.max_abs_u) == (1e-2, 1e103)
    assert type(unsolved) is LinearSolveError
    assert str(unsolved).startswith("backward Euler solve at t=0: residual ")
    assert len(blown.rows) == len(unsolved.rows) == 1


# ---------------------------------------------------------------------------
# config and dt resolution
# ---------------------------------------------------------------------------

def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, scheme="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, dt="fast")
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, cfl_safety=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, linear_tol=0.0)


def test_resolve_dt_lands_on_t_end():
    params, domain, _ = default_setup()
    cfg = IntegratorConfig(t_end=1.0, dt=3e-4)
    dt, n = resolve_dt(cfg, domain, params)
    assert n * dt == pytest.approx(1.0, rel=1e-15)
    assert dt <= 3e-4 * (1 + 1e-9)


def test_resolve_dt_rejects_a_step_that_underflows_to_zero():
    params, domain, _ = default_setup()
    cfg = IntegratorConfig(t_end=1.0, scheme="explicit-rk4", dt="auto", cfl_safety=5e-324)
    with pytest.raises(ValueError, match=r"^the step size 0 is not positive$"):
        resolve_dt(cfg, domain, params)


def test_resolve_dt_rejects_a_step_count_past_float_range():
    params, domain, _ = default_setup()
    cfg = IntegratorConfig(t_end=1e300, dt=1e-10)
    with pytest.raises(ValueError, match=r"^t_end / dt = 1e\+300 / 1e-10 is too many steps"):
        resolve_dt(cfg, domain, params)


def test_auto_dt_respects_stability_bound():
    params, domain, _ = default_setup()
    cfg = IntegratorConfig(t_end=1.0, dt="auto", cfl_safety=0.5)
    dt, _ = resolve_dt(cfg, domain, params)
    assert dt <= 0.5 * cfl_bound(domain, params.d) * (1 + 1e-12)


def test_cfl_bound_value():
    domain = build_domain(1, [1.0], [32])
    # h = 1/32: bound = h^2 / (2 * 1 * d)
    assert cfl_bound(domain, 2.0) == pytest.approx((1 / 32) ** 2 / 4.0, rel=1e-14)


def test_cfl_bound_counts_the_coupled_boundary_rows():
    domain = build_domain(1, [1.0], [128])
    # up to p = 1/h the Laplacian's interior rows bind, bit for bit as uncoupled
    assert cfl_bound(domain, 1.0, 128.0) == cfl_bound(domain, 1.0)
    # beyond it an end cell's row d (1/h^2 + p/h) does: 1 / (16384 + 128000)
    assert cfl_bound(domain, 1.0, 1000.0) == 1.0 / 144384.0
    # in 2D a corner cell's row holds two coupled faces: 2 (64 + 800) at h = 1/8
    square = build_domain(2, [1.0, 1.0], [8, 8])
    assert cfl_bound(square, 2.0, 100.0) == pytest.approx(1.0 / (2.0 * 1728.0), rel=1e-15)


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def test_constant_per_neuron_values():
    domain = build_domain(1, [1.0], [8])
    ic = InitialCondition(kind="constant-per-neuron", u_values=(1.0, -2.0),
                          v_values=(0.5, 0.5), w_values=())
    state = initial_state(ic, domain, 2)
    assert np.all(state.u[0] == 1.0) and np.all(state.u[1] == -2.0)
    assert np.all(state.v == 0.5)
    assert np.all(state.w == 0.0)
    with pytest.raises(ValueError, match="per neuron"):
        initial_state(ic, domain, 3)


def test_smooth_bump_defaults_to_domain_center():
    domain = build_domain(1, [2.0], [64])
    ic = InitialCondition(kind="smooth-bump", offset=0.0, amplitude=2.0, width=0.3)
    state = initial_state(ic, domain, 2)
    peak_cell = int(np.argmax(state.u[0]))
    (x,) = domain.cell_center_coords()
    assert abs(x[peak_cell] - 1.0) <= domain.h[0]
    # the center lies on a cell edge, so the sampled peak sits h/2 away
    expected_peak = 2.0 * math.exp(-((domain.h[0] / 2) ** 2) / (2 * 0.3 ** 2))
    assert state.u[0].max() == pytest.approx(expected_peak, rel=1e-12)


def test_smooth_bump_center_needs_one_coordinate_per_axis():
    domain = build_domain(2, [1.0, 1.0], [8, 8])
    ic = InitialCondition(kind="smooth-bump", center=(0.5,))
    with pytest.raises(ValueError, match="center must have 2 coordinates"):
        initial_state(ic, domain, 2)


def test_uniform_random_ladder_and_bounds():
    domain = build_domain(1, [1.0], [128])
    ic = InitialCondition(kind="uniform-random", seed=11, offset=1.5, noise=0.1)
    state = initial_state(ic, domain, 3)
    for i in range(3):
        assert np.abs(state.u[i] - 1.5 * i).max() <= 0.1
        assert np.abs(state.v[i]).max() <= 0.1
        assert np.abs(state.w[i]).max() <= 0.1
    again = initial_state(ic, domain, 3)
    assert np.array_equal(state.u, again.u)
    assert np.array_equal(state.v, again.v)
    assert np.array_equal(state.w, again.w)


def test_file_initial_condition_round_trip(tmp_path):
    domain = build_domain(1, [1.0], [8])
    rng = np.random.default_rng(5)
    u, v, w = (rng.normal(size=(2, 8)) for _ in range(3))
    path = tmp_path / "state.npz"
    np.savez(path, u=u, v=v, w=w)
    state = initial_state(InitialCondition(kind="file", path=str(path)), domain, 2)
    assert np.array_equal(state.u, u)
    assert np.array_equal(state.v, v)
    assert np.array_equal(state.w, w)
    bad = tmp_path / "bad.npz"
    np.savez(bad, u=u[:1], v=v, w=w)
    with pytest.raises(ConfigError, match="shape"):
        initial_state(InitialCondition(kind="file", path=str(bad)), domain, 2)


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        InitialCondition(kind="bump")
    with pytest.raises(ValueError):
        InitialCondition(kind="smooth-bump", width=0.0)
    with pytest.raises(ValueError):
        InitialCondition(kind="file")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        InitialCondition(seed=-1)


@pytest.mark.parametrize("name, value", [
    ("offset", math.nan), ("noise", math.inf), ("width", -math.inf),
    ("amplitude", math.nan), ("u_values", (0.0, math.nan)), ("center", (math.inf,)),
])
def test_initial_condition_rejects_non_finite_settings(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        InitialCondition(**{name: value})


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_zero_horizon_records_only_initial_row():
    params, domain, matching = default_setup()
    ic = InitialCondition(kind="uniform-random", seed=1)
    cfg = IntegratorConfig(t_end=0.0)
    res = simulate(ic, params, domain, matching, cfg)
    assert res.times == [0.0]
    assert len(res.rows) == 1
    assert resolve_dt(cfg, domain, params)[1] == 0


def test_simulate_is_bit_deterministic():
    params, domain, matching = default_setup()
    ic = InitialCondition(kind="uniform-random", seed=99)
    cfg = IntegratorConfig(t_end=0.5, scheme="imex-euler", dt=1e-3, record_every=50)
    a = simulate(ic, params, domain, matching, cfg)
    b = simulate(ic, params, domain, matching, cfg)
    assert np.array_equal(a.state.u, b.state.u)
    assert np.array_equal(a.state.v, b.state.v)
    assert np.array_equal(a.state.w, b.state.w)
    assert a.times == b.times


def test_record_cadence_and_final_step():
    params, domain, matching = default_setup()
    ic = InitialCondition(kind="uniform-random", seed=1)
    cfg = IntegratorConfig(t_end=0.01, scheme="imex-euler", dt=1e-3, record_every=3)
    seen = []
    res = simulate(ic, params, domain, matching, cfg, observer=lambda s: s.t)
    # 10 steps: records at 0, 3, 6, 9 and the final step 10
    assert resolve_dt(cfg, domain, params)[1] == 10
    assert len(res.times) == 5
    assert res.times[-1] == pytest.approx(0.01, rel=1e-15)
    assert res.rows == res.times


def test_synchronized_manifold_is_invariant_explicit():
    # identical neurons stay bit-identical under the explicit scheme
    params, domain, matching = default_setup(n_cells=32, n_neurons=2)
    ic = InitialCondition(kind="constant-per-neuron",
                          u_values=(0.4, 0.4), v_values=(0.1, 0.1), w_values=(0.2, 0.2))
    cfg = IntegratorConfig(t_end=0.05, scheme="explicit-rk4", dt="auto", record_every=200)

    def max_pair_gap(state):
        return float(max(
            np.abs(state.u[0] - state.u[1]).max(),
            np.abs(state.v[0] - state.v[1]).max(),
            np.abs(state.w[0] - state.w[1]).max(),
        ))

    res = simulate(ic, params, domain, matching, cfg, observer=max_pair_gap)
    assert max(res.rows) == 0.0


def test_blowup_raises_with_context():
    params, domain, matching = default_setup()
    ic = InitialCondition(kind="constant-per-neuron", u_values=(50.0, -50.0))
    # far above the stability bound: the cubic reaction diverges in a few steps
    cfg = IntegratorConfig(t_end=10.0, scheme="explicit-rk4", dt=1.0, record_every=1)
    with pytest.raises(IntegrationError) as exc:
        simulate(ic, params, domain, matching, cfg)
    err = exc.value
    assert 0.0 < err.t <= 10.0
    assert err.max_abs_u >= 50.0
    assert len(err.rows) >= 1
    assert "non-finite" in str(err)


def test_integration_error_survives_pickling():
    # failed ensemble members come back from process-pool workers pickled
    err = IntegrationError(1.5, 42.0, rows=[1, 2], note="sample 3")
    err.partial_record = "partial"
    back = pickle.loads(pickle.dumps(err))
    assert str(back) == str(err)
    assert (back.t, back.max_abs_u, back.rows, back.note, back.partial_record) == (
        1.5, 42.0, [1, 2], "sample 3", "partial")


def test_linear_solve_error_survives_pickling():
    err = LinearSolveError("backward Euler solve at t=0: residual too large",
                           rows=[1, 2], note="sample 3")
    err.partial_record = "partial"
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is LinearSolveError and str(back) == str(err)
    assert (back.rows, back.note, back.partial_record) == ([1, 2], "sample 3", "partial")


def test_integrator_needs_members_of_one_step_size():
    params, domain, matching = default_setup()
    cfg = IntegratorConfig(t_end=0.1, scheme="explicit-rk4", dt="auto")
    with pytest.raises(ValueError, match="at least one member"):
        Integrator([], domain, matching, cfg)
    # dt = auto follows d, so these two members resolve to different steps
    with pytest.raises(ValueError, match="share the step size"):
        Integrator([params, params.replace(d=2.0)], domain, matching, cfg)


def test_simulate_ensemble_needs_one_of_each_per_member():
    params, domain, matching = default_setup()
    cfg = IntegratorConfig(t_end=0.1, scheme="explicit-rk4", dt="auto")
    ic = InitialCondition()
    with pytest.raises(ValueError, match="one initial condition and parameter set per member"):
        simulate_ensemble([ic], [params, params], domain, matching, cfg)


def unexpected_call(*args, **kwargs):
    raise AssertionError("called unexpectedly")


@pytest.mark.parametrize("dim", [1, 2])
def test_zero_horizon_has_nothing_to_step(dim, monkeypatch):
    domain = build_domain(dim, [1.0] * dim, [8] * dim)
    matching = full_boundary_matching(domain, 2, "1-2")
    params = HRParameters.default()
    cfg = IntegratorConfig(t_end=0.0, scheme="imex-euler", dt=1e-3)
    # simulate never steps such a run, and nothing is assembled or factorized
    monkeypatch.setattr(dynamics, "network_diffusion_matrix", unexpected_call)
    stepper = Integrator(params, domain, matching, cfg)
    state = constant_state(domain, 2, u=0.5)
    batch = NetworkState(0.0, state.u[None], state.v[None], state.w[None])
    with pytest.raises(ValueError, match="nothing to step"):
        stepper.step(batch)


def test_simulate_accepts_prebuilt_state():
    params, domain, matching = default_setup()
    state = constant_state(domain, 2, u=0.3)
    cfg = IntegratorConfig(t_end=0.01, scheme="imex-euler", dt=1e-3)
    res = simulate(state, params, domain, matching, cfg)
    assert res.state.t == pytest.approx(0.01)
    # the input state is not mutated
    assert np.all(state.u == 0.3)
    assert state.t == 0.0


def test_integrator_reuses_factorization(monkeypatch):
    params, domain, matching = default_setup()
    cfg = IntegratorConfig(t_end=1.0, scheme="imex-euler", dt=1e-3)
    splu = dynamics.spla.splu
    factored = []
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda a, **options: factored.append(a) or splu(a, **options))
    # members with one d share one factorization, of one neuron's block
    members = [params, params.replace(p=2.0)]
    stepper = Integrator(members, domain, matching, cfg)
    assert [a.shape for a in factored] == [(domain.n_cells, domain.n_cells)]
    u = np.stack([np.full((2, domain.n_cells), 0.5), np.full((2, domain.n_cells), -0.5)])
    state = NetworkState(0.0, u, np.zeros_like(u), np.zeros_like(u))
    out, errors = stepper.step(state)
    out, more = stepper.step(out)
    assert errors == more == {}
    assert out.t == pytest.approx(2e-3)
    assert len(factored) == 1
    # each member of the batch gets the bits of its batch of one
    for b, member in enumerate(members):
        alone = Integrator(member, domain, matching, cfg)
        one, errors = alone.step(NetworkState(0.0, *(x[b:b + 1] for x in (state.u, state.v, state.w))))
        one, more = alone.step(one)
        assert errors == more == {}
        assert np.array_equal(out.u[b], one.u[0]) and np.array_equal(out.w[b], one.w[0])


def test_initial_file_is_read_before_the_solver_is_built(tmp_path, monkeypatch):
    params, domain, matching = default_setup()
    cfg = IntegratorConfig(t_end=0.1, scheme="imex-euler", dt=1e-2)
    monkeypatch.setattr(dynamics, "network_diffusion_matrix", unexpected_call)
    ic = InitialCondition(kind="file", path=str(tmp_path / "missing.npz"))
    with pytest.raises(ConfigError, match="initial-condition file"):
        simulate_ensemble([ic, ic], [params, params.replace(p=2.0)], domain, matching, cfg)


def test_members_of_different_network_sizes_are_rejected():
    params, domain, _ = default_setup()
    three = HRParameters.default(n_neurons=3)
    cfg = IntegratorConfig(t_end=0.1, scheme="imex-euler", dt=1e-2)
    ics = [InitialCondition(seed=1), InitialCondition(seed=2)]
    with pytest.raises(ValueError, match=r"network size, got n_neurons \[2, 3\]"):
        simulate_ensemble(ics, [params, three], domain, None, cfg)


@pytest.mark.parametrize("scheme", ["explicit-rk4", "imex-euler"])
def test_shared_initial_condition_across_network_sizes_is_rejected(scheme):
    # dt="auto" with different d puts the two members in separate batches,
    # so no single batch stepper sees both sizes
    params, domain, _ = default_setup(d=1.0)
    three = HRParameters.default(n_neurons=3, d=2.0)
    cfg = IntegratorConfig(t_end=0.01, scheme=scheme, dt="auto")
    assert resolve_dt(cfg, domain, params) != resolve_dt(cfg, domain, three)
    ic = InitialCondition(seed=1)
    with pytest.raises(ValueError, match=r"network size, got n_neurons \[2, 3\]"):
        simulate_ensemble([ic, ic], [params, three], domain, None, cfg)


def test_member_and_matching_of_different_network_sizes_are_rejected():
    _, domain, matching = default_setup()
    three = HRParameters.default(n_neurons=3)
    cfg = IntegratorConfig(t_end=0.1, scheme="imex-euler", dt=1e-2)
    with pytest.raises(ValueError, match=r"network size, got n_neurons \[2, 3\]"):
        simulate(InitialCondition(), three, domain, matching, cfg)
