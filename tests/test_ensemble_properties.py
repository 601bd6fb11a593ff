"""Property tests: a batched ensemble run equals each member's serial run.

``simulate_ensemble`` advances all members of a batch through one time loop
(one reaction evaluation on the (B, N, cells) stack, one solver and one
multi-column solve per shared operator, one block-diagonal
residual matvec).  Every member must still get exactly the bits of its own
``simulate`` call: rows, times, final state, and for a failed member the
error type, time, message and rows, while its batch-mates are unaffected.
The batch's Green's blocks are computed once, one per distinct d.

The operator tests check the assembled network matrix that the residual
guard applies: exactly symmetric, equal to the ``apply_diffusion`` stencil
up to rounding, and stored exactly as the per-face ``lil`` loop it replaced
(kept here as the oracle) stores it.  The stencil itself, applied to a
(B, N, cells) batch with per-member d and p as RK4 applies it, must give
each member the bits of its own call and of the per-neuron coupling loop it
replaced.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from test_metrics_properties import networks

import hrnet.dynamics as dynamics
from hrnet.core import HRParameters, derive_constants
from hrnet.domain import (
    apply_diffusion,
    build_domain,
    full_boundary_matching,
    network_diffusion_matrix,
    neumann_laplacian,
)
from hrnet.dynamics import (
    SCHEMES,
    InitialCondition,
    Integrator,
    IntegratorConfig,
    NetworkState,
    SimulationResult,
    initial_state,
    simulate,
    simulate_ensemble,
)
from hrnet.errors import IntegrationError
from hrnet.metrics import record_trajectories, record_trajectory

# a fixed example sequence keeps tier-1 reproducible and writes no database
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def snapshot(state):
    return state.t, state.u.copy(), state.v.copy(), state.w.copy()


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a[0] == b[0]
        for x, y in zip(a[1:], b[1:]):
            assert np.array_equal(x, y)


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        assert_rows_equal(got.rows, want.rows)
        if isinstance(want, IntegrationError):
            assert (got.t, got.max_abs_u) == (want.t, want.max_abs_u)
        return
    assert got.times == want.times
    assert_rows_equal(got.rows, want.rows)
    assert got.state.t == want.state.t
    for name in ("u", "v", "w"):
        assert np.array_equal(getattr(got.state, name), getattr(want.state, name))


def serial(ic, params, domain, matching, cfg):
    """The member's own run: its result, or the error it raised."""
    try:
        return simulate(ic, params, domain, matching, cfg, observer=snapshot)
    except Exception as err:  # the outcome under test, compared as a value
        return err


@st.composite
def ensembles(draw):
    """A random network, scheme and 1-5 members with mixed seeds and
    repeated coupling strengths (repeats share a factorization); sometimes
    one or two members' input current makes them blow up."""
    domain, matching, n = draw(networks())
    scheme = draw(st.sampled_from(SCHEMES))
    if scheme == "imex-euler":
        dt = draw(st.sampled_from([1e-3, 5e-3]))
        cfg = IntegratorConfig(t_end=dt * draw(st.integers(0, 12)), scheme=scheme,
                               dt=dt, record_every=draw(st.integers(1, 3)))
    else:
        # the stability-bound step depends on d, so members may split by step
        cfg = IntegratorConfig(t_end=draw(st.sampled_from([0.0, 4e-3, 0.02])),
                               scheme=scheme, record_every=draw(st.integers(1, 3)))
    n_members = draw(st.integers(1, 5))
    ics, params_list = [], []
    for _ in range(n_members):
        ics.append(InitialCondition(kind="uniform-random",
                                    seed=draw(st.integers(0, 2**16)),
                                    offset=1.0, noise=0.5))
        params_list.append(HRParameters.default(
            n_neurons=n,
            p=draw(st.sampled_from([0.0, 0.5, 2.0])),
            d=draw(st.sampled_from([1.0, 0.5])),
            a=draw(st.sampled_from([3.0, 2.0]))))
    # blow-ups at different steps: the batch shrinks more than once
    for k in draw(st.lists(st.integers(0, n_members - 1), max_size=2, unique=True)):
        params_list[k] = params_list[k].replace(J=draw(st.sampled_from([1e5, 1e6])))
    return domain, matching, cfg, ics, params_list


@PROPERTY
@given(ensembles(), st.integers(1, 3))
def test_every_member_equals_its_serial_run(ensemble, jobs):
    domain, matching, cfg, ics, params_list = ensemble
    n = len(ics)
    batched = simulate_ensemble(ics, params_list, domain, matching, cfg,
                                [snapshot] * n)
    # contiguous near-equal batches, one per worker, as sweep_rows splits
    chunked = []
    k = min(jobs, n)
    for c in (slice(n * i // k, n * (i + 1) // k) for i in range(k)):
        chunked += simulate_ensemble(ics[c], params_list[c], domain, matching,
                                     cfg, [snapshot] * len(ics[c]))
    for ic, params, got, got_chunked in zip(ics, params_list, batched, chunked):
        want = serial(ic, params, domain, matching, cfg)
        assert_same_outcome(got, want)
        assert_same_outcome(got_chunked, want)


def stock_network(n_cells=32):
    domain = build_domain(1, [1.0], [n_cells])
    return domain, full_boundary_matching(domain, 2, "1-2")


def test_blown_up_member_fails_as_serially_and_leaves_batch_mates_alone():
    domain, matching = stock_network()
    cfg = IntegratorConfig(t_end=0.1, scheme="imex-euler", dt=2e-3, record_every=5)
    ics = [InitialCondition(kind="uniform-random", seed=s) for s in (1, 2, 3)]
    params_list = [HRParameters.default(p=2.0), HRParameters.default(J=1e6),
                   HRParameters.default(p=2.0)]
    results = simulate_ensemble(ics, params_list, domain, matching, cfg,
                                [snapshot] * 3)
    blown = results[1]
    assert isinstance(blown, IntegrationError)
    assert 0.0 < blown.t < 0.1 and len(blown.rows) >= 1
    for ic, params, got in zip(ics, params_list, results):
        assert_same_outcome(got, serial(ic, params, domain, matching, cfg))


@pytest.mark.parametrize("dim", [1, 2])
def test_one_stepper_serves_a_batch_through_a_failure(dim, monkeypatch):
    # the failed member keeps its slot and is stepped on, unobserved; its
    # batch mates keep their serial bits, with no solver built a second time
    domain = build_domain(dim, [1.0] * dim, [32] if dim == 1 else [8, 8])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=1.0, scheme="imex-euler", dt=0.05, record_every=2)
    ics = [InitialCondition(kind="uniform-random", seed=1),
           InitialCondition(kind="constant-per-neuron", u_values=(50.0, -50.0)),
           InitialCondition(kind="uniform-random", seed=2)]
    params_list = [HRParameters.default(p=2.0), HRParameters.default(p=2.0),
                   HRParameters.default(p=0.5)]
    built = []
    with monkeypatch.context() as patch:
        counting(patch, Integrator, "__init__", built)
        results = simulate_ensemble(ics, params_list, domain, matching, cfg,
                                    [snapshot] * 3)
    assert len(built) == 1
    failed = results[1]
    assert isinstance(failed, IntegrationError)
    assert failed.t < cfg.t_end / 2
    assert isinstance(results[0], SimulationResult) and isinstance(results[2], SimulationResult)
    for ic, params, got in zip(ics, params_list, results):
        assert_same_outcome(got, serial(ic, params, domain, matching, cfg))


@pytest.mark.parametrize("scheme, dt", [("imex-euler", 2e-3), ("explicit-rk4", "auto")])
def test_failed_members_report_the_largest_u_before_their_failure(scheme, dt):
    domain, matching = stock_network()
    cfg = IntegratorConfig(t_end=0.1, scheme=scheme, dt=dt, record_every=5)
    ics = [InitialCondition(kind="uniform-random", seed=s) for s in (1, 2, 3)]
    params_list = [HRParameters.default(J=1e5), HRParameters.default(p=2.0),
                   HRParameters.default(J=1e6)]
    results = simulate_ensemble(ics, params_list, domain, matching, cfg)
    assert isinstance(results[1], SimulationResult)
    failed_at = []
    for b in (0, 2):
        # the oracle: the member stepped alone, |u| taken over every state
        # before the step that fails
        stepper = Integrator(params_list[b], domain, matching, cfg)
        one = initial_state(ics[b], domain, 2)
        state = NetworkState(0.0, one.u[None], one.v[None], one.w[None])
        seen = np.abs(state.u).max()
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, stepper.n_steps + 1):
                state, errors = stepper.step(state)
                if errors or not state.is_finite():
                    break
                seen = max(seen, np.abs(state.u).max())
            else:
                pytest.fail("the member did not blow up")
        err = results[b]
        assert isinstance(err, IntegrationError)
        assert (err.t, err.max_abs_u) == (k * stepper.dt, seen)
        failed_at.append(k)
    # the two members failed at different steps of one batch
    assert failed_at[0] != failed_at[1]


def counting(monkeypatch, owner, name, calls):
    """Patch ``owner.name`` to record each call's arguments in ``calls``."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_one_greens_block_per_distinct_d(monkeypatch):
    domain = build_domain(2, [1.0, 0.8], [12, 10])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.01, scheme="imex-euler", dt=2e-3, record_every=2)
    ics = [InitialCondition(kind="uniform-random", seed=s) for s in range(4)]
    params_list = [HRParameters.default(p=p) for p in (0.0, 1.0, 4.0, 4.0)]
    greens = []
    counting(monkeypatch, dynamics.CapacitanceSolver, "_green", greens)
    results = simulate_ensemble(ics, params_list, domain, matching, cfg, [snapshot] * 4)
    assert [args[2] for args in greens] == [1.0]  # one d, and p = 0 needs no block
    for ic, params, got in zip(ics, params_list, results):
        assert_same_outcome(got, serial(ic, params, domain, matching, cfg))


def test_shared_2d_factor_solves_members_bitwise_like_serial():
    # 2D members sharing a solver are solved one by one, each with its
    # serial run's bits
    domain = build_domain(2, [1.0, 1.0], [64, 64])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=4e-3, scheme="imex-euler", dt=2e-3)
    ics = [InitialCondition(kind="uniform-random", seed=s) for s in range(5)]
    params_list = [HRParameters.default(p=2.0)] * 5
    results = simulate_ensemble(ics, params_list, domain, matching, cfg,
                                [snapshot] * 5)
    for ic, params, got in zip(ics, params_list, results):
        assert_same_outcome(got, serial(ic, params, domain, matching, cfg))


def test_record_trajectories_equal_record_trajectory():
    domain, matching = stock_network()
    cfg = IntegratorConfig(t_end=0.2, scheme="imex-euler", dt=2e-3, record_every=10)
    ics = [InitialCondition(kind="uniform-random", seed=s) for s in (0, 0, 4)]
    params_list = [HRParameters.default(p=p) for p in (0.5, 8.0, 0.5)]
    consts_list = [derive_constants(p, domain.omega_measure, 9.8, 9.8)
                   for p in params_list]
    records = record_trajectories(ics, params_list, domain, matching, cfg, consts_list)
    for ic, params, consts, got in zip(ics, params_list, consts_list, records):
        want = record_trajectory(ic, params, domain, matching, cfg, consts)
        for name in got.SCALAR_FIELDS + ("weighted_energy", "diff_energy_g"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


# ---------------------------------------------------------------------------
# the network operator
# ---------------------------------------------------------------------------

def oracle_apply_diffusion(u, domain, matching, d, p):
    """The stencil with the per-neuron coupling loop the batched one replaced."""
    out = apply_diffusion(u, matching, d, 0.0)
    if p != 0.0:
        fc = domain.face_cell
        coef = (d * p / domain.cell_volume) * domain.face_area
        uf = u[:, fc]
        for i in range(u.shape[0]):
            partner = uf[matching.partner[:, i], np.arange(fc.shape[0])]
            np.add.at(out[i], fc, coef * (partner - uf[i]))
    return out


D_VALUES, P_VALUES = [0.3, 1.0, 2.5], [0.0, 0.7, 4.0]


@PROPERTY
@given(networks(), st.sampled_from(D_VALUES), st.sampled_from(P_VALUES),
       st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(D_VALUES), st.sampled_from(P_VALUES)),
                max_size=3))
def test_network_matrix_is_symmetric_and_matches_stencil(network, d, p, seed, others):
    domain, matching, n = network
    a = network_diffusion_matrix(matching, d, p).tocsr()
    assert (a != a.T).nnz == 0
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, domain.n_cells))
    got = (a @ u.ravel()).reshape(u.shape)
    want = apply_diffusion(u, matching, d, p)
    # both sum the same few terms per cell in different orders
    bound = 32 * np.finfo(float).eps * (abs(a) @ np.abs(u).ravel()).reshape(u.shape)
    assert np.all(np.abs(got - want) <= bound)
    # a batch with per-member d and p, one member uncoupled: each row has
    # the bits of its member's own call, and of the per-neuron loop
    members = [(d, p), (d + 1.0, 0.0)] + others
    ds, ps = (np.array(column)[:, None, None] for column in zip(*members))
    batch = rng.normal(size=(len(members), n, domain.n_cells))
    rows = apply_diffusion(batch, matching, ds, ps)
    for row, ub, (db, pb) in zip(rows, batch, members):
        one = apply_diffusion(ub, matching, db, pb)
        assert np.array_equal(row, one)
        assert np.array_equal(one, oracle_apply_diffusion(ub, domain, matching, db, pb))


def oracle_network_matrix(domain, matching, d, p, n_neurons):
    """The per-face ``lil`` assembly that ``network_diffusion_matrix`` replaced."""
    lap = d * neumann_laplacian(domain)
    blocks = sp.block_diag([lap] * n_neurons, format="lil")
    if p != 0.0 and matching is not None:
        nc = domain.n_cells
        coef = (d * p / domain.cell_volume) * domain.face_area
        for f in range(domain.n_faces):
            cell = domain.face_cell[f]
            for i in range(n_neurons):
                j = matching.partner[f, i]
                if j != i:
                    blocks[i * nc + cell, j * nc + cell] += coef[f]
                    blocks[i * nc + cell, i * nc + cell] -= coef[f]
    return blocks.tocsr()


def assert_same_storage(got, want):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@PROPERTY
@given(networks(), st.floats(0.1, 3.0),
       st.one_of(st.just(0.0), st.floats(0.1, 50.0)))
def test_network_matrix_equals_per_face_loop(network, d, p):
    domain, matching, n = network
    assert_same_storage(network_diffusion_matrix(matching, d, p),
                        oracle_network_matrix(domain, matching, d, p, n))


def test_network_matrix_sums_corner_faces_in_face_order():
    # every corner cell is coupled through both its faces; with arbitrary
    # mantissas the two terms, summed out of face order, round differently
    rng = np.random.default_rng(7)
    for _ in range(20):
        domain = build_domain(2, rng.uniform(0.3, 2.0, 2), rng.integers(4, 13, 2))
        matching = full_boundary_matching(domain, 3, "1-2")
        d, p = rng.uniform(0.1, 3.0), rng.uniform(0.1, 50.0)
        assert_same_storage(network_diffusion_matrix(matching, d, p),
                            oracle_network_matrix(domain, matching, d, p, 3))
