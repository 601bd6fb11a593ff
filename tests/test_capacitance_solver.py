"""The backward Euler solver against SuperLU, and the guard around it.

``CapacitanceSolver`` solves a batch's systems ``I - dt A_b``, ``A_b`` the
assembled network operator with member b's d and p, by one shared solve of
the uncoupled part per d and a capacitance-matrix correction per member for
the boundary coupling.  On random intervals (up to 8 neurons) and random
rectangles (nx != ny, unequal extents), random segment matchings with spans
and self-matched neurons, no coupling and strong coupling, and members of
mixed d, it must give each member a small relative residual and the solution
``splu`` of the member's assembled system gives, both to 1e-12; and each
member of a batch must get exactly the bits of its own solve.

The solver builds its parts straight from their structure; each must equal,
bit for bit, the route it replaced, kept here as the oracle: the Green's
block of the edge cells from one unit vector per cell pushed through the
edge spectrum, and the guard's system ``I - dt A`` as ``setdiag`` leaves it.

``Integrator.step``'s IMEX step writes its reaction terms into buffers it
reuses; it must give exactly the bits of the unfused formula written out
here, and no state it returns may share memory with those buffers.
"""

import dataclasses
import gc
import inspect
import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from test_metrics_properties import involution_pairs

import hrnet.dynamics as dynamics
from hrnet.core import HRParameters
from hrnet.domain import (
    build_domain,
    full_boundary_matching,
    network_diffusion_matrix,
    parse_matching,
)
from hrnet.dynamics import (
    CapacitanceSolver,
    InitialCondition,
    Integrator,
    IntegratorConfig,
    NetworkState,
    cholesky,
    initial_state,
    reaction_rhs,
    simulate,
)
from hrnet.errors import LinearSolveError

# a fixed example sequence keeps tier-1 reproducible and writes no database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def intervals(draw):
    """(domain, matching, n): 4-40 cells, up to 8 neurons, each end paired
    on its own or left zero-flux."""
    n = draw(st.integers(2, 8))
    domain = build_domain(1, [draw(st.sampled_from([0.5, 1.0, 1.7]))],
                          [draw(st.integers(4, 40))])
    segments = [{"side": side, "pairs": draw(involution_pairs(n))}
                for side in ("left", "right") if draw(st.booleans())]
    return domain, parse_matching(segments, domain, n), n


@st.composite
def rectangles(draw):
    """(domain, matching, n): 4-12 cells per axis with nx != ny, unequal
    extents, and each edge cut into spans with their own pairing."""
    n = draw(st.integers(2, 6))
    nx = draw(st.integers(4, 12))
    ny = draw(st.integers(4, 12).filter(lambda m: m != nx))
    lx, ly = draw(st.permutations([0.5, 1.0, 1.7]))[:2]
    domain = build_domain(2, [lx, ly], [nx, ny])
    segments = []
    for side, axis in {"left": 1, "right": 1, "bottom": 0, "top": 0}.items():
        m, h = domain.cells[axis], domain.h[axis]
        cuts = draw(st.lists(st.integers(1, m - 1), max_size=2, unique=True))
        bounds = [0] + sorted(cuts) + [m]
        for lo, hi in zip(bounds, bounds[1:]):
            if draw(st.booleans()):
                segments.append({"side": side, "span": (lo * h, hi * h),
                                 "pairs": draw(involution_pairs(n))})
    return domain, parse_matching(segments, domain, n), n


# per member: d, and p from no coupling to strong coupling
MEMBERS = st.lists(st.tuples(st.sampled_from([0.3, 1.0, 2.5]),
                             st.sampled_from([0.0, 0.7, 40.0])), min_size=1, max_size=4)


def check_solver(network, members, dt, seed):
    domain, matching, n = network
    d, p = zip(*members)
    solver = CapacitanceSolver(matching, d, p, dt)
    b = np.random.default_rng(seed).normal(size=(len(members), n, domain.n_cells))
    x = solver.solve(b)
    assert x.shape == b.shape
    for k, (dk, pk) in enumerate(members):
        a = network_diffusion_matrix(domain, matching, dk, pk, n)
        system = (sp.identity(a.shape[0], format="csc") - dt * a).tocsc()
        got, rhs = x[k].ravel(), b[k].ravel()
        assert np.linalg.norm(system @ got - rhs) <= 1e-12 * np.linalg.norm(rhs)
        want = spla.splu(system).solve(rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # a member of a batch is solved exactly as on its own
        alone = CapacitanceSolver(matching, [dk], [pk], dt)
        assert np.array_equal(alone.solve(b[k:k + 1])[0], x[k])


@PROPERTY
@given(intervals(), MEMBERS, st.sampled_from([1e-3, 0.05]), st.integers(0, 2**32 - 1))
def test_1d_solver_matches_splu(network, members, dt, seed):
    check_solver(network, members, dt, seed)


@PROPERTY
@given(rectangles(), MEMBERS, st.sampled_from([1e-3, 0.05]), st.integers(0, 2**32 - 1))
def test_solver_matches_splu(network, members, dt, seed):
    check_solver(network, members, dt, seed)


def oracle_green(solver, cells, d):
    """The Green's block at the edge positions ``cells`` by the unit-vector
    route: each cell's unit edge value through ``_edge_spectrum``, 32 at a time."""
    nx, ny = solver._grid
    green = np.empty((cells.size, cells.size))
    for start in range(0, cells.size, 32):
        chunk = cells[start:start + 32]
        units = np.zeros((chunk.size, 2 * (nx + ny)))
        units[np.arange(chunk.size), chunk] = 1.0
        solved = solver._edge_values(solver._edge_spectrum(units) / solver._uncoupled[d])
        green[start:start + chunk.size] = solved[:, cells]
    return green


GREEN_D = [0.3, 1.0, 2.5]


@PROPERTY
@given(rectangles(), st.sampled_from([1e-3, 0.05]))
def test_greens_block_equals_the_unit_vector_route(network, dt):
    domain, matching, _ = network
    solver = CapacitanceSolver(matching, GREEN_D, [0.0] * 3, dt)
    terms = solver._coupling_terms(matching)
    # every edge position, and the coupled ones of the (partial) matching
    for cells in [np.arange(2 * sum(domain.cells))] + ([terms.cells] if terms else []):
        for d in GREEN_D:
            assert np.array_equal(solver._green(cells, d), oracle_green(solver, cells, d))


@pytest.mark.parametrize("dim", [1, 2])
def test_a_solver_is_freed_with_its_last_reference(dim):
    # no reference cycle: a batch's solver goes with its stepper, not at the
    # next garbage collection
    domain = build_domain(dim, [1.0] * dim, [8] * dim)
    solver = CapacitanceSolver(full_boundary_matching(domain, 2, "1-2"), [1.0], [2.0], 0.05)
    alive = weakref.ref(solver)
    gc.disable()
    try:
        del solver
        assert alive() is None
    finally:
        gc.enable()


def tiny_rectangle(nx, ny):
    """An nx x ny grid below build_domain's 4 cells per axis, as the solver reads it."""
    ix, iy = np.arange(nx), np.arange(ny)
    return dataclasses.replace(
        build_domain(2, [1.0, 0.7], [4, 4]), cells=(nx, ny), h=(1.0 / nx, 0.7 / ny),
        n_cells=nx * ny, face_cell=np.concatenate([iy, (nx - 1) * ny + iy, ix * ny,
                                                   ix * ny + ny - 1]))


@pytest.mark.parametrize("cells", [(2, 2), (3, 5), (5, 3)])
def test_greens_block_of_tiny_grids_equals_the_unit_vector_route(cells):
    domain = tiny_rectangle(*cells)
    solver = CapacitanceSolver(parse_matching([], domain, 2), GREEN_D, [0.0] * 3, 0.05)
    positions = np.arange(2 * sum(cells))
    for d in GREEN_D:
        assert np.array_equal(solver._green(positions, d), oracle_green(solver, positions, d))


@PROPERTY
@given(st.one_of(intervals(), rectangles()), MEMBERS, st.sampled_from([1e-3, 0.05]))
def test_system_is_stored_as_setdiag_leaves_it(network, members, dt):
    domain, matching, n = network
    d, p = zip(*members)

    def stored(key):
        system = network_diffusion_matrix(domain, matching, *key, n) * -dt
        system.setdiag(system.diagonal() + 1.0)
        return system

    systems = [stored(key) for key in members]
    want = systems[0] if len(systems) == 1 else sp.block_diag(systems, format="csr")
    got = CapacitanceSolver(matching, d, p, dt).system
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class CountingLU:
    """A SuperLU factorization that records the matrix it factors and the
    shape of every right-hand side it solves."""

    factorize = staticmethod(spla.splu)  # the original, which tests patch over

    def __init__(self, a, **options):
        self.shape, self.solves = a.shape, []
        self._lu = self.factorize(a, **options)

    def solve(self, b):
        self.solves.append(b.shape)
        return self._lu.solve(b)


def test_solver_factors_one_neuron_block_per_d(monkeypatch):
    domain = build_domain(1, [1.0], [16])
    matching = full_boundary_matching(domain, 3, "1-2")
    factored = []
    monkeypatch.setattr(dynamics.spla, "splu",
                        lambda a, **options: factored.append(CountingLU(a, **options))
                        or factored[-1])
    solver = CapacitanceSolver(matching, [1.0, 2.0, 1.0, 2.0], [0.5, 0.5, 3.0, 0.0], 1e-2)
    assert [lu.shape for lu in factored] == [(16, 16), (16, 16)]
    solver.solve(np.ones((4, 3, 16)))
    # one call per d, each with every neuron of its members as a column
    assert [lu.solves for lu in factored] == [[(16, 6)], [(16, 6)]]


def per_block_cholesky(a):
    """The blocked Cholesky factor with one 64 x 64 x 64 product per trailing
    block: the reference whose bits :func:`cholesky` keeps."""
    r, n, block = np.triu(a), a.shape[0], 64
    for k in range(0, n, block):
        e = k + block
        r[k:e, k:e] = sla.cholesky(r[k:e, k:e], check_finite=False)
        if e >= n:
            break
        r[k:e, e:] = sla.solve_triangular(r[k:e, k:e], r[k:e, e:], trans="T",
                                          check_finite=False)
        for j in range(e, n, block):
            for g in range(j, n, block):
                r[j:j + block, g:g + block] -= r[k:e, j:j + block].T @ r[k:e, g:g + block]
    return r


def test_cholesky_bits_do_not_depend_on_the_thread_count():
    # at each thread count: equal to the per-block reference, at n = 300 and
    # 1024 (einsum builds the matrices without BLAS)
    code = (
        "import hashlib, numpy as np, scipy.linalg as sla\n"
        "from hrnet.dynamics import cholesky\n"
        + inspect.getsource(per_block_cholesky)
        + "for n in (300, 1024):\n"
        "    x = np.random.default_rng(3).normal(size=(n, 300))\n"
        "    a = np.einsum('ik,jk->ij', x, x) / 300 + np.eye(n)\n"
        "    r = cholesky(a)\n"
        "    assert np.array_equal(r, per_block_cholesky(a)), n\n"
        "    print(hashlib.sha256(r.tobytes()).hexdigest())\n"
    )
    # the children import the package from where this process found it
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(dynamics.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        digests.append(done.stdout)
    assert digests[0] == digests[1]
    x = np.random.default_rng(3).normal(size=(300, 300))
    a = np.einsum("ik,jk->ij", x, x) / 300 + np.eye(300)
    r = cholesky(a)
    assert np.array_equal(r, np.triu(r))
    assert np.abs(r - sla.cholesky(a)).max() <= 1e-13 * np.abs(r).max()


def ring_2d():
    domain = build_domain(2, [1.0, 0.8], [12, 10])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.02, scheme="imex-euler", dt=2e-3)
    return HRParameters.default(p=2.0), domain, matching, cfg


def test_integrator_solves_2d_without_lu(monkeypatch):
    params, domain, matching, cfg = ring_2d()
    monkeypatch.setattr(dynamics.spla, "splu", lambda *args: pytest.fail("factorized"))
    built = []
    monkeypatch.setattr(dynamics, "CapacitanceSolver",
                        lambda *args: built.append(CapacitanceSolver(*args)) or built[-1])
    stepper = Integrator([params, params.replace(p=0.5)], domain, matching, cfg)
    # one solver for the whole batch
    assert len(built) == 1
    state = initial_state(InitialCondition(kind="uniform-random", seed=2), domain, 2)
    batch = NetworkState(0.0, *(np.stack([x, x]) for x in (state.u, state.v, state.w)))
    new, errors = stepper.step(batch)
    assert errors == {} and np.isfinite(new.u).all()


# per member: d, p, and the reaction's a and J, which become (B, 1, 1)
# columns of the batch's reaction parameters when members differ
STEP_MEMBERS = st.lists(st.tuples(st.sampled_from([0.3, 1.0]), st.sampled_from([0.0, 0.7, 40.0]),
                                  st.sampled_from([3.0, 2.0]), st.sampled_from([3.25, 0.5])),
                        min_size=1, max_size=4)


@PROPERTY
@given(st.one_of(intervals(), rectangles()), STEP_MEMBERS, st.sampled_from([1e-3, 0.05]),
       st.integers(0, 2**32 - 1))
def test_imex_step_equals_the_unfused_formula(network, members, dt, seed):
    domain, matching, n = network
    params = [HRParameters.default(n_neurons=n, d=d, p=p, a=a, J=j) for d, p, a, j in members]
    cfg = IntegratorConfig(t_end=dt, scheme="imex-euler", dt=dt)
    u, v, w = np.random.default_rng(seed).normal(size=(3, len(params), n, domain.n_cells))
    batch = NetworkState(0.0, u, v, w)
    new, errors = Integrator(params, domain, matching, cfg).step(batch)
    # the reaction, unfused, with one (B, 1, 1) column per parameter
    c = SimpleNamespace(**{name: np.array([getattr(m, name) for m in params])[:, None, None]
                           for name in dynamics.REACTION_FIELDS})
    u2 = u * u
    du = c.a * u2 - c.b * (u2 * u) + v - w + c.J
    dv = c.alpha - v - c.beta * u2
    dw = c.q * (u - c.c) - c.r * w
    for got in (reaction_rhs(batch, c), reaction_rhs(batch, c, out=np.empty((3,) + u.shape))):
        assert all(np.array_equal(x, y) for x, y in zip(got, (du, dv, dw)))
    ustar = u + dt * du
    solved = CapacitanceSolver(matching, [m.d for m in params], [m.p for m in params],
                               dt).solve(ustar)
    assert new.t == dt
    for got, want in zip((new.u, new.v, new.w), (solved, v + dt * dv, w + dt * dw)):
        assert np.array_equal(got, want)
    # the guard: each member's squared residual against its squared right-hand side
    failed = set()
    for b, m in enumerate(params):
        a = network_diffusion_matrix(domain, matching, m.d, m.p, n)
        rhs = ustar[b].ravel()
        residual = (sp.identity(a.shape[0], format="csr") - dt * a) @ solved[b].ravel() - rhs
        if np.vecdot(residual, residual) > cfg.linear_tol ** 2 * max(np.vecdot(rhs, rhs), 1.0):
            failed.add(b)
    assert set(errors) == failed


@pytest.mark.parametrize("dim", [1, 2])
def test_imex_step_returns_no_buffer(dim):
    domain = build_domain(dim, [1.0] * dim, [12] * dim)
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.02, scheme="imex-euler", dt=2e-3)
    params = HRParameters.default(p=2.0)
    stepper = Integrator([params, params.replace(p=0.5, d=0.3)], domain, matching, cfg)
    state = initial_state(InitialCondition(kind="uniform-random", seed=2), domain, 2)
    batch = NetworkState(0.0, *(np.stack([x, -x]) for x in (state.u, state.v, state.w)))
    inputs = [x.copy() for x in (batch.u, batch.v, batch.w)]
    first, errors = stepper.step(batch)
    kept = [x.copy() for x in (first.u, first.v, first.w)]
    second, more = stepper.step(batch)
    assert errors == more == {}
    for x, before in zip((batch.u, batch.v, batch.w), inputs):
        assert np.array_equal(x, before)
    for x, y, before in zip((first.u, first.v, first.w), (second.u, second.v, second.w), kept):
        assert np.array_equal(x, before) and np.array_equal(x, y)
        assert not np.shares_memory(x, y)
        assert not any(np.shares_memory(z, stepper._buffers) for z in (x, y))


def test_wrong_2d_solve_fails_the_residual_guard(monkeypatch):
    params, domain, matching, cfg = ring_2d()
    ic = InitialCondition(kind="uniform-random", seed=2)
    solve = CapacitanceSolver.solve
    # off by one part in a million: far above linear_tol = 1e-10
    monkeypatch.setattr(CapacitanceSolver, "solve",
                        lambda self, b: solve(self, b) * (1.0 + 1e-6))
    with pytest.raises(LinearSolveError, match="residual"):
        simulate(ic, params, domain, matching, cfg)
