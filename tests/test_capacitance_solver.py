"""The 2D backward Euler solver against SuperLU, and the guard around it.

``CapacitanceSolver`` solves ``I - dt A`` with ``A`` the assembled network
operator, by DCT solves of the uncoupled part and a capacitance-matrix
correction for the boundary coupling.  On random rectangles (nx != ny,
unequal extents), random segment matchings with spans and self-matched
neurons, no coupling and strong coupling, it must give a small relative
residual and the solution ``splu`` gives, both to 1e-12.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from test_metrics_properties import involution_pairs

from hrnet.core import HRParameters
from hrnet.domain import (
    CapacitanceSolver,
    build_domain,
    full_boundary_matching,
    network_diffusion_matrix,
    parse_matching,
)
from hrnet.dynamics import InitialCondition, Integrator, IntegratorConfig, simulate
from hrnet.errors import LinearSolveError

# a fixed example sequence keeps tier-1 reproducible and writes no database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


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


@PROPERTY
@given(rectangles(), st.sampled_from([0.3, 1.0, 2.5]),
       st.sampled_from([0.0, 0.7, 40.0]), st.sampled_from([1e-3, 0.05]),
       st.integers(0, 2**32 - 1))
def test_solver_matches_splu(network, d, p, dt, seed):
    domain, matching, n = network
    a = network_diffusion_matrix(domain, matching, d, p, n)
    system = (sp.identity(a.shape[0], format="csc") - dt * a).tocsc()
    solver = CapacitanceSolver(domain, matching, d, p, n, dt)
    b = np.random.default_rng(seed).normal(size=a.shape[0])
    x = solver.solve(b)
    assert np.linalg.norm(system @ x - b) <= 1e-12 * np.linalg.norm(b)
    want = spla.splu(system).solve(b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    # columns of a matrix are solved exactly as vectors are
    both = solver.solve(np.stack([b, 2.0 * b], axis=1))
    assert np.array_equal(both[:, 0], x)
    assert np.array_equal(both[:, 1], solver.solve(2.0 * b))


def test_solver_is_for_2d_grids():
    domain = build_domain(1, [1.0], [16])
    with pytest.raises(ValueError):
        CapacitanceSolver(domain, full_boundary_matching(domain, 2, "1-2"), 1.0, 1.0, 2, 1e-3)


def ring_2d():
    domain = build_domain(2, [1.0, 0.8], [12, 10])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.02, scheme="imex-euler", dt=2e-3)
    return HRParameters.default(p=2.0), domain, matching, cfg


def test_integrator_solves_2d_without_lu():
    params, domain, matching, cfg = ring_2d()
    stepper = Integrator(params, domain, matching, cfg)
    assert isinstance(stepper._lu, CapacitanceSolver)


def test_wrong_2d_solve_fails_the_residual_guard(monkeypatch):
    params, domain, matching, cfg = ring_2d()
    ic = InitialCondition(kind="uniform-random", seed=2)
    solve = CapacitanceSolver.solve
    # off by one part in a million: far above linear_tol = 1e-10
    monkeypatch.setattr(CapacitanceSolver, "solve",
                        lambda self, b: solve(self, b) * (1.0 + 1e-6))
    with pytest.raises(LinearSolveError, match="residual"):
        simulate(ic, params, domain, matching, cfg)
