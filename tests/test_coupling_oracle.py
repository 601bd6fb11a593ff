"""Closed-form oracles for the boundary coupling, independent of pinned bits.

With the reaction switched off (a = b = alpha = beta = q = c = J = 0, r = 1)
and v = w = 0, two neurons coupled at both ends of [0, 1] ("1-2") only
diffuse.  Their difference z = u1 - u2 obeys z_t = d z_xx with the Robin
condition dz/dnu = -2 p z, whose slowest mode decays at d k^2, k in (0, pi)
the root of k tan(k/2) = 2 p.

- From the difference eigenvector of ``network_diffusion_matrix``, with
  eigenvalue -lambda, each record of 10 steps scales the state by the
  scheme's amplification: (1 + dt lambda)^-10 for backward Euler and
  R(-dt lambda)^10 for RK4, R the degree-4 Taylor polynomial of exp.
- lambda converges to k^2 at first order in the cell width; the zero-flux
  operator converges at second order (``test_domain``).
- In 2D, with coupling on the left and right sides only, the difference mode
  constant in y has the 1D eigenvalue of the same x grid.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hrnet.core import HRParameters
from hrnet.domain import (
    build_domain,
    full_boundary_matching,
    network_diffusion_matrix,
    parse_matching,
)
from hrnet.dynamics import IntegratorConfig, NetworkState, resolve_dt, simulate

RECORD_EVERY = 10


def reaction_off(p):
    return HRParameters(a=0.0, b=0.0, alpha=0.0, beta=0.0, q=0.0, r=1.0, c=0.0, J=0.0,
                        d=1.0, p=p, n_neurons=2)


def coupled_ends(nx, ny=None):
    """Two neurons matched "1-2" at both ends of [0, 1], or on the left and
    right sides of [0, 1] x [0, 0.5] with ``ny`` cells along y."""
    if ny is None:
        domain = build_domain(1, [1.0], [nx])
        return domain, full_boundary_matching(domain, 2, "1-2")
    domain = build_domain(2, [1.0, 0.5], [nx, ny])
    sides = [{"side": side, "pairs": "1-2"} for side in ("left", "right")]
    return domain, parse_matching(sides, domain, 2)


def difference_mode(domain, matching, p):
    """lambda and the unit eigenvector phi of the slowest difference mode
    (u1, u2) = (phi, -phi) of the network operator, which maps it to -lambda
    times itself."""
    a = network_diffusion_matrix(domain, matching, 1.0, p, 2).toarray()
    nc = domain.n_cells
    block = a[:nc, :nc] - a[:nc, nc:]
    assert np.array_equal(block, block.T)
    eigenvalues, vectors = np.linalg.eigh(block)
    return -eigenvalues[-1], vectors[:, -1]


def record_ratios(domain, matching, p, scheme, dt, records=3):
    """The norm of u after each record over the one before, from the
    difference mode, and the step size the run took."""
    lam, phi = difference_mode(domain, matching, p)
    u = np.array([phi, -phi])
    start = NetworkState(0.0, u, np.zeros_like(u), np.zeros_like(u))
    cfg = IntegratorConfig(t_end=records * RECORD_EVERY * dt, scheme=scheme, dt=dt,
                           record_every=RECORD_EVERY)
    result = simulate(start, reaction_off(p), domain, matching, cfg,
                      lambda state: np.linalg.norm(state.u))
    norms = np.array(result.rows)
    assert len(norms) == records + 1
    return lam, norms[1:] / norms[:-1], resolve_dt(cfg, domain, reaction_off(p))[0]


def amplification(scheme, z):
    """One step's factor on the mode of eigenvalue -lambda, z = dt lambda."""
    if scheme == "imex-euler":
        return 1.0 / (1.0 + z)
    return 1.0 - z + z ** 2 / 2 - z ** 3 / 6 + z ** 4 / 24


CASES = [("imex-euler", 2e-3), ("explicit-rk4", 1e-5)]


@pytest.mark.parametrize("scheme,dt", CASES)
@pytest.mark.parametrize("cells,p", [((128,), 1.0), ((128,), 8.0), ((32, 16), 1.0)])
def test_record_amplification(scheme, dt, cells, p):
    lam, ratios, dt = record_ratios(*coupled_ends(*cells), p, scheme, dt)
    want = amplification(scheme, dt * lam) ** RECORD_EVERY
    assert np.abs(ratios / want - 1.0).max() <= 1e-12, (ratios, want)


@pytest.mark.parametrize("p", [0.5, 1.0, 8.0])
def test_difference_eigenvalue_converges_at_first_order(p):
    k = brentq(lambda k: k * math.tan(k / 2) - 2 * p, 1e-9, math.pi - 1e-9, xtol=1e-15)
    errors = [abs(difference_mode(*coupled_ends(n), p)[0] - k * k) for n in (32, 64, 128, 256)]
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    for order in orders:
        assert 0.9 <= order <= 1.1, orders


def test_y_constant_difference_mode_has_the_1d_eigenvalue():
    lam_2d, phi_2d = difference_mode(*coupled_ends(32, 16), 1.0)
    lam_1d, phi_1d = difference_mode(*coupled_ends(32), 1.0)
    assert lam_2d == pytest.approx(lam_1d, rel=1e-12)
    # the 2D mode is the 1D one repeated along y (cells run x-major), up to sign
    along_x = phi_2d.reshape(32, 16)
    assert np.allclose(along_x, along_x[:, :1], rtol=0, atol=1e-12)
    assert abs(along_x[:, 0] @ phi_1d) * 4 == pytest.approx(1.0, rel=1e-12)
