"""Property tests: the closed-form Poincare constant and mass conservation.

``poincare_constants(domain, "discrete")`` is the closed form
min over the axes of (2 sin(pi/2n) / h)^2.  Here it is checked against a
dense symmetric eigensolve of the assembled zero-flux Laplacian, which knows
nothing of cosine modes.

With the reaction terms off, u only diffuses and exchanges boundary flux
between matched neurons, and those fluxes cancel pairwise; so the
volume-weighted total of u is conserved by both schemes, in 1D (sparse LU)
and in 2D (the DCT and capacitance-matrix solver).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_metrics_properties import networks

from hrnet.core import HRParameters
from hrnet.domain import build_domain, integrate_domain, neumann_laplacian, poincare_constants
from hrnet.dynamics import SCHEMES, IntegratorConfig, NetworkState, simulate

# a fixed example sequence keeps tier-1 reproducible and writes no database
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

EXTENTS = [0.5, 1.0, 1.7, 2.3]


@st.composite
def grids(draw):
    """A 1D or 2D grid with 4-24 cells per axis; in 2D nx != ny and the
    extents differ."""
    dim = draw(st.integers(1, 2))
    cells = draw(st.lists(st.integers(4, 24), min_size=dim, max_size=dim, unique=True))
    extents = draw(st.lists(st.sampled_from(EXTENTS), min_size=dim, max_size=dim,
                            unique=True))
    return build_domain(dim, extents, cells)


def dirichlet_quotient(x, domain):
    """x^T (-L) x / x^T x, summed as squared differences along each axis."""
    g = x.reshape(domain.cells)
    form = sum(np.sum(np.diff(g, axis=axis) ** 2) / h ** 2
               for axis, h in enumerate(domain.h))
    return form / (x @ x)


@PROPERTY
@given(grids())
def test_discrete_eta1_is_the_first_nonzero_eigenvalue(domain):
    eta1 = poincare_constants(domain, mode="discrete").eta1
    values, vectors = np.linalg.eigh(-neumann_laplacian(domain).toarray())
    # the dense solver is accurate to a small multiple of eps * largest
    # eigenvalue, which on elongated grids is ~4e-12 of eta1
    assert abs(values[1] - eta1) <= 8 * np.finfo(float).eps * values[-1]
    # the Rayleigh quotient of its eigenvector is accurate to rounding in eta1
    assert dirichlet_quotient(vectors[:, 1], domain) == pytest.approx(eta1, rel=1e-12)


def reactions_off(n, d, p):
    # du = v - w, dv = -v, dw = -w: zero v and w stay zero
    return HRParameters(a=0.0, b=0.0, alpha=0.0, beta=0.0, q=0.0, r=1.0, c=0.0,
                        J=0.0, d=d, p=p, n_neurons=n)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY
@given(networks(), st.sampled_from([0.3, 1.0, 2.5]), st.sampled_from([0.0, 0.7, 4.0]),
       st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_mass_is_conserved_with_reactions_off(scheme, network, d, p, steps, seed):
    domain, matching, n = network
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, domain.n_cells))
    u += np.arange(n)[:, None]
    state = NetworkState(0.0, u, np.zeros_like(u), np.zeros_like(u))
    if scheme == "imex-euler":
        cfg = IntegratorConfig(t_end=0.05 * steps, scheme=scheme, dt=0.05,
                               record_every=10 ** 9)
    else:  # the stability-bound step
        cfg = IntegratorConfig(t_end=2e-3 * steps, scheme=scheme, record_every=10 ** 9)
    final = simulate(state, reactions_off(n, d, p), domain, matching, cfg).state
    assert not final.v.any() and not final.w.any()
    mass = np.sum(integrate_domain(u, domain))
    scale = np.sum(integrate_domain(np.abs(u), domain))
    assert abs(np.sum(integrate_domain(final.u, domain)) - mass) <= 1e-11 * scale
