"""Property tests: the pair observables equal their per-pair reference loops.

``pair_differences``, ``stimulation_signal`` and ``compute_K`` loop over
neurons, not pairs.  The ``oracle_*`` functions below are the per-ordered-pair
loops they replaced, kept as the reference; on random grids, random involution
matchings and random states the two must agree bit for bit
(``np.array_equal``, float ``==``), not merely to a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hrnet.core import HRParameters, derive_constants
from hrnet.domain import build_domain, integrate_domain, parse_matching
from hrnet.dynamics import NetworkState
from hrnet.metrics import (
    TrajectoryObserver,
    compute_K,
    pair_differences,
    stimulation_signal,
)

# a fixed example sequence keeps tier-1 reproducible and writes no database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def oracle_pair_differences(state, domain, g):
    n = state.n_neurons
    u_sq = np.zeros((n, n))
    v_sq = np.zeros((n, n))
    w_sq = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            du = state.u[i] - state.u[j]
            dv = state.v[i] - state.v[j]
            dw = state.w[i] - state.w[j]
            u_sq[i, j] = integrate_domain(du * du, domain)
            v_sq[i, j] = integrate_domain(dv * dv, domain)
            w_sq[i, j] = integrate_domain(dw * dw, domain)
    return u_sq, v_sq, w_sq, u_sq + v_sq + w_sq, g * u_sq + v_sq + w_sq


def oracle_stimulation_signal(state, matching, p):
    uf = state.u[:, matching.face_cell]
    total = 0.0
    n = matching.n_neurons
    for i in range(n):
        for j in range(i + 1, n):
            mask = matching.partner[:, i] == j
            if mask.any():
                du = uf[i, mask] - uf[j, mask]
                total += float(np.sum(du * du * matching.face_area[mask]))
    return p * total


def oracle_compute_K(state, matching):
    n = matching.n_neurons
    n_faces = matching.face_cell.shape[0]
    uf = state.u[:, matching.face_cell]
    face_idx = np.arange(n_faces)
    resid = np.empty_like(uf)
    for i in range(n):
        resid[i] = uf[i] - uf[matching.partner[:, i], face_idx]
    area = matching.face_area
    k = np.zeros((n, n))
    boundary_diff_full = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            du = uf[i] - uf[j]
            k[i, j] = float(np.sum((resid[i] - resid[j]) * du * area))
            boundary_diff_full += float(np.sum(du * du * area))
    return k, float(k.sum()), boundary_diff_full


@st.composite
def involution_pairs(draw, n):
    """A random partial pairing of 1..n as text, fixed points written i-i."""
    order = draw(st.permutations(range(1, n + 1)))
    n_pairs = draw(st.integers(0, n // 2))
    pairs = [f"{order[2 * k]}-{order[2 * k + 1]}" for k in range(n_pairs)]
    pairs += [f"{i}-{i}" for i in order[2 * n_pairs:] if draw(st.booleans())]
    return ", ".join(pairs)


@st.composite
def segmented_networks(draw):
    """(domain, segments, n) on a random 1D or 2D grid, 4-12 cells per axis:
    segment descriptors for ``parse_matching`` that do not overlap."""
    n = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 2))
    cells = [draw(st.integers(4, 12)) for _ in range(dim)]
    extents = [draw(st.sampled_from([0.5, 1.0, 1.7])) for _ in range(dim)]
    domain = build_domain(dim, extents, cells)
    segments = []
    if dim == 1:
        for side in ("left", "right"):
            if draw(st.booleans()):
                segments.append({"side": side, "pairs": draw(involution_pairs(n))})
    else:
        # each edge is cut at cell boundaries into spans with their own pairing
        edges = {"left": 1, "right": 1, "bottom": 0, "top": 0}
        for side, axis in edges.items():
            m, h = cells[axis], domain.h[axis]
            cuts = draw(st.lists(st.integers(1, m - 1), max_size=2, unique=True))
            bounds = [0] + sorted(cuts) + [m]
            for lo, hi in zip(bounds, bounds[1:]):
                if draw(st.booleans()):
                    segments.append({"side": side, "span": (lo * h, hi * h),
                                     "pairs": draw(involution_pairs(n))})
    return domain, segments, n


def networks():
    """(domain, matching, n) on a random 1D or 2D grid, 4-12 cells per axis."""
    return segmented_networks().map(
        lambda net: (net[0], parse_matching(net[1], net[0], net[2]), net[2]))


@st.composite
def states(draw, domain, n):
    """Random fields; some neurons copy others, some arrays are not C-ordered."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    fields = scale * rng.normal(size=(3, n, domain.n_cells))
    for i in range(n):
        source = draw(st.integers(0, n - 1))
        if source < i:
            fields[:, i] = fields[:, source]
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    arrays = []
    for f in fields:
        if layout == "F":
            f = np.asfortranarray(f)
        elif layout == "strided":
            wide = np.zeros((n, 2 * domain.n_cells))
            wide[:, ::2] = f
            f = wide[:, ::2]
        arrays.append(f)
    return NetworkState(t=0.0, u=arrays[0], v=arrays[1], w=arrays[2])


@st.composite
def scenarios(draw):
    domain, matching, n = draw(networks())
    return domain, matching, draw(states(domain, n))


@PROPERTY
@given(scenarios(), st.floats(0.0, 100.0), st.floats(0.0, 50.0))
def test_observables_equal_per_pair_oracle(scenario, g, p):
    domain, matching, state = scenario
    diffs = pair_differences(state, domain, g)
    got = (diffs.u_sq, diffs.v_sq, diffs.w_sq, diffs.diff_plain, diffs.diff_g)
    for a, b in zip(got, oracle_pair_differences(state, domain, g)):
        assert np.array_equal(a, b)

    assert stimulation_signal(state, matching, p) == oracle_stimulation_signal(
        state, matching, p)

    res = compute_K(state, matching)
    k, k_sum, boundary_diff_full = oracle_compute_K(state, matching)
    assert np.array_equal(res.k, k)
    assert res.k_sum == k_sum
    assert res.boundary_diff_full == boundary_diff_full


@PROPERTY
@given(scenarios())
def test_observer_row_columns_follow_pair_order(scenario):
    domain, matching, state = scenario
    n = state.n_neurons
    params = HRParameters.default(n_neurons=n)
    consts = derive_constants(params, domain.omega_measure, 1.0, 1.0)
    row = TrajectoryObserver(params, domain, matching, consts)(state)
    _, _, _, plain, g_weighted = oracle_pair_differences(state, domain, consts.g)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert row["diff_g"] == tuple(g_weighted[i, j] for i, j in pairs)
    assert row["diff_plain"] == tuple(plain[i, j] for i, j in pairs)
    _, k_sum, boundary_diff_full = oracle_compute_K(state, matching)
    assert row["k_sum"] == k_sum
    assert row["boundary_diff_full"] == boundary_diff_full
    assert row["stimulation_s"] == oracle_stimulation_signal(state, matching, params.p)


@PROPERTY
@given(networks(), st.integers(0, 2**32 - 1))
def test_identical_neurons_give_exact_zeros(network, seed):
    domain, matching, n = network
    rng = np.random.default_rng(seed)
    one = rng.normal(size=(3, 1, domain.n_cells))
    u, v, w = np.repeat(one, n, axis=1)
    state = NetworkState(t=0.0, u=u, v=v, w=w)
    diffs = pair_differences(state, domain, 3.0)
    for arr in (diffs.u_sq, diffs.v_sq, diffs.w_sq, diffs.diff_plain, diffs.diff_g):
        assert not arr.any()
    assert stimulation_signal(state, matching, 2.0) == 0.0
    res = compute_K(state, matching)
    assert not res.k.any()
    assert res.k_sum == 0.0 and res.boundary_diff_full == 0.0


@PROPERTY
@given(scenarios())
def test_cross_term_matrix_is_exactly_symmetric(scenario):
    _, matching, state = scenario
    k = compute_K(state, matching).k
    assert np.array_equal(k, k.T)
