"""One geometry per run: the grid and network size are the matching's.

Every entry that takes a ``domain`` beside a matching checks, before it
builds anything, that the two describe one grid (dim, extents and cells,
compared by value), and a prebuilt initial state must be (N, n_cells) on
that grid.  At every entry, a run without a matching equals the run with a
matching whose faces are all self-matched.
"""

import pickle
from dataclasses import fields

import numpy as np
import pytest

import hrnet.dynamics as dynamics
from hrnet.core import HRParameters, derive_constants
from hrnet.domain import build_domain, full_boundary_matching, parse_matching, poincare_constants
from hrnet.dynamics import (
    InitialCondition,
    Integrator,
    IntegratorConfig,
    NetworkState,
    simulate,
    simulate_ensemble,
)
from hrnet.metrics import asynchronous_degree, record_trajectories, record_trajectory

SCHEMES = ["explicit-rk4", "imex-euler"]

# (the run's domain, the grid its matching was built on): dim, extents, cells
MISMATCHES = {
    "1d-16-on-8": ((1, [1.0], [16]), (1, [1.0], [8])),
    "2d-8x8-on-6x10": ((2, [1.0, 1.0], [8, 8]), (2, [1.0, 1.0], [6, 10])),
    "2d-extents-1-on-2": ((2, [1.0, 1.0], [8, 8]), (2, [2.0, 2.0], [8, 8])),
    "2d-8x8-on-16x16": ((2, [1.0, 1.0], [8, 8]), (2, [1.0, 1.0], [16, 16])),
}


def consts_of(params, domain):
    pc = poincare_constants(domain)
    return derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)


# each public run entry, called with one member
ENTRIES = {
    "simulate": lambda ic, params, domain, matching, cfg:
        simulate(ic, params, domain, matching, cfg),
    "simulate_ensemble": lambda ic, params, domain, matching, cfg:
        simulate_ensemble([ic], [params], domain, matching, cfg),
    "record_trajectory": lambda ic, params, domain, matching, cfg:
        record_trajectory(ic, params, domain, matching, cfg, consts_of(params, domain)),
    "record_trajectories": lambda ic, params, domain, matching, cfg:
        record_trajectories([ic], [params], domain, matching, cfg, [consts_of(params, domain)]),
    "asynchronous_degree": lambda ic, params, domain, matching, cfg:
        asynchronous_degree(params, domain, matching, cfg, sample_count=1, seed=0, ic=ic),
    "Integrator": lambda ic, params, domain, matching, cfg:
        Integrator(params, domain, matching, cfg),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", MISMATCHES)
def test_a_domain_other_than_the_matchings_is_rejected(case, entry, monkeypatch):
    (run_grid, matching_grid) = MISMATCHES[case]
    domain, other = build_domain(*run_grid), build_domain(*matching_grid)
    matching = full_boundary_matching(other, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.02, scheme="imex-euler", dt=2e-3)
    monkeypatch.setattr(dynamics, "CapacitanceSolver",
                        lambda *args: pytest.fail("a solver was built"))
    with pytest.raises(ValueError) as raised:
        ENTRIES[entry](InitialCondition(), HRParameters.default(p=2.0), domain, matching, cfg)
    message = str(raised.value)
    for grid in (domain, other):  # both grids, by cells and by extents
        assert f"cells {grid.cells} on extents {grid.extents}" in message


def run_final(ic, params, domain, matching, scheme):
    cfg = IntegratorConfig(t_end=0.02, scheme=scheme, dt=2e-3)
    state = simulate(ic, params, domain, matching, cfg).state
    return np.stack([state.u, state.v, state.w])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_equal_grids_built_apart_or_unpickled_are_one_geometry(scheme):
    domain = build_domain(2, [1.0, 0.8], [8, 6])
    matching = full_boundary_matching(domain, 2, "1-2")
    params, ic = HRParameters.default(p=2.0), InitialCondition(seed=3)
    want = run_final(ic, params, domain, matching, scheme)
    # the grid built a second time, and domain and matching each through
    # their own pickle, as a pool worker receives them
    twins = [(build_domain(2, [1.0, 0.8], [8, 6]), matching),
             (pickle.loads(pickle.dumps(domain)), pickle.loads(pickle.dumps(matching)))]
    for twin, twin_matching in twins:
        assert twin is not twin_matching.domain
        assert np.array_equal(run_final(ic, params, twin, twin_matching, scheme), want)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dim", [1, 2])
def test_no_matching_is_the_all_self_matched_matching(scheme, dim):
    domain = build_domain(dim, [1.0] * dim, [8] * dim)
    params, ic = HRParameters.default(p=2.0), InitialCondition(seed=1)
    uncoupled = parse_matching([], domain, params.n_neurons)
    assert np.array_equal(run_final(ic, params, domain, None, scheme),
                          run_final(ic, params, domain, uncoupled, scheme))


def outcome_bytes(result):
    """The bytes of a record's columns, of each record in a list, or of a number."""
    if isinstance(result, list):
        return [outcome_bytes(one) for one in result]
    if isinstance(result, float):
        return np.float64(result).tobytes()
    return [np.asarray(getattr(result, f.name)).tobytes()
            for f in fields(result) if f.name != "consts"]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("entry", ["record_trajectory", "record_trajectories",
                                   "asynchronous_degree"])
def test_a_recording_entry_takes_no_matching_as_the_uncoupled_one(entry, dim, scheme):
    # the observers read the matching, so it is resolved before they are built
    domain = build_domain(dim, [1.0] * dim, [8] * dim)
    params, ic = HRParameters.default(p=2.0), InitialCondition(seed=1)
    cfg = IntegratorConfig(t_end=0.02, scheme=scheme, dt=2e-3, record_every=2)
    uncoupled = parse_matching([], domain, params.n_neurons)
    want = ENTRIES[entry](ic, params, domain, uncoupled, cfg)
    assert outcome_bytes(ENTRIES[entry](ic, params, domain, None, cfg)) == outcome_bytes(want)


# (u, v, w) shapes of a prebuilt initial state on a 16-cell run with N = 2
BAD_STATES = {
    "u-v-w-2x8": [(2, 8)] * 3,
    "u-v-w-3x16": [(3, 16)] * 3,
    "u-v-w-flat": [(2,)] * 3,
    "v-only-2x8": [(2, 16), (2, 8), (2, 16)],
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("case", BAD_STATES)
def test_a_prebuilt_state_off_the_runs_grid_is_rejected(case, scheme, monkeypatch):
    domain = build_domain(1, [1.0], [16])
    matching = full_boundary_matching(domain, 2, "1-2")
    cfg = IntegratorConfig(t_end=0.02, scheme=scheme, dt=2e-3)
    shapes = BAD_STATES[case]
    state = NetworkState(0.0, *(np.zeros(shape) for shape in shapes))
    name, found = next((n, s) for n, s in zip("uvw", shapes) if s != (2, 16))
    monkeypatch.setattr(dynamics, "Integrator", lambda *args: pytest.fail("a stepper was built"))
    with pytest.raises(ValueError) as raised:
        simulate(state, HRParameters.default(p=2.0), domain, matching, cfg)
    assert str(raised.value) == f"initial state {name} has shape {found}, expected (2, 16)"
