"""Network state, initial conditions and time integration.

The model couples N three-component neurons over one shared domain: the
membrane potential u diffuses and exchanges boundary flux with matched
neurons, while v and w evolve pointwise.  Two schemes are provided: the
classical explicit 4-stage Runge-Kutta method on the full right-hand side,
and an implicit-explicit Euler step that treats the stiff diffusion and
coupling operator with a backward Euler solve (prepared once per run: a
sparse LU factorization in 1D, a DCT and capacitance-matrix solver in 2D)
and the reaction terms explicitly.  :class:`Integrator` steps batches of
(B, N, cells) arrays, one member per ensemble run; :func:`step` is the one
wrapper for a single (N, cells) state.

Everything here is deterministic: fixed evaluation order, seeded generators,
and no dependence on thread count.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import HRParameters
from .domain import CapacitanceSolver, Domain, apply_diffusion, network_diffusion_matrix
from .errors import ConfigError, IntegrationError, LinearSolveError

SCHEMES = ("explicit-rk4", "imex-euler")
IC_KINDS = ("constant-per-neuron", "smooth-bump", "uniform-random", "file")


@dataclass
class NetworkState:
    """Full network state at one time: arrays of shape (N, n_cells).

    A batch of ensemble members holds C-contiguous (B, N, n_cells) arrays.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def n_neurons(self) -> int:
        return self.u.shape[-2]

    def is_finite(self) -> bool:
        return bool(
            np.isfinite(self.u).all()
            and np.isfinite(self.v).all()
            and np.isfinite(self.w).all()
        )


@dataclass(frozen=True)
class InitialCondition:
    """Reproducible initial data.

    kinds:
      constant-per-neuron: u_i = u_values[i] (likewise v, w; empty = zeros)
      smooth-bump:         u_i = i*offset + amplitude * gaussian(center, width)
      uniform-random:      u_i = i*offset + noise*Uniform(-1,1) per cell,
                           v_i, w_i = noise*Uniform(-1,1) (the desynchronizing
                           default; draws ordered neuron-major u, v, w)
      file:                npz archive with arrays u, v, w of shape (N, cells)
    """

    kind: str = "uniform-random"
    seed: int = 0
    offset: float = 1.0
    noise: float = 0.1
    u_values: tuple = ()
    v_values: tuple = ()
    w_values: tuple = ()
    center: tuple = ()
    width: float = 0.25
    amplitude: float = 1.0
    path: str = ""

    def __post_init__(self):
        if self.kind not in IC_KINDS:
            raise ValueError(f"unknown initial-condition kind {self.kind!r}; "
                             f"expected one of {IC_KINDS}")
        for name in ("offset", "noise", "width", "amplitude",
                     "u_values", "v_values", "w_values", "center"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.kind == "smooth-bump" and self.width <= 0:
            raise ValueError("smooth-bump width must be > 0")
        if self.kind == "file" and not self.path:
            raise ValueError("file initial condition needs a path")


def _per_neuron_values(values, n: int, what: str) -> np.ndarray:
    if len(values) == 0:
        return np.zeros(n)
    if len(values) != n:
        raise ValueError(f"{what} must list one value per neuron ({n}), got {len(values)}")
    return np.asarray(values, dtype=np.float64)


def _read_initial_file(path: str, shape: tuple) -> list:
    """Arrays u, v, w of an npz archive; a file that is missing, unreadable,
    or holds arrays of the wrong shape or non-finite values is a ConfigError."""
    try:
        with np.load(path) as data:
            fields = [np.asarray(data[name], dtype=np.float64) for name in "uvw"]
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as err:
        raise ConfigError(f"initial-condition file {path}: cannot read arrays "
                          f"u, v, w: {err}") from err
    for name, arr in zip("uvw", fields):
        if arr.shape != shape:
            raise ConfigError(f"initial-condition file {path}: field {name} has shape "
                              f"{arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"initial-condition file {path}: field {name} "
                              f"has non-finite values")
    return fields


def initial_state(ic: InitialCondition, domain: Domain, n_neurons: int) -> NetworkState:
    """Materialize the initial fields on the grid."""
    nc = domain.n_cells
    u = np.zeros((n_neurons, nc))
    v = np.zeros((n_neurons, nc))
    w = np.zeros((n_neurons, nc))
    if ic.kind == "constant-per-neuron":
        u[:] = _per_neuron_values(ic.u_values, n_neurons, "u_values")[:, None]
        v[:] = _per_neuron_values(ic.v_values, n_neurons, "v_values")[:, None]
        w[:] = _per_neuron_values(ic.w_values, n_neurons, "w_values")[:, None]
    elif ic.kind == "smooth-bump":
        coords = domain.cell_center_coords()
        center = ic.center if ic.center else tuple(e / 2.0 for e in domain.extents)
        if len(center) != domain.dim:
            raise ValueError(f"center must have {domain.dim} coordinates")
        dist2 = sum((x - c) ** 2 for x, c in zip(coords, center))
        bump = ic.amplitude * np.exp(-dist2 / (2.0 * ic.width * ic.width))
        for i in range(n_neurons):
            u[i] = i * ic.offset + bump
    elif ic.kind == "uniform-random":
        rng = np.random.default_rng(ic.seed)
        for i in range(n_neurons):
            u[i] = i * ic.offset + ic.noise * rng.uniform(-1.0, 1.0, nc)
            v[i] = ic.noise * rng.uniform(-1.0, 1.0, nc)
            w[i] = ic.noise * rng.uniform(-1.0, 1.0, nc)
    else:  # file
        u[:], v[:], w[:] = _read_initial_file(ic.path, (n_neurons, nc))
    state = NetworkState(t=0.0, u=u, v=v, w=w)
    if not state.is_finite():  # finite settings can still overflow (i * offset)
        raise ConfigError("initial condition overflows to non-finite values")
    return state


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping policy.

    ``dt`` may be the string ``auto``: the explicit scheme then uses the
    diffusion stability bound scaled by ``cfl_safety``, and the implicit
    scheme falls back to the same bound (it is unconditionally stable, so an
    explicit ``dt`` is normally supplied for it).  The step count is chosen
    so the run lands exactly on ``t_end``.
    """

    t_end: float
    scheme: str = "explicit-rk4"
    dt: object = "auto"
    cfl_safety: float = 0.9
    record_every: int = 1
    linear_tol: float = 1e-10

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.t_end < 0 or not math.isfinite(self.t_end):
            raise ValueError("t_end must be >= 0 and finite")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.record_every < 1 or int(self.record_every) != self.record_every:
            raise ValueError("record_every must be a positive integer")
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ValueError(f"dt must be a positive number or 'auto', got {self.dt!r}")
        elif not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a positive number or 'auto', got {self.dt!r}")
        if not (math.isfinite(self.linear_tol) and self.linear_tol > 0):
            raise ValueError("linear_tol must be positive and finite")

    def replace(self, **changes) -> "IntegratorConfig":
        from dataclasses import asdict
        values = asdict(self)
        values.update(changes)
        return IntegratorConfig(**values)


def cfl_bound(domain: Domain, d: float) -> float:
    """Largest stable explicit diffusion step: min(h)^2 / (2 dim d)."""
    h_min = min(domain.h)
    return h_min * h_min / (2.0 * domain.dim * d)


def resolve_dt(cfg: IntegratorConfig, domain: Domain, params: HRParameters):
    """Pick (dt, n_steps) with n_steps * dt = t_end exactly."""
    if isinstance(cfg.dt, str):
        target = cfg.cfl_safety * cfl_bound(domain, params.d)
    else:
        target = float(cfg.dt)
    if cfg.t_end == 0.0:
        return target, 0
    n_steps = max(1, math.ceil(cfg.t_end / target - 1e-12))
    return cfg.t_end / n_steps, n_steps


def reaction_rhs(state: NetworkState, params: HRParameters):
    """Pointwise reaction terms; diffusion is not included.

    du = a u^2 - b u^3 + v - w + J
    dv = alpha - v - beta u^2
    dw = q (u - c) - r w

    ``params`` may also carry one constant per ensemble member as (B, 1, 1)
    columns broadcast over (B, N, cells) fields; the arithmetic is
    elementwise, so each member gets the bits of its own serial run.
    """
    u, v, w = state.u, state.v, state.w
    u2 = u * u
    u3 = u2 * u
    du = params.a * u2 - params.b * u3 + v - w + params.J
    dv = params.alpha - v - params.beta * u2
    dw = params.q * (u - params.c) - params.r * w
    return du, dv, dw


REACTION_FIELDS = ("a", "b", "alpha", "beta", "q", "r", "c", "J")


def _member_constants(members, names):
    """The members' parameters ``names``, each a scalar where every member has
    the same value, else a (B, 1, 1) column with one entry per member."""
    values = {}
    for name in names:
        column = [getattr(m, name) for m in members]
        same = all(value == column[0] for value in column)
        values[name] = column[0] if same else np.array(column)[:, None, None]
    return SimpleNamespace(**values)


def _nonfinite_members(peak, v, w) -> list:
    """Positions of the batch members whose state is not finite; ``peak``
    holds each member's max |u|."""
    # max() propagates nan, so one scalar test covers every member's peak
    if math.isfinite(peak.max()) and np.isfinite(v).all() and np.isfinite(w).all():
        return []
    n = peak.shape[0]
    ok = (np.isfinite(peak)
          & np.isfinite(v).reshape(n, -1).all(axis=1)
          & np.isfinite(w).reshape(n, -1).all(axis=1))
    return [int(i) for i in np.flatnonzero(~ok)]


class Integrator:
    """Prepared batch stepper: operators are assembled and solvers built once.

    ``params`` is a sequence of :class:`HRParameters`, one per batch member,
    or one of them for a batch of one.  :meth:`step` advances (B, N, cells)
    arrays whose member b follows ``params[b]``; members must resolve to the
    same step size and step count.  Parameters that differ between members
    enter the arithmetic as (B, 1, 1) columns, so each member gets the bits
    of its own serial run.

    RK4 applies the :func:`~hrnet.domain.apply_diffusion` stencil to the
    whole batch at each stage.  The backward Euler system is solved by a
    SuperLU factorization in 1D and by
    :class:`~hrnet.domain.CapacitanceSolver` (exact DCT solve plus a
    capacitance correction for the boundary coupling) in 2D; the residual
    guard checks either against the assembled system.  Members with equal
    (d, p) share one solver and one multi-column solve, which is bitwise
    equal per column: a 1D factor's supernodes stay narrow, and the DCT
    solver works one column at a time.
    """

    def __init__(self, params, domain: Domain, matching, cfg: IntegratorConfig):
        members = (params,) if isinstance(params, HRParameters) else tuple(params)
        if not members:
            raise ValueError("an integrator needs at least one member")
        self.domain = domain
        self.matching = matching
        self.cfg = cfg
        steps = {resolve_dt(cfg, domain, m) for m in members}
        if len(steps) != 1:
            raise ValueError("batched members must share the step size and step count")
        ((self.dt, self.n_steps),) = steps
        self.members = members
        # per member: its backward Euler system and that system's solver
        self._operators = ()
        if cfg.scheme == "imex-euler" and self.n_steps > 0:
            solvers = {}
            for m in members:
                if (m.d, m.p) not in solvers:
                    n_total = m.n_neurons * domain.n_cells
                    a = network_diffusion_matrix(domain, matching, m.d, m.p, m.n_neurons)
                    system = (sp.identity(n_total, format="csc") - self.dt * a).tocsc()
                    if domain.dim == 2:
                        solver = CapacitanceSolver(domain, matching, m.d, m.p,
                                                   m.n_neurons, self.dt)
                    else:
                        solver = spla.splu(system)
                    solvers[m.d, m.p] = (system, solver)
            self._operators = tuple(solvers[m.d, m.p] for m in members)
        self._keep(range(len(members)))

    def _keep(self, positions):
        """Restrict the batch to the members at ``positions``, in that order.

        Solvers are kept, never rebuilt.
        """
        positions = list(positions)
        self.members = tuple(self.members[i] for i in positions)
        self._reaction = _member_constants(self.members, REACTION_FIELDS)
        self._coupling = _member_constants(self.members, ("d", "p"))
        self._system = None
        self._solves = []
        if not self._operators:
            return
        self._operators = tuple(self._operators[i] for i in positions)
        systems = [system for system, _ in self._operators]
        self._system = systems[0] if len(systems) == 1 else sp.block_diag(systems, format="csc")
        groups = {}  # solver -> positions solved together
        for b, (_, solver) in enumerate(self._operators):
            groups.setdefault(solver, []).append(b)
        # a lone member is indexed by position, so its rows stay 1-D views
        self._solves = [(solver, rows[0] if len(rows) == 1 else rows)
                        for solver, rows in groups.items()]

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """Backward Euler solves of the rows of ``rhs`` (B, N * cells)."""
        if len(self._solves) == 1:
            solver, _ = self._solves[0]
            return solver.solve(rhs.T).T
        out = np.empty_like(rhs)
        for solver, index in self._solves:
            out[index] = solver.solve(rhs[index].T).T
        return out

    def _rhs(self, t, u, v, w):
        du, dv, dw = reaction_rhs(NetworkState(t, u, v, w), self._reaction)
        c = self._coupling
        return du + apply_diffusion(u, self.domain, self.matching, c.d, c.p), dv, dw

    def _step_rk4(self, state: NetworkState):
        dt = self.dt
        t, u, v, w = state.t, state.u, state.v, state.w
        k1 = self._rhs(t, u, v, w)
        k2 = self._rhs(t + dt / 2, u + dt / 2 * k1[0], v + dt / 2 * k1[1], w + dt / 2 * k1[2])
        k3 = self._rhs(t + dt / 2, u + dt / 2 * k2[0], v + dt / 2 * k2[1], w + dt / 2 * k2[2])
        k4 = self._rhs(t + dt, u + dt * k3[0], v + dt * k3[1], w + dt * k3[2])
        u2 = u + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v2 = v + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        w2 = w + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        return NetworkState(t + dt, u2, v2, w2), {}

    def _step_imex(self, state: NetworkState):
        dt = self.dt
        du, dv, dw = reaction_rhs(state, self._reaction)
        ustar = state.u + dt * du
        v2 = state.v + dt * dv
        w2 = state.w + dt * dw
        rhs = ustar.reshape(ustar.shape[0], -1)
        u2 = self._solve(rhs)
        residuals = (self._system @ u2.ravel() - rhs.ravel()).reshape(rhs.shape)
        errors = {}
        for b in range(rhs.shape[0]):
            residual = np.linalg.norm(residuals[b])
            scale = max(float(np.linalg.norm(rhs[b])), 1.0)
            if residual <= self.cfg.linear_tol * scale:
                continue
            if not (np.isfinite(rhs[b]).all() and np.isfinite(v2[b]).all()
                    and np.isfinite(w2[b]).all()):
                # the explicit update had already blown up: an integration
                # failure, not the solve's
                errors[b] = IntegrationError(state.t + dt, float(np.abs(state.u[b]).max()))
                continue
            errors[b] = LinearSolveError(
                f"backward Euler solve at t={state.t:.6g}: residual {residual:.3e} "
                f"exceeds tolerance {self.cfg.linear_tol:.3e} (scale {scale:.3e})"
            )
        return NetworkState(state.t + dt, u2.reshape(state.u.shape), v2, w2), errors

    def step(self, state: NetworkState):
        """Advance the batch ``state`` of (B, N, cells) arrays by one step.

        Returns ``(state, errors)``: ``errors`` maps the batch position of
        each member whose implicit step failed to its
        :class:`IntegrationError` or :class:`LinearSolveError`; the returned
        state is valid for every other member.  A run of zero steps
        (``t_end = 0``) prepares no solver and has nothing to step: it
        raises :class:`ValueError`.
        """
        if self.n_steps == 0:
            raise ValueError("nothing to step: t_end = 0 gives a run of zero steps")
        if self.cfg.scheme == "explicit-rk4":
            return self._step_rk4(state)
        return self._step_imex(state)


def step(state: NetworkState, params: HRParameters, domain: Domain, matching,
         cfg: IntegratorConfig) -> NetworkState:
    """One step of a single (N, cells) state, raising its error if the step
    fails; build an :class:`Integrator` directly for long runs."""
    batch = NetworkState(state.t, state.u[None], state.v[None], state.w[None])
    new, errors = Integrator(params, domain, matching, cfg).step(batch)
    if errors:
        raise errors[0]
    return _member(new, 0)


@dataclass
class SimulationResult:
    """Raw output of one run: final state plus whatever the observer returned."""

    state: NetworkState
    times: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    dt: float = 0.0
    n_steps: int = 0


def simulate(ic, params: HRParameters, domain: Domain, matching,
             cfg: IntegratorConfig, observer=None) -> SimulationResult:
    """Integrate to t_end, sampling the observer every record_every steps.

    ``ic`` is an InitialCondition or a prebuilt NetworkState (taken as t=0
    data).  The observer is called with each recorded state (including the
    initial one and the final step) and its return values are collected in
    order.  A non-finite state, or a non-finite explicit update ahead of the
    implicit solve, aborts with :class:`IntegrationError` carrying the
    failure time, the largest finite |u| seen, and the rows recorded so far,
    so partial output can still be flushed; a failed implicit solve raises
    :class:`LinearSolveError` with those rows attached.

    This is the one-member case of :func:`simulate_ensemble`.
    """
    (result,) = simulate_ensemble([ic], [params], domain, matching, cfg, [observer])
    if isinstance(result, Exception):
        raise result
    return result


def simulate_ensemble(ics, params_list, domain: Domain, matching,
                      cfg: IntegratorConfig, observers=None) -> list:
    """Integrate every member to t_end, all members of a batch in one time loop.

    Member b starts from ``ics[b]`` (as in :func:`simulate`) and follows
    ``params_list[b]``, observed by ``observers[b]`` (None or absent: no
    rows).  Returns, per member and in order, its :class:`SimulationResult`
    or the :class:`IntegrationError` / :class:`LinearSolveError` it failed
    with, rows attached; a failed member leaves the batch and the others
    go on.  Every member is bitwise equal to its own serial run.

    Members that resolve to one step size and step count form one batch;
    batches run one after another.
    """
    params_list = list(params_list)
    observers = [None] * len(params_list) if observers is None else list(observers)
    if not len(ics) == len(params_list) == len(observers):
        raise ValueError("need one initial condition, parameter set and observer per member")
    # each initial condition object is materialized (a file read) once per
    # network size, before any solver is built, so bad initial data fail first
    made = {}
    for ic, params in zip(ics, params_list):
        if not isinstance(ic, NetworkState) and (id(ic), params.n_neurons) not in made:
            made[id(ic), params.n_neurons] = initial_state(ic, domain, params.n_neurons)
    starts = [ic if isinstance(ic, NetworkState) else made[id(ic), params.n_neurons]
              for ic, params in zip(ics, params_list)]
    batches = {}
    for b, params in enumerate(params_list):
        batches.setdefault(resolve_dt(cfg, domain, params), []).append(b)
    results = [None] * len(params_list)
    for members in batches.values():
        _run_batch(members, starts, params_list, domain, matching, cfg, observers, results)
    return results


def _member(state: NetworkState, i: int) -> NetworkState:
    return NetworkState(state.t, state.u[i], state.v[i], state.w[i])


def _observe(observer, state: NetworkState, i: int):
    return observer(_member(state, i)) if observer is not None else None


def _run_batch(members, starts, params_list, domain, matching, cfg, observers, results):
    """The time loop of one batch; writes each member's outcome into ``results``."""
    stepper = Integrator([params_list[b] for b in members], domain, matching, cfg)
    # C-contiguous (B, N, cells) copies: the inputs are never mutated
    state = NetworkState(0.0, *(np.stack([getattr(starts[b], name) for b in members])
                                for name in ("u", "v", "w")))
    live = list(members)
    watch = [observers[b] for b in members]
    # exact, accumulation-free timestamps
    times = [0.0]
    rows = [[_observe(watch[i], state, i)] for i in range(len(live))]
    max_abs_u = np.abs(state.u).reshape(len(live), -1).max(axis=1)
    # a diverging state shows up as inf/nan and is reported, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, stepper.n_steps + 1):
            state, errors = stepper.step(state)
            state.t = k * stepper.dt
            peak = np.abs(state.u).reshape(len(live), -1).max(axis=1)
            for i in _nonfinite_members(peak, state.v, state.w):
                errors.setdefault(i, None)
            if errors:
                for i, err in errors.items():
                    if isinstance(err, LinearSolveError):
                        err.rows = rows[i]
                    else:
                        err = IntegrationError(state.t, float(max_abs_u[i]), rows=rows[i])
                    results[live[i]] = err
                keep = [i for i in range(len(live)) if i not in errors]
                if not keep:
                    return
                stepper._keep(keep)
                state = NetworkState(state.t, state.u[keep], state.v[keep], state.w[keep])
                live = [live[i] for i in keep]
                watch = [watch[i] for i in keep]
                rows = [rows[i] for i in keep]
                max_abs_u = max_abs_u[keep]
                peak = peak[keep]
            np.maximum(max_abs_u, peak, out=max_abs_u)
            if k % cfg.record_every == 0 or k == stepper.n_steps:
                times.append(state.t)
                for i in range(len(live)):
                    rows[i].append(_observe(watch[i], state, i))
    for i, b in enumerate(live):
        results[b] = SimulationResult(state=_member(state, i), times=list(times),
                                      rows=rows[i], dt=stepper.dt,
                                      n_steps=stepper.n_steps)
