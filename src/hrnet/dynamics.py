"""Network state, initial conditions and time integration.

The model couples N three-component neurons over one shared domain: the
membrane potential u diffuses and exchanges boundary flux with matched
neurons, while v and w evolve pointwise.  Two schemes are provided: the
classical explicit 4-stage Runge-Kutta method on the full right-hand side,
and an implicit-explicit Euler step that treats the stiff diffusion and
coupling operator with a backward Euler solve (one sparse factorization per
run) and the reaction terms explicitly.

Everything here is deterministic: fixed evaluation order, seeded generators,
and no dependence on thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import HRParameters
from .domain import Domain, apply_diffusion, network_diffusion_matrix
from .errors import IntegrationError, LinearSolveError

SCHEMES = ("explicit-rk4", "imex-euler")
IC_KINDS = ("constant-per-neuron", "smooth-bump", "uniform-random", "file")


@dataclass
class NetworkState:
    """Full network state at one time: arrays of shape (N, n_cells)."""

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def n_neurons(self) -> int:
        return self.u.shape[0]

    def copy(self) -> "NetworkState":
        return NetworkState(self.t, self.u.copy(), self.v.copy(), self.w.copy())

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
        with np.load(ic.path) as data:
            for name, target in (("u", u), ("v", v), ("w", w)):
                arr = np.asarray(data[name], dtype=np.float64)
                if arr.shape != (n_neurons, nc):
                    raise ValueError(
                        f"file field {name} has shape {arr.shape}, "
                        f"expected ({n_neurons}, {nc})"
                    )
                target[:] = arr
    state = NetworkState(t=0.0, u=u, v=v, w=w)
    if not state.is_finite():
        raise ValueError("initial condition contains non-finite values")
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
        if self.linear_tol <= 0:
            raise ValueError("linear_tol must be > 0")

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
    """
    u, v, w = state.u, state.v, state.w
    u2 = u * u
    u3 = u2 * u
    du = params.a * u2 - params.b * u3 + v - w + params.J
    dv = params.alpha - v - params.beta * u2
    dw = params.q * (u - params.c) - params.r * w
    return du, dv, dw


def full_rhs(state: NetworkState, params: HRParameters, domain: Domain, matching):
    """Reaction terms plus diffusion/coupling on the u components only."""
    du, dv, dw = reaction_rhs(state, params)
    du = du + apply_diffusion(state.u, domain, matching, params.d, params.p)
    return du, dv, dw


class Integrator:
    """Prepared stepper: operators are assembled and factorized once."""

    def __init__(self, params: HRParameters, domain: Domain, matching,
                 cfg: IntegratorConfig):
        self.params = params
        self.domain = domain
        self.matching = matching
        self.cfg = cfg
        self.dt, self.n_steps = resolve_dt(cfg, domain, params)
        self._lu = None
        self._system = None
        if cfg.scheme == "imex-euler" and self.n_steps > 0:
            n_total = params.n_neurons * domain.n_cells
            a = network_diffusion_matrix(
                domain, matching, params.d, params.p, params.n_neurons
            )
            system = (sp.identity(n_total, format="csc") - self.dt * a).tocsc()
            self._system = system
            self._lu = spla.splu(system)

    def _rhs(self, t, u, v, w):
        state = NetworkState(t, u, v, w)
        return full_rhs(state, self.params, self.domain, self.matching)

    def _step_rk4(self, state: NetworkState) -> NetworkState:
        dt = self.dt
        t, u, v, w = state.t, state.u, state.v, state.w
        k1 = self._rhs(t, u, v, w)
        k2 = self._rhs(t + dt / 2, u + dt / 2 * k1[0], v + dt / 2 * k1[1], w + dt / 2 * k1[2])
        k3 = self._rhs(t + dt / 2, u + dt / 2 * k2[0], v + dt / 2 * k2[1], w + dt / 2 * k2[2])
        k4 = self._rhs(t + dt, u + dt * k3[0], v + dt * k3[1], w + dt * k3[2])
        u2 = u + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v2 = v + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        w2 = w + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        return NetworkState(t + dt, u2, v2, w2)

    def _step_imex(self, state: NetworkState) -> NetworkState:
        dt = self.dt
        du, dv, dw = reaction_rhs(state, self.params)
        ustar = (state.u + dt * du).ravel()
        u2 = self._lu.solve(ustar)
        residual = np.linalg.norm(self._system @ u2 - ustar)
        scale = max(float(np.linalg.norm(ustar)), 1.0)
        if not residual <= self.cfg.linear_tol * scale:
            raise LinearSolveError(
                f"backward Euler solve at t={state.t:.6g}: residual {residual:.3e} "
                f"exceeds tolerance {self.cfg.linear_tol:.3e} (scale {scale:.3e})"
            )
        return NetworkState(
            state.t + dt,
            u2.reshape(state.u.shape),
            state.v + dt * dv,
            state.w + dt * dw,
        )

    def step(self, state: NetworkState) -> NetworkState:
        if self.cfg.scheme == "explicit-rk4":
            return self._step_rk4(state)
        return self._step_imex(state)


def step(state: NetworkState, params: HRParameters, domain: Domain, matching,
         cfg: IntegratorConfig) -> NetworkState:
    """Single prepared step; build an Integrator directly for long runs."""
    return Integrator(params, domain, matching, cfg).step(state)


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
    order.  A non-finite state aborts with :class:`IntegrationError` carrying
    the failure time, the largest finite |u| seen, and the rows recorded so
    far, so partial output can still be flushed; a failed implicit solve
    raises :class:`LinearSolveError` with those rows attached.
    """
    if isinstance(ic, NetworkState):
        state = ic.copy()
        state.t = 0.0
    else:
        state = initial_state(ic, domain, params.n_neurons)
    stepper = Integrator(params, domain, matching, cfg)
    # exact, accumulation-free timestamps
    times = [0.0]
    rows = [observer(state) if observer is not None else None]
    max_abs_u = float(np.abs(state.u).max())
    # a diverging state shows up as inf/nan and is reported, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, stepper.n_steps + 1):
            try:
                state = stepper.step(state)
            except LinearSolveError as err:
                err.rows = rows
                raise
            state.t = k * stepper.dt
            peak = float(np.abs(state.u).max())
            if not (
                math.isfinite(peak)
                and np.isfinite(state.v).all()
                and np.isfinite(state.w).all()
            ):
                raise IntegrationError(state.t, max_abs_u, rows=rows)
            max_abs_u = max(max_abs_u, peak)
            if k % cfg.record_every == 0 or k == stepper.n_steps:
                times.append(state.t)
                rows.append(observer(state) if observer is not None else None)
    return SimulationResult(
        state=state, times=times, rows=rows, dt=stepper.dt, n_steps=stepper.n_steps
    )
