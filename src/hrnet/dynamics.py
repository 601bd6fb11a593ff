"""Network state, initial conditions and time integration.

The model couples N three-component neurons over one shared domain: the
membrane potential u diffuses and exchanges boundary flux with matched
neurons, while v and w evolve pointwise.  Two schemes are provided: the
classical explicit 4-stage Runge-Kutta method on the full right-hand side,
and an implicit-explicit Euler step that treats the stiff diffusion and
coupling operator with a backward Euler solve (prepared once per run: one
uncoupled solve shared by the batch plus a capacitance-matrix correction
per member) and the reaction terms explicitly.  :class:`Integrator` steps
batches of (B, N, cells) arrays, one member per ensemble run; a single
(N, cells) state is a batch of one.  Everything here is deterministic: fixed
evaluation order, seeded generators, and no dependence on thread count.
"""

from __future__ import annotations

import dataclasses
import math
import zipfile
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import HRParameters
from .domain import (
    Domain,
    _axis_eigenvalues,
    _axis_laplacian,
    _diagonal_positions,
    apply_diffusion,
    network_diffusion_matrix,
    run_matching,
)
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
        return all(np.isfinite(x).all() for x in (self.u, self.v, self.w))


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        return dataclasses.replace(self, **changes)


def cfl_bound(domain: Domain, d: float, p: float = 0.0) -> float:
    """Largest stable explicit diffusion step: min(h)^2 / (2 dim d), or less
    where the boundary coupling ``p`` sets the limit.

    The network operator's rows sum to zero, so by Gershgorin its spectral
    radius is at most 2 max |A_ii|.  With every boundary face counted as
    coupled, a face takes its axis's missing neighbour out of its cell's
    diagonal d (2 sum_k 1/h_k^2) and adds d p area / vol; where such a row
    exceeds 2 dim d / min(h)^2 (for p > 1 / min(h) on square cells), its
    limit 1 / max |A_ii| is the smaller.
    """
    h_min = min(domain.h)
    inv_h2 = 1.0 / np.square(domain.h)
    per_face = p * domain.face_area / domain.cell_volume - inv_h2[domain.face_axis]
    rows = 2.0 * inv_h2.sum() + np.bincount(domain.face_cell, per_face)[domain.face_cell]
    return min(h_min * h_min / (2.0 * domain.dim * d), 1.0 / (d * rows.max()))


def resolve_dt(cfg: IntegratorConfig, domain: Domain, params: HRParameters):
    """Pick (dt, n_steps) with n_steps * dt = t_end exactly; a step size that
    is not positive or a step count past float range is a ValueError."""
    if isinstance(cfg.dt, str):
        target = cfg.cfl_safety * cfl_bound(domain, params.d, params.p)
    else:
        target = float(cfg.dt)
    if not target > 0:
        raise ValueError(f"the step size {target:.6g} is not positive")
    if cfg.t_end == 0.0:
        return target, 0
    count = cfg.t_end / target - 1e-12
    if not math.isfinite(count):
        raise ValueError(f"t_end / dt = {cfg.t_end:.6g} / {target:.6g} is too many steps to count")
    n_steps = max(1, math.ceil(count))
    return cfg.t_end / n_steps, n_steps


def reaction_rhs(state: NetworkState, params: HRParameters, out=None):
    """Pointwise reaction terms; diffusion is not included.

    du = a u^2 - b u^3 + v - w + J
    dv = alpha - v - beta u^2
    dw = q (u - c) - r w

    ``params`` may also carry one constant per ensemble member as (B, 1, 1)
    columns broadcast over (B, N, cells) fields; the arithmetic is
    elementwise, so each member gets the bits of its own serial run.  The
    terms are written into ``out=(du, dv, dw)``, float arrays of the fields'
    shape, if given, else into new ones; either way in the order the
    formulas read, with one temporary.
    """
    u, v, w = state.u, state.v, state.w
    du, dv, dw = out if out is not None else (np.empty(np.shape(u)) for _ in range(3))
    u2 = u * u
    np.multiply(u2, u, out=dw)  # u^3
    np.multiply(params.b, dw, out=dw)
    np.multiply(params.a, u2, out=du)
    du -= dw
    du += v
    du -= w
    du += params.J
    np.multiply(params.beta, u2, out=u2)
    np.subtract(params.alpha, v, out=dv)
    dv -= u2
    np.subtract(u, params.c, out=dw)
    dw *= params.q  # q (u - c): the product commutes
    np.multiply(params.r, w, out=u2)
    dw -= u2
    return du, dv, dw


# the parameters of the reaction terms: all but the coupling (d, p) and N
REACTION_FIELDS = tuple(f.name for f in dataclasses.fields(HRParameters)
                        if f.name not in ("d", "p", "n_neurons"))


def _member_constants(members, names):
    """The members' parameters ``names``, each a scalar where every member has
    the same value, else a (B, 1, 1) column with one entry per member."""
    values = {}
    for name in names:
        column = [getattr(m, name) for m in members]
        same = all(value == column[0] for value in column)
        values[name] = column[0] if same else np.array(column)[:, None, None]
    return SimpleNamespace(**values)


def cholesky(a: np.ndarray) -> np.ndarray:
    """Upper triangular ``R`` with ``a = R^T R``, the same bits at any BLAS
    thread count (OpenBLAS's ``potrf`` and deep products round differently
    with more threads).  Right-looking and blocked: LAPACK factors each
    64-wide diagonal block, one triangular solve makes its block row, and
    one 64-deep product per block row updates the trailing upper triangle."""
    r, n, block = np.triu(a), a.shape[0], 64
    for k in range(0, n, block):
        e = k + block
        r[k:e, k:e] = sla.cholesky(r[k:e, k:e], check_finite=False)
        if e >= n:
            break
        r[k:e, e:] = sla.solve_triangular(r[k:e, k:e], r[k:e, e:], trans="T",
                                          check_finite=False)
        for j in range(e, n, block):
            r[j:j + block, j:] -= r[k:e, j:j + block].T @ r[k:e, j:]
    return r


class CapacitanceSolver:
    """Exact solver of a batch's backward Euler systems ``I - dt A_b``, ``A_b``
    the :func:`~hrnet.domain.network_diffusion_matrix` of member b's d and p
    on ``matching`` (the grid and network size are the matching's).

    ``I - dt A = S0 + dt W D W^T``: the uncoupled ``S0 = I - dt d L`` plus a
    rank-one term per face and pair i < j matched there, ``w = e_(i,c) -
    e_(j,c)`` (c the face's cell; terms of one cell and pair merged).  One
    ``S0`` solve serves all members with the same d: a SuperLU factor of one
    neuron's tridiagonal block on all their columns in 1D, the orthonormal
    DCT-II in 2D.  Each member corrects for its coupling with ``K = I + U^T
    S0^-1 U``, ``U = W D^1/2``, symmetric positive definite and factored once
    by :func:`cholesky` (Buzbee, Golub & Nielson 1970; Hager 1989).  Coupled
    cells lie on the edges (end cells, outer rows and columns): the 1D
    correction is the 2N x 2N ``U K^-1 U^T`` on end-cell values, mapped back
    by two columns of ``S0^-1``; in 2D edge values are partial inverse DCTs.
    :meth:`solve` takes (B, N, n_cells), one right-hand side per member, each
    member solved bit for bit as alone; ``system`` is the assembled
    block-diagonal ``I - dt A``, for the residual guard.

    The build runs once per batch.  From the matching: the coupling's terms
    and ``W^T W``.  Per distinct d: ``S0``'s Green's block ``G`` at the
    coupled edge cells; in 2D the unit value at grid cell (ix, iy) has a 2D
    DCT that is one outer product (the DCT-II basis rows ix of x and iy of
    y), so ``G`` needs no forward transform.  Per distinct (d, p):
    the assembled ``I - dt A`` and ``K = ((W^T W) * G) * s s^T + I`` (``s``
    the terms' square-root weights) with its factor.
    """

    def __init__(self, matching, d, p, dt: float):
        domain = matching.domain
        self._dim, self._n, self._volume = domain.dim, matching.n_neurons, domain.cell_volume
        if domain.dim == 1:
            nc = domain.n_cells
            self._face_at = domain.face_side.astype(np.intp)  # 0 left end, 1 right
            lap = _axis_laplacian(nc, domain.h[0])  # symmetric: its rows are its columns
            diagonal = lap.indices == np.repeat(np.arange(nc), np.diff(lap.indptr))
            uncoupled = self._uncoupled = {}  # d -> (factor of S0, S0^-1 at the two end cells)
            for dm in dict.fromkeys(d):
                # S0 = I - dt d L for one neuron, in compressed columns
                s0 = sp.csc_matrix((diagonal - dt * dm * lap.data, lap.indices, lap.indptr))
                bands = np.array([np.r_[0.0, s0.diagonal(1)], s0.diagonal()])
                # S0^-1's first column, from the bands so that the factor solves
                # only steps; reversing the cells leaves S0 as it is
                first = sla.solveh_banded(bands, np.eye(nc, 1))[:, 0]
                uncoupled[dm] = (spla.splu(s0, permc_spec="NATURAL"),  # no fill
                                 np.array([first, first[::-1]]))
        else:
            # imported here, on first 2D use: 1D runs never need its memory
            import scipy.fft

            self._fft = scipy.fft
            self._grid = (nx, ny) = domain.cells
            kx, ky = (_axis_eigenvalues(m, h) for m, h in zip(domain.cells, domain.h))
            self._uncoupled = {dm: 1.0 + dt * dm * (kx[:, None] + ky[None, :])
                               for dm in d}  # S0's eigenvalues
            # per axis, row i: the orthonormal DCT-II of the unit value at cell i
            self._basis = [scipy.fft.dct(np.eye(m), norm="ortho") for m in domain.cells]
            # the first and last cell's, as C-ordered columns (products round by layout)
            self._ends_x, self._ends_y = (np.ascontiguousarray(b[[0, -1]].T) for b in self._basis)
            # grid cell (ix, iy) of each edge position: first and last row, then column ends
            self._edge_cells = ix, iy = (
                np.r_[np.repeat([0, nx - 1], ny), np.repeat(np.arange(nx), 2)],
                np.r_[np.tile(np.arange(ny), 2), np.tile([0, ny - 1], nx)])
            # each face's edge position: its cell's first, so a corner's is in its row
            cells, first = np.unique(ix * ny + iy, return_index=True)
            self._face_at = first[np.searchsorted(cells, domain.face_cell)]
        terms = self._coupling_terms(matching)
        greens, built = {}, {}  # d -> Green's block; (d, p) -> (correction, system)
        for key in zip(d, p):
            if key not in built:
                system = network_diffusion_matrix(matching, *key)
                # I - dt A in A's storage: every entry times -dt, then 1 added
                # on the diagonal, which the operator always stores
                system.data *= -dt
                system.data[_diagonal_positions(system)] += 1.0
                built[key] = (self._capacitance(terms, greens, *key, dt), system)
        self._corrections, systems = zip(*(built[key] for key in zip(d, p)))
        self.system = systems[0] if len(systems) == 1 else sp.block_diag(systems, format="csr")
        if self._dim == 2:
            self._eigenvalues = np.stack([self._uncoupled[dm] for dm in d])[:, None]
            return
        # one solve per distinct d, of its members' rows
        rows = {dm: [b for b, db in enumerate(d) if db == dm] for dm in d}
        self._groups = [(self._uncoupled[dm][0], b) for dm, b in rows.items()]
        self._blocks = np.stack(self._corrections)
        self._columns = np.stack([self._uncoupled[dm][1] for dm in d])[:, None]

    def _coupling_terms(self, matching):
        """The rank-one terms of the coupling, shared by every member: per
        term its faces' slots and areas, its edge position ``at`` and pair
        i < j, the distinct positions with each term's rank among them, and
        ``W^T W`` (entries 0, +-1 and 2).  None without coupled faces."""
        n = self._n
        upper = matching.partner > np.arange(n)
        if not upper.any():
            return None
        f, i = np.nonzero(upper)
        key = (self._face_at[f] * n + i) * n + matching.partner[f, i]
        key, slot = np.unique(key, return_inverse=True)
        at, pair = np.divmod(key, n * n)
        i, j = np.divmod(pair, n)
        cells, rank = np.unique(at, return_inverse=True)
        # W^T W: each term's pair against every other's, from the table of the
        # distinct pairs' incidence products, one byte per entry
        pairs, first, which = np.unique(pair, return_index=True, return_inverse=True)
        incidence = np.zeros((pairs.size, n), dtype=np.int8)
        incidence[np.arange(pairs.size), i[first]] = 1
        incidence[np.arange(pairs.size), j[first]] = -1
        products = (incidence @ incidence.T).take(which, 0).take(which, 1)
        return SimpleNamespace(slot=slot, area=matching.domain.face_area[f], at=at, i=i, j=j,
                               cells=cells, rank=rank, products=products)

    def _capacitance(self, terms, greens, d, p, dt):
        """A member's correction: 1D ``U K^-1 U^T``; 2D ``K``'s factor and
        terms, or None.  ``greens`` caches the Green's block of each d."""
        if p == 0.0 or terms is None:
            return np.zeros((2 * self._n, 2 * self._n)) if self._dim == 1 else None
        weight = (dt * d * p / self._volume) * terms.area
        scale = np.sqrt(np.bincount(terms.slot, weights=weight))
        if d not in greens:
            greens[d] = self._green(terms.cells, d)
        # K = ((W^T W) * G) * (scale scale^T) + I, in one array, 64 rows at a time
        green, rank = greens[d], terms.rank
        capacitance = np.empty((rank.size, rank.size))
        for start in range(0, rank.size, 64):
            rows = slice(start, start + 64)
            np.multiply(green.take(rank[rows], 0).take(rank, 1), terms.products[rows],
                        out=capacitance[rows])
            capacitance[rows] *= np.multiply.outer(scale[rows], scale)
        capacitance[np.diag_indices_from(capacitance)] += 1.0
        factor = cholesky(capacitance)  # K = R^T R
        i, j, at = terms.i, terms.j, terms.at
        if self._dim == 2:
            return factor, (i, j, at, scale)
        # U^T on the end-cell values, ordered (neuron, end)
        ut = np.zeros((at.size, 2 * self._n))
        ut[np.arange(at.size), 2 * i + at] = scale
        ut[np.arange(at.size), 2 * j + at] = -scale
        half = sla.solve_triangular(factor, ut, trans="T", check_finite=False)
        return np.einsum("ti,tj->ij", half, half)  # no BLAS: thread-count free

    def _green(self, cells, d):
        """Green's block of ``S0`` (diffusion ``d``) at the distinct edge positions ``cells``."""
        if self._dim == 1:  # S0^-1 at the two end cells, read at the ends in ``cells``
            return self._uncoupled[d][1][:, [0, -1]][np.ix_(cells, cells)]
        # the 2D DCT of a unit value at grid cell (ix, iy) is an outer product:
        # the basis row ix of x times the basis row iy of y
        across, along = (b[at[cells]] for b, at in zip(self._basis, self._edge_cells))
        green = np.empty((cells.size, cells.size))
        spectra = np.empty((8, *self._grid))  # 8 cells at a time
        for start in range(0, cells.size, len(spectra)):
            stop = min(start + len(spectra), cells.size)
            spectrum = spectra[:stop - start]
            np.einsum("cx,cy->cxy", across[start:stop], along[start:stop], out=spectrum)
            spectrum /= self._uncoupled[d]
            green[start:stop] = self._edge_values(spectrum)[:, cells]
        return green

    def _edge_values(self, spectrum: np.ndarray) -> np.ndarray:
        """Edge values of the fields whose 2D DCT is ``spectrum`` (..., nx, ny)."""
        rows = self._fft.idct(self._ends_x.T @ spectrum, axis=-1, norm="ortho")
        cols = self._fft.idct(spectrum @ self._ends_y, axis=-2, norm="ortho")
        lead = spectrum.shape[:-2]
        return np.concatenate([rows.reshape(lead + (-1,)), cols.reshape(lead + (-1,))], -1)

    def _edge_spectrum(self, values: np.ndarray) -> np.ndarray:
        """2D DCT of the fields that equal ``values`` on the edges, 0 elsewhere."""
        nx, ny = self._grid
        lead = values.shape[:-1]
        rows = values[..., :2 * ny].reshape(lead + (2, ny))
        cols = values[..., 2 * ny:].reshape(lead + (nx, 2))
        return (self._ends_x @ self._fft.dct(rows, axis=-1, norm="ortho")
                + self._fft.dct(cols, axis=-2, norm="ortho") @ self._ends_y.T)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Member b's solution for the right-hand side ``b[b]``, as (B, N, n_cells)."""
        if self._dim == 2:
            return self._solve_2d(b)
        nc = b.shape[-1]
        if len(self._groups) == 1:  # one d: SuperLU's Fortran-ordered result, as is
            y = self._groups[0][0].solve(b.reshape(-1, nc).T).T.reshape(b.shape)
        else:
            y = np.empty_like(b)
            for factor, rows in self._groups:
                y[rows] = factor.solve(b[rows].reshape(-1, nc).T).T.reshape(-1, *b.shape[1:])
        # U K^-1 U^T of the end-cell values, then S0^-1 of that: per neuron a
        # combination of S0^-1's two end-cell columns
        ends = y[..., ::nc - 1].reshape(len(y), 1, -1)
        c = np.vecdot(self._blocks, ends).reshape(len(y), -1, 1, 2)
        y -= np.matmul(c, self._columns).reshape(y.shape)
        return y

    def _solve_2d(self, b):
        spectrum = self._fft.dctn(b.reshape(b.shape[:2] + self._grid), axes=(-2, -1),
                                  norm="ortho") / self._eigenvalues
        for k, member in enumerate(self._corrections):
            if member is None:
                continue
            factor, (i, j, at, scale) = member
            edges = self._edge_values(spectrum[k])
            # two triangular solves (LAPACK's potrs is ~2x slower at this size)
            z = sla.solve_triangular(factor, scale * (edges[i, at] - edges[j, at]),
                                     trans="T", check_finite=False)
            z = scale * sla.solve_triangular(factor, z, check_finite=False)
            # W z: +z at (i, c), -z at (j, c)
            coupling = np.zeros_like(edges)
            np.add.at(coupling, (i, at), z)
            np.subtract.at(coupling, (j, at), z)
            spectrum[k] -= self._edge_spectrum(coupling) / self._eigenvalues[k]
        return self._fft.idctn(spectrum, axes=(-2, -1), norm="ortho").reshape(b.shape)


class Integrator:
    """Prepared batch stepper: operators are assembled and solvers built once.

    ``params`` is a sequence of :class:`HRParameters`, one per batch member,
    or one of them for a batch of one.  :meth:`step` advances (B, N, cells)
    arrays whose member b follows ``params[b]``; members must resolve to the
    same step size and step count, and get the bits of their serial runs
    (differing parameters enter as (B, 1, 1) columns).  RK4 applies
    :func:`~hrnet.domain.apply_diffusion` to the batch at each stage; backward
    Euler solves it with one :class:`CapacitanceSolver`, every solve checked
    against the assembled system by the residual guard, and reuses one set of
    reaction buffers: an instance steps for one caller at a time.  ``domain``
    must describe the matching's grid (else a ValueError); a None matching
    couples no face.
    """

    def __init__(self, params, domain: Domain, matching, cfg: IntegratorConfig):
        members = (params,) if isinstance(params, HRParameters) else tuple(params)
        if not members:
            raise ValueError("an integrator needs at least one member")
        self.matching, self.cfg = run_matching(members, domain, matching), cfg
        steps = {resolve_dt(cfg, domain, m) for m in members}
        if len(steps) != 1:
            raise ValueError("batched members must share the step size and step count")
        ((self.dt, self.n_steps),) = steps
        d, p = [m.d for m in members], [m.p for m in members]
        self._solver = self._buffers = None
        if cfg.scheme == "imex-euler" and self.n_steps > 0:
            self._solver = CapacitanceSolver(self.matching, d, p, self.dt)
            # the step's reaction terms, reused: no returned state refers to them
            self._buffers = np.empty((3, len(members), self.matching.n_neurons, domain.n_cells))
        self._reaction = _member_constants(members, REACTION_FIELDS)
        self._coupling = _member_constants(members, ("d", "p"))

    def _rhs(self, u, v, w):
        # the model is autonomous: no term reads the state's time
        du, dv, dw = reaction_rhs(NetworkState(0.0, u, v, w), self._reaction)
        c = self._coupling
        return du + apply_diffusion(u, self.matching, c.d, c.p), dv, dw

    def _step_rk4(self, state: NetworkState):
        dt, y = self.dt, (state.u, state.v, state.w)
        k1 = self._rhs(*y)
        k2 = self._rhs(*(x + dt / 2 * k for x, k in zip(y, k1)))
        k3 = self._rhs(*(x + dt / 2 * k for x, k in zip(y, k2)))
        k4 = self._rhs(*(x + dt * k for x, k in zip(y, k3)))
        y2 = [x + dt / 6 * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(y, k1, k2, k3, k4)]
        return NetworkState(state.t + dt, *y2), {}

    def _step_imex(self, state: NetworkState):
        dt = self.dt
        du, dv, dw = reaction_rhs(state, self._reaction, out=self._buffers)
        v2 = state.v + dt * dv
        w2 = state.w + dt * dw
        du *= dt
        du += state.u  # u + dt du, in du's buffer: the solve's right-hand side
        u2 = self._solver.solve(du)
        rhs = du.reshape(du.shape[0], -1)
        residuals = (self._solver.system @ u2.ravel()).reshape(rhs.shape)
        residuals -= rhs
        # every member's squared residual and right-hand side norms, two row reductions
        residual = np.vecdot(residuals, residuals)
        scale = np.maximum(np.vecdot(rhs, rhs), 1.0)
        passed = residual <= self.cfg.linear_tol ** 2 * scale
        failed = () if passed.all() else np.flatnonzero(~passed).tolist()
        errors = {b: LinearSolveError(
            f"backward Euler solve at t={state.t:.6g}: residual {math.sqrt(residual[b]):.3e} "
            f"exceeds tolerance {self.cfg.linear_tol:.3e} (scale {math.sqrt(scale[b]):.3e})")
            for b in failed}
        return NetworkState(state.t + dt, u2, v2, w2), errors

    def step(self, state: NetworkState):
        """Advance the batch ``state`` of (B, N, cells) arrays by one step.

        Returns ``(state, errors)``: ``errors`` maps the batch position of
        each member whose implicit solve failed the residual guard to its
        :class:`LinearSolveError`; the returned state is valid for every
        other member whose values are all finite.  The caller checks the
        state's health, and a member whose new state is non-finite failed
        integration, whatever the guard said.  A run of zero steps
        (``t_end = 0``) prepares no solver and has nothing to step: it
        raises :class:`ValueError`.
        """
        if self.n_steps == 0:
            raise ValueError("nothing to step: t_end = 0 gives a run of zero steps")
        if self.cfg.scheme == "explicit-rk4":
            return self._step_rk4(state)
        return self._step_imex(state)


@dataclass
class SimulationResult:
    """Raw output of one run: final state plus whatever the observer returned."""

    state: NetworkState
    times: list = field(default_factory=list)
    rows: list = field(default_factory=list)


def simulate(ic, params: HRParameters, domain: Domain, matching,
             cfg: IntegratorConfig, observer=None) -> SimulationResult:
    """Integrate to t_end, sampling the observer every record_every steps.

    ``ic`` is an InitialCondition or a prebuilt NetworkState (taken as t=0
    data).  The observer is called with each recorded state (including the
    initial one and the final step) and its return values are collected in
    order.  A non-finite state aborts with :class:`IntegrationError`
    carrying the failure time, the largest finite |u| seen, and the rows
    recorded so far, so partial output can still be flushed; otherwise a
    failed implicit solve raises :class:`LinearSolveError` with those rows
    attached.  ``domain`` must describe the matching's grid (else a
    ValueError).  This is the one-member case of :func:`simulate_ensemble`.
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
    or the :class:`~hrnet.errors.RunFailure` it failed with, rows attached; a
    failed member keeps its slot in the batch, unobserved, and the others go
    on.  Every member is bitwise equal to its own serial run.

    Members that resolve to one step size and step count form one batch;
    batches run one after another.  ``domain`` must describe the matching's
    grid and a prebuilt state be (N, n_cells) on it, else a ValueError.
    """
    params_list = list(params_list)
    observers = [None] * len(params_list) if observers is None else list(observers)
    if not len(ics) == len(params_list) == len(observers):
        raise ValueError("need one initial condition, parameter set and observer per member")
    # with one network size and grid, each initial condition is checked or made
    # (a file read) once, before any solver is built, so bad initial data fail first
    matching = run_matching(params_list, domain, matching)
    made = {}
    for ic, params in zip(ics, params_list):
        if isinstance(ic, NetworkState):
            shape = (params.n_neurons, domain.n_cells)
            for name, found in zip("uvw", map(np.shape, (ic.u, ic.v, ic.w))):
                if found != shape:
                    raise ValueError(f"initial state {name} has shape {found}, expected {shape}")
        elif id(ic) not in made:
            made[id(ic)] = initial_state(ic, domain, params.n_neurons)
    starts = [ic if isinstance(ic, NetworkState) else made[id(ic)] for ic in ics]
    batches = {}
    for b, params in enumerate(params_list):
        batches.setdefault(resolve_dt(cfg, domain, params), []).append(b)
    results = [None] * len(params_list)
    for members in batches.values():
        _run_batch(members, starts, params_list, matching, cfg, observers, results)
    return results


def _member(state: NetworkState, i: int) -> NetworkState:
    return NetworkState(state.t, state.u[i], state.v[i], state.w[i])


def _observe(observer, state: NetworkState, i: int):
    return observer(_member(state, i)) if observer is not None else None


def _run_batch(members, starts, params_list, matching, cfg, observers, results):
    """The time loop of one batch; writes each member's outcome into ``results``.

    One stepper serves the whole run.  A failed member keeps its slot, unobserved:
    its error, with its rows, is recorded the first time, and later ones are not.
    """
    stepper = Integrator([params_list[b] for b in members], matching.domain, matching, cfg)
    # C-contiguous (B, N, cells) copies: the inputs are never mutated
    state = NetworkState(0.0, *(np.stack([getattr(starts[b], name) for b in members])
                                for name in ("u", "v", "w")))
    # exact, accumulation-free timestamps
    times = [0.0]
    rows = [[_observe(observers[b], state, i)] for i, b in enumerate(members)]
    failed = set()
    # |u| seen so far, cell by cell; a member's largest is reduced when it fails
    seen = np.abs(state.u)
    scratch = np.empty_like(seen)
    # a diverging state shows up as inf/nan and is reported, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, stepper.n_steps + 1):
            state, errors = stepper.step(state)
            state.t = k * stepper.dt
            # inf or nan anywhere makes the sum non-finite (an overflow only costs the exact test)
            if not math.isfinite(state.u.sum() + state.v.sum() + state.w.sum()):
                finite = np.all([np.isfinite(x).all(axis=(1, 2))
                                 for x in (state.u, state.v, state.w)], axis=0)
                for i in np.flatnonzero(~finite).tolist():  # replaces any guard error
                    errors[i] = IntegrationError(state.t, float(seen[i].max()))
            for i, err in errors.items():
                if i not in failed:
                    failed.add(i)
                    err.rows = rows[i]
                    results[members[i]] = err
                # zeros keep the health check on its one-sum path; nothing reads them
                state.u[i] = state.v[i] = state.w[i] = 0.0
            if len(failed) == len(members):
                return
            np.maximum(seen, np.abs(state.u, out=scratch), out=seen)
            if k % cfg.record_every == 0 or k == stepper.n_steps:
                times.append(state.t)
                for i, b in enumerate(members):
                    if i not in failed:
                        rows[i].append(_observe(observers[b], state, i))
    for i, b in enumerate(members):
        if i not in failed:
            results[b] = SimulationResult(state=_member(state, i), times=list(times),
                                          rows=rows[i])
