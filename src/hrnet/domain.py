"""Spatial grid, boundary matching, diffusion operator and Poincare constants.

The domain is an interval or an axis-aligned rectangle, discretized with a
uniform cell-centered grid.  Boundary coupling is expressed per boundary
face by an involution on neuron indices: at each face, neuron i exchanges
flux with neuron partner(i), and partner(partner(i)) = i always.  A neuron
matched to itself has a zero-flux face there.

All operators fix their summation order, so results are reproducible
bit-for-bit regardless of call context.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import MatchingError

_SIDES_1D = {"left": (0, 0), "right": (0, 1)}
_SIDES_2D = {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}


@dataclass(frozen=True, eq=False)
class Domain:
    """Uniform cell-centered grid on an interval or rectangle.

    ``face_*`` arrays enumerate boundary faces axis-major, low side before
    high side, in increasing order of the transverse coordinate.  In 1D a
    face is an endpoint and carries counting-measure area 1; in 2D the face
    area is the cell width along the edge and ``face_pos`` is the transverse
    center coordinate, used to select faces by arc-length span.
    """

    dim: int
    extents: tuple
    cells: tuple
    h: tuple
    cell_volume: float
    omega_measure: float
    n_cells: int
    face_cell: np.ndarray
    face_axis: np.ndarray
    face_side: np.ndarray
    face_area: np.ndarray
    face_pos: np.ndarray

    @property
    def n_faces(self) -> int:
        return self.face_cell.shape[0]

    @property
    def boundary_measure(self) -> float:
        return float(np.sum(self.face_area))

    def cell_center_coords(self) -> tuple:
        """Per-axis center coordinate of every cell, each shaped (n_cells,)."""
        axes = [
            (np.arange(n) + 0.5) * hk for n, hk in zip(self.cells, self.h)
        ]
        if self.dim == 1:
            return (axes[0],)
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return gx.ravel(), gy.ravel()


def build_domain(dim: int, extents, cells) -> Domain:
    """Construct the grid; rejects 3D and degenerate shapes.

    Flat cell index runs x-major in 2D: ``cell = ix * ny + iy``.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim} (3D domains are out of scope)")
    extents = tuple(float(e) for e in extents)
    cells = tuple(int(n) for n in cells)
    if len(extents) != dim or len(cells) != dim:
        raise ValueError(f"extents and cells must each have {dim} entries")
    for e in extents:
        if not (math.isfinite(e) and e > 0):
            raise ValueError(f"extents must be positive and finite, got {e!r}")
    for n in cells:
        if n < 4:
            raise ValueError(f"cells_per_axis must be >= 4, got {n}")
    h = tuple(e / n for e, n in zip(extents, cells))
    cell_volume = math.prod(h)
    n_cells = math.prod(cells)
    if n_cells > np.iinfo(np.intp).max:
        raise ValueError(f"a grid of {n_cells} cells is too large to index")
    omega_measure = n_cells * cell_volume

    face_cell, face_axis, face_side, face_area, face_pos = [], [], [], [], []
    if dim == 1:
        (nx,) = cells
        for side, cell in ((0, 0), (1, nx - 1)):
            face_cell.append(cell)
            face_axis.append(0)
            face_side.append(side)
            face_area.append(1.0)
            face_pos.append(0.0 if side == 0 else extents[0])
    else:
        nx, ny = cells
        hx, hy = h
        for axis in (0, 1):
            for side in (0, 1):
                if axis == 0:
                    ix = 0 if side == 0 else nx - 1
                    for iy in range(ny):
                        face_cell.append(ix * ny + iy)
                        face_axis.append(axis)
                        face_side.append(side)
                        face_area.append(hy)
                        face_pos.append((iy + 0.5) * hy)
                else:
                    iy = 0 if side == 0 else ny - 1
                    for ix in range(nx):
                        face_cell.append(ix * ny + iy)
                        face_axis.append(axis)
                        face_side.append(side)
                        face_area.append(hx)
                        face_pos.append((ix + 0.5) * hx)

    return Domain(
        dim=dim,
        extents=extents,
        cells=cells,
        h=h,
        cell_volume=cell_volume,
        omega_measure=omega_measure,
        n_cells=n_cells,
        face_cell=np.asarray(face_cell, dtype=np.intp),
        face_axis=np.asarray(face_axis, dtype=np.int8),
        face_side=np.asarray(face_side, dtype=np.int8),
        face_area=np.asarray(face_area, dtype=np.float64),
        face_pos=np.asarray(face_pos, dtype=np.float64),
    )


@dataclass(frozen=True, eq=False)
class BoundaryMatching:
    """Per-face involution on neuron indices (0-based internally).

    ``partner[f, i] = j`` means neuron i exchanges boundary flux with neuron
    j at face f; ``partner[f, i] = i`` is a zero-flux face for neuron i.
    Carries the face geometry (areas and owning cells) so boundary
    observables can be computed from a matching alone.
    """

    partner: np.ndarray
    face_area: np.ndarray
    face_cell: np.ndarray
    n_neurons: int

    def __post_init__(self):
        n_faces = self.face_area.shape[0]
        if self.face_cell.shape != (n_faces,):
            raise MatchingError("face_cell must have one entry per boundary face")
        if self.partner.shape != (n_faces, self.n_neurons):
            raise MatchingError(
                f"partner table must have shape ({n_faces}, {self.n_neurons}), "
                f"got {self.partner.shape}"
            )
        if self.partner.min(initial=0) < 0 or self.partner.max(initial=0) >= self.n_neurons:
            raise MatchingError("partner indices out of range")
        idx = np.arange(self.n_neurons)
        back = np.take_along_axis(self.partner, self.partner, axis=1)
        if not np.array_equal(back, np.broadcast_to(idx, self.partner.shape)):
            f, i = np.argwhere(back != idx)[0]
            raise MatchingError(
                f"matching is not an involution: at face {f}, neuron {i + 1} maps to "
                f"{self.partner[f, i] + 1} which maps back to {back[f, i] + 1}"
            )

    @functools.cached_property
    def matched_pairs(self) -> tuple:
        """Pairs (i, j), i < j, matched on at least one face, in row-major order."""
        n = self.n_neurons
        owner = np.broadcast_to(np.arange(n), self.partner.shape)
        above = self.partner > owner
        codes = np.unique(owner[above] * n + self.partner[above])
        return tuple(divmod(int(code), n) for code in codes)


def trivial_matching(domain: Domain, n_neurons: int) -> BoundaryMatching:
    """All faces zero-flux for every neuron."""
    partner = np.broadcast_to(
        np.arange(n_neurons, dtype=np.intp), (domain.n_faces, n_neurons)
    ).copy()
    return BoundaryMatching(partner=partner, face_area=domain.face_area,
                            face_cell=domain.face_cell, n_neurons=n_neurons)


def parse_pairs(text) -> list:
    """Parse a pair list like ``1-2, 3-3`` into 1-based index tuples.

    Also accepts an iterable of (i, j) tuples, passed through unchanged.
    """
    if not isinstance(text, str):
        return [(int(i), int(j)) for i, j in text]
    pairs = []
    body = text.strip()
    if not body:
        return pairs
    for chunk in body.split(","):
        chunk = chunk.strip()
        parts = chunk.split("-")
        if len(parts) != 2:
            raise MatchingError(f"malformed pair {chunk!r}: expected 'i-j'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise MatchingError(f"malformed pair {chunk!r}: indices must be integers") from None
    return pairs


def _segment_faces(segment, domain: Domain, label: str) -> np.ndarray:
    sides = _SIDES_1D if domain.dim == 1 else _SIDES_2D
    side_name = str(segment.get("side", "")).strip().lower()
    if side_name not in sides:
        raise MatchingError(
            f"{label}: unknown side {side_name!r} for a {domain.dim}D domain "
            f"(expected one of {sorted(sides)})"
        )
    axis, side = sides[side_name]
    mask = (domain.face_axis == axis) & (domain.face_side == side)
    span = segment.get("span")
    if span is not None:
        if domain.dim == 1:
            raise MatchingError(f"{label}: span is only meaningful on 2D edges")
        lo, hi = float(span[0]), float(span[1])
        if not lo < hi:
            raise MatchingError(f"{label}: span must satisfy lo < hi, got ({lo}, {hi})")
        mask &= (domain.face_pos >= lo) & (domain.face_pos < hi)
    faces = np.flatnonzero(mask)
    if faces.size == 0:
        raise MatchingError(f"{label}: segment selects no boundary faces")
    return faces


def parse_matching(segments, domain: Domain, n_neurons: int) -> BoundaryMatching:
    """Assemble the boundary involution from segment descriptors.

    Each segment is a mapping with keys ``side`` (left/right, plus bottom/top
    in 2D), optional ``span`` = (lo, hi) selecting an arc-length interval of
    the 2D edge, and ``pairs``: a text pair list with 1-based neuron labels
    (``1-2, 3-3``) or an iterable of tuples.  Neurons unlisted at a face are
    zero-flux there, as are all faces no segment covers.

    Raises :class:`MatchingError` for overlapping segments, indices out of
    range, or a neuron listed twice at one segment.
    """
    if n_neurons < 2:
        raise MatchingError("a matching needs at least 2 neurons")
    partner = np.broadcast_to(
        np.arange(n_neurons, dtype=np.intp), (domain.n_faces, n_neurons)
    ).copy()
    claimed = np.zeros(domain.n_faces, dtype=bool)
    for k, segment in enumerate(segments):
        label = segment.get("label") or f"segment {k + 1}"
        faces = _segment_faces(segment, domain, label)
        if claimed[faces].any():
            raise MatchingError(f"{label}: overlaps a previously configured segment")
        claimed[faces] = True
        seen = set()
        for i1, j1 in parse_pairs(segment.get("pairs", "")):
            for idx in (i1, j1):
                if not 1 <= idx <= n_neurons:
                    raise MatchingError(
                        f"{label}: neuron index {idx} out of range 1..{n_neurons}"
                    )
            new = {i1, j1}
            if seen & new:
                raise MatchingError(
                    f"{label}: neuron {sorted(seen & new)[0]} appears in two pairs; "
                    f"the matching must be an involution"
                )
            seen |= new
            i, j = i1 - 1, j1 - 1
            partner[faces, i] = j
            partner[faces, j] = i
    return BoundaryMatching(partner=partner, face_area=domain.face_area,
                            face_cell=domain.face_cell, n_neurons=n_neurons)


def full_boundary_matching(domain: Domain, n_neurons: int, pairs) -> BoundaryMatching:
    """Matching with one pair list applied uniformly on the whole boundary."""
    if domain.dim == 1:
        segments = [{"side": "left", "pairs": pairs}, {"side": "right", "pairs": pairs}]
    else:
        segments = [{"side": s, "pairs": pairs} for s in ("left", "right", "bottom", "top")]
    return parse_matching(segments, domain, n_neurons)


def apply_diffusion(
    u_all: np.ndarray,
    domain: Domain,
    matching,
    d: float,
    p: float,
) -> np.ndarray:
    """Finite-volume diffusion with boundary-coupling fluxes.

    ``u_all`` has shape (N, n_cells), or (B, N, n_cells) for a batch whose
    member b has its own ``d[b]`` and ``p[b]``, given as (B, 1, 1) columns
    (or scalars shared by every member).  Interior face flux is
    d (u_next - u_cell) / h * area; a boundary face matched to neuron j
    contributes d p (u_j - u_i) * area; each cell's net flux is divided by
    the cell volume, and a cell's faces are added in face order.  Fixed-point
    faces contribute exactly zero.  The arithmetic is elementwise, so every
    batch member gets the bits of its own (N, n_cells) call.
    """
    u_all = np.asarray(u_all, dtype=np.float64)
    if u_all.ndim not in (2, 3) or u_all.shape[-1] != domain.n_cells:
        raise ValueError(
            f"u_all must have shape ([B,] N, {domain.n_cells}), got {u_all.shape}"
        )
    out = np.zeros_like(u_all)
    vol = domain.cell_volume

    g = u_all.reshape(u_all.shape[:-1] + domain.cells)
    og = out.reshape(g.shape)
    if domain.dim == 1:
        (hx,) = domain.h
        flux = (d / (hx * vol)) * (g[..., 1:] - g[..., :-1])  # already times area (=1)
        og[..., :-1] += flux
        og[..., 1:] -= flux
    else:
        hx, hy = domain.h
        dg = np.reshape(d, np.shape(d) + (1,))  # per-member columns span both axes
        fx = (dg * hy / (hx * vol)) * (g[..., 1:, :] - g[..., :-1, :])
        og[..., :-1, :] += fx
        og[..., 1:, :] -= fx
        fy = (dg * hx / (hy * vol)) * (g[..., :, 1:] - g[..., :, :-1])
        og[..., :, :-1] += fy
        og[..., :, 1:] -= fy

    if matching is not None and np.any(p != 0.0):
        fc = domain.face_cell
        coef = (d * p / vol) * domain.face_area
        uf = u_all[..., fc]  # ([B,] N, F)
        partner = uf[..., matching.partner.T, np.arange(fc.shape[0])]
        # ufunc.at applies repeated cells one after another, in face order
        np.add.at(out, (..., fc), coef * (partner - uf))
    return out


def integrate_domain(field: np.ndarray, domain: Domain):
    """Midpoint quadrature: sum of values times cell volume.

    Accepts a single field (returns a float) or a stack of fields over the
    last axis (returns an array of integrals).
    """
    field = np.asarray(field)
    if field.shape[-1] != domain.n_cells:
        raise ValueError(f"field must have {domain.n_cells} cells, got {field.shape}")
    total = np.sum(field, axis=-1) * domain.cell_volume
    return float(total) if field.ndim == 1 else total


def integrate_boundary_pair(f_faces: np.ndarray, matching: BoundaryMatching, i: int, j: int):
    """Integrate per-face values over the faces where neuron i is matched to j.

    Indices are 0-based.  ``i == j`` integrates over the zero-flux faces of
    neuron i (legal; usually the zero function).
    """
    f_faces = np.asarray(f_faces)
    if f_faces.shape[-1] != matching.face_area.shape[0]:
        raise ValueError("f_faces must have one value per boundary face")
    mask = matching.partner[:, i] == j
    return float(np.sum(f_faces[..., mask] * matching.face_area[mask], axis=-1))


def _axis_eigenvalues(n: int, h: float) -> np.ndarray:
    # spectrum of -_axis_laplacian(n, h), eigenvector k the DCT-II mode k
    return (2.0 * np.sin(np.pi * np.arange(n) / (2 * n)) / h) ** 2


def _axis_laplacian(n: int, h: float) -> sp.csr_matrix:
    # zero-flux second-difference operator, negative semidefinite
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (h * h)


def neumann_laplacian(domain: Domain) -> sp.csr_matrix:
    """Discrete zero-flux Laplacian on the grid (matches apply_diffusion at d=1, p=0)."""
    if domain.dim == 1:
        return _axis_laplacian(domain.cells[0], domain.h[0])
    nx, ny = domain.cells
    hx, hy = domain.h
    lx = _axis_laplacian(nx, hx)
    ly = _axis_laplacian(ny, hy)
    return (sp.kron(lx, sp.identity(ny)) + sp.kron(sp.identity(nx), ly)).tocsr()


def network_diffusion_matrix(
    domain: Domain, matching, d: float, p: float, n_neurons: int
) -> sp.csr_matrix:
    """Joint operator on the stacked u-fields: block diffusion plus coupling.

    Acts on a vector of length N * n_cells laid out neuron-major; equals
    apply_diffusion as a linear map.  A face matching neuron i to j adds its
    flux coefficient at (i, j) and subtracts it at (i, i) of its cell; a
    corner cell's two faces are summed in face order.
    """
    nc = domain.n_cells
    n_total = n_neurons * nc
    lap = (d * neumann_laplacian(domain)).tocoo()
    offsets = (np.arange(n_neurons) * nc)[:, None]
    rows = (offsets + lap.row).ravel()
    cols = (offsets + lap.col).ravel()
    data = np.tile(lap.data, n_neurons)
    if p != 0.0 and matching is not None:
        f, i = np.nonzero(matching.partner != np.arange(n_neurons))  # face-major
        coef = ((d * p / domain.cell_volume) * domain.face_area)[f]
        row = i * nc + domain.face_cell[f]
        col = matching.partner[f, i] * nc + domain.face_cell[f]
        # ufunc.at applies repeated indices one after another, in face order
        diagonal = np.empty(n_total, dtype=np.intp)
        on_diagonal = np.flatnonzero(rows == cols)
        diagonal[rows[on_diagonal]] = on_diagonal
        np.subtract.at(data, diagonal[row], coef)
        keys, slot = np.unique(row * n_total + col, return_inverse=True)
        coupling = np.zeros(keys.size)
        np.add.at(coupling, slot, coef)
        rows = np.concatenate([rows, keys // n_total])
        cols = np.concatenate([cols, keys % n_total])
        data = np.concatenate([data, coupling])
    # positions are distinct, so the conversion only sorts and sums nothing
    return sp.csr_matrix((data, (rows, cols)), shape=(n_total, n_total))


class CapacitanceSolver:
    """Exact solver of the 2D backward Euler system ``I - dt A``, where ``A``
    is :func:`network_diffusion_matrix` of the same arguments.

    The system splits into the uncoupled part ``S0 = I - dt d L``, one block
    per neuron, plus a rank-one term ``dt coef_f w w^T`` with
    ``w = e_(i,c) - e_(j,c)`` per face f and pair i < j matched there (c is
    the face's cell; terms of one cell and pair are merged).  ``S0`` is
    diagonalized by the orthonormal 2D DCT-II.  The terms are corrected for
    with the capacitance matrix ``K = I + U^T S0^-1 U``, ``U = W D^1/2`` (the
    matrix ``D^-1 + W^T S0^-1 W`` scaled by ``D^1/2`` on both sides), which
    is symmetric positive definite for p >= 0 and d > 0 and is
    Cholesky-factored once (Buzbee, Golub & Nielson 1970; Proskurowski &
    Widlund 1976).

    Coupled cells lie on the first and last row and column of the grid, and
    on those "edges" the DCT needs no full transform: a field that is zero
    off the edges has a rank-four spectrum, and the values of a field on the
    edges are four rows of partial inverse transforms.  A solve is therefore
    one forward and one inverse 2D DCT plus edge work and one small dense
    solve, and the Green's block of ``S0`` on the coupled cells costs no full
    transform at all.

    ``solve`` takes a vector of length N * n_cells laid out like the
    operator, or a matrix of such columns, as a SuperLU factorization does.
    """

    # unit vectors per batch when building the Green's block
    GREEN_CHUNK = 32

    def __init__(self, domain: Domain, matching, d: float, p: float,
                 n_neurons: int, dt: float):
        if domain.dim != 2:
            raise ValueError("the DCT solver is for 2D grids")
        # imported here, on first 2D use: 1D runs never need its memory
        import scipy.fft

        self._fft = scipy.fft
        (nx, ny), (hx, hy) = domain.cells, domain.h
        kx, ky = _axis_eigenvalues(nx, hx), _axis_eigenvalues(ny, hy)
        self._eigenvalues = 1.0 + dt * d * (kx[:, None] + ky[None, :])
        self._shape = (n_neurons, nx, ny)
        # DCT-II basis vectors evaluated at the first and last cell of an axis
        self._ends_x = scipy.fft.dct(np.eye(nx)[:, [0, nx - 1]], axis=0, norm="ortho")
        self._ends_y = scipy.fft.dct(np.eye(ny)[:, [0, ny - 1]], axis=0, norm="ortho")
        self._terms = None
        if p == 0.0 or matching is None:
            return
        f, i = np.nonzero(matching.partner > np.arange(n_neurons))
        weight = (dt * d * p / domain.cell_volume) * domain.face_area[f]
        key = (domain.face_cell[f] * n_neurons + i) * n_neurons + matching.partner[f, i]
        key, slot = np.unique(key, return_inverse=True)
        cell, pair = np.divmod(key, n_neurons * n_neurons)
        i, j = np.divmod(pair, n_neurons)
        scale = np.sqrt(np.bincount(slot, weights=weight))
        # edge position of each term's cell: the first and last row, then the
        # first and last column (corner cells count as row cells)
        ix, iy = np.divmod(cell, ny)
        side_x, side_y = (ix == nx - 1).astype(np.intp), (iy == ny - 1).astype(np.intp)
        at = np.where((ix == 0) | (ix == nx - 1), side_x * ny + iy, 2 * ny + 2 * ix + side_y)
        # Green's block of S0 on the coupled cells, chunked to bound memory
        cells, rank = np.unique(at, return_inverse=True)
        green = np.empty((cells.size, cells.size))
        for start in range(0, cells.size, self.GREEN_CHUNK):
            chunk = cells[start:start + self.GREEN_CHUNK]
            units = np.zeros((chunk.size, 2 * (nx + ny)))
            units[np.arange(chunk.size), chunk] = 1.0
            solved = self._edge_values(self._edge_spectrum(units) / self._eigenvalues)
            green[start:start + chunk.size] = solved[:, cells]
        incidence = np.zeros((key.size, n_neurons))
        incidence[np.arange(key.size), i] = 1.0
        incidence[np.arange(key.size), j] = -1.0
        capacitance = ((incidence @ incidence.T) * green[np.ix_(rank, rank)]
                       * np.outer(scale, scale))
        capacitance[np.diag_indices_from(capacitance)] += 1.0
        self._cholesky = sla.cholesky(capacitance)  # upper triangular R, K = R^T R
        self._terms = (i, j, at, scale)

    def _edge_values(self, spectrum: np.ndarray) -> np.ndarray:
        """Edge values of the fields whose 2D DCT is ``spectrum`` (..., nx, ny)."""
        rows = self._fft.idct(self._ends_x.T @ spectrum, axis=-1, norm="ortho")
        cols = self._fft.idct(spectrum @ self._ends_y, axis=-2, norm="ortho")
        lead = spectrum.shape[:-2]
        return np.concatenate([rows.reshape(lead + (-1,)), cols.reshape(lead + (-1,))],
                              axis=-1)

    def _edge_spectrum(self, values: np.ndarray) -> np.ndarray:
        """2D DCT of the fields that equal ``values`` on the edges, 0 elsewhere."""
        _, nx, ny = self._shape
        lead = values.shape[:-1]
        rows = values[..., :2 * ny].reshape(lead + (2, ny))
        cols = values[..., 2 * ny:].reshape(lead + (nx, 2))
        return (self._ends_x @ self._fft.dct(rows, axis=-1, norm="ortho")
                + self._fft.dct(cols, axis=-2, norm="ortho") @ self._ends_y.T)

    def _solve_vector(self, b: np.ndarray) -> np.ndarray:
        b = np.ascontiguousarray(b, dtype=np.float64).reshape(self._shape)
        spectrum = self._fft.dctn(b, axes=(-2, -1), norm="ortho") / self._eigenvalues
        if self._terms is not None:
            i, j, at, scale = self._terms
            edges = self._edge_values(spectrum)
            # two triangular solves (LAPACK's potrs is ~2x slower at this size)
            z = sla.solve_triangular(self._cholesky, scale * (edges[i, at] - edges[j, at]),
                                     trans="T", check_finite=False)
            z = scale * sla.solve_triangular(self._cholesky, z, check_finite=False)
            # W z: +z at (i, c), -z at (j, c)
            coupling = np.zeros_like(edges)
            np.add.at(coupling, (i, at), z)
            np.subtract.at(coupling, (j, at), z)
            spectrum -= self._edge_spectrum(coupling) / self._eigenvalues
        return self._fft.idctn(spectrum, axes=(-2, -1), norm="ortho").ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        if b.ndim == 1:
            return self._solve_vector(b)
        return np.stack([self._solve_vector(column) for column in b.T], axis=1)


@dataclass(frozen=True)
class PoincareConstants:
    """First nonzero Neumann eigenvalue and its measure-normalized companion.

    Both modes are closed forms, so ``iterations`` and ``residual`` are 0.
    """

    eta1: float
    eta2: float
    mode: str
    iterations: int = 0
    residual: float = 0.0


def poincare_constants(domain: Domain, mode: str = "discrete") -> PoincareConstants:
    """eta1 = first nonzero eigenvalue of the zero-flux Laplacian; eta2 = eta1/|Omega|.

    ``discrete`` is the exact eigenvalue of the grid operator
    :func:`neumann_laplacian`, min over the axes of (2 sin(pi/2n) / h)^2
    (its eigenvectors are the DCT-II modes); ``analytic`` is the continuum
    value (pi / longest extent)^2.
    """
    if mode == "analytic":
        eta1 = (math.pi / max(domain.extents)) ** 2
    elif mode == "discrete":
        eta1 = min(float(_axis_eigenvalues(n, h)[1]) for n, h in zip(domain.cells, domain.h))
    else:
        raise ValueError(f"mode must be 'discrete' or 'analytic', got {mode!r}")
    return PoincareConstants(eta1=eta1, eta2=eta1 / domain.omega_measure, mode=mode)
