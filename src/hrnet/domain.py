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
import scipy.sparse as sp

from .errors import MatchingError

# the named sides of an interval and a rectangle, by dimension: name -> (axis, low 0 / high 1)
_SIDES = {1: {"left": (0, 0), "right": (0, 1)},
          2: {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}}


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

    @functools.cached_property
    def poincare(self) -> dict:
        """:func:`poincare_constants` of each eta mode, evaluated once."""
        eta1 = {"discrete": min(float(_axis_eigenvalues(n, h)[1])
                                for n, h in zip(self.cells, self.h)),
                "analytic": (math.pi / max(self.extents)) ** 2}
        return {mode: PoincareConstants(x, x / self.omega_measure) for mode, x in eta1.items()}

    def cell_center_coords(self) -> tuple:
        """Per-axis center coordinate of every cell, each shaped (n_cells,)."""
        axes = [(np.arange(n) + 0.5) * hk for n, hk in zip(self.cells, self.h)]
        return tuple(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))


def build_domain(dim: int, extents, cells) -> Domain:
    """Construct the grid; rejects 3D and degenerate shapes, and a grid whose
    cell volume, |Omega| or Poincare constants leave float range.

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

    # faces axis-major, low side first, each side in increasing transverse position
    if dim == 1:
        face_cell, face_axis, face_side = [0, cells[0] - 1], [0, 0], [0, 1]
        face_area, face_pos = [1.0, 1.0], [0.0, extents[0]]
    else:
        (nx, ny), (hx, hy) = cells, h
        ix, iy = np.arange(nx), np.arange(ny)
        face_cell = np.concatenate([iy, (nx - 1) * ny + iy, ix * ny, ix * ny + ny - 1])
        face_axis = np.repeat([0, 1], [2 * ny, 2 * nx])
        face_side = np.repeat([0, 1, 0, 1], [ny, ny, nx, nx])
        face_area = np.repeat([hy, hx], [2 * ny, 2 * nx])
        face_pos = np.concatenate([np.tile((iy + 0.5) * hy, 2), np.tile((ix + 0.5) * hx, 2)])

    domain = Domain(
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
    # float ** and / raise where numpy gives inf or nan: an analytic eta1 past
    # float range, or eta2 on |Omega| = 0
    try:
        with np.errstate(over="ignore"):
            etas = [eta for pc in domain.poincare.values() for eta in (pc.eta1, pc.eta2)]
    except ArithmeticError:
        etas = [math.inf]
    if not all(0.0 < x < math.inf for x in (cell_volume, omega_measure, *etas)):
        raise ValueError(f"extents {extents} on cells {cells} leave float range: the cell "
                         f"volume, |Omega|, eta1 and eta2 must be finite and > 0")
    return domain


@dataclass(frozen=True, eq=False)
class BoundaryMatching:
    """Per-face involution on neuron indices (0-based internally), on the
    ``domain`` whose boundary faces it matches.

    ``partner[f, i] = j`` means neuron i exchanges boundary flux with neuron
    j at face f; ``partner[f, i] = i`` is a zero-flux face for neuron i.
    """

    partner: np.ndarray
    domain: Domain

    def __post_init__(self):
        if self.partner.ndim != 2 or self.partner.shape[0] != self.domain.n_faces:
            raise MatchingError(f"partner table must have one row per boundary face "
                                f"({self.domain.n_faces}), got shape {self.partner.shape}")
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

    @property
    def n_neurons(self) -> int:
        return self.partner.shape[1]

    @functools.cached_property
    def matched_pairs(self) -> tuple:
        """Pairs (i, j), i < j, matched on at least one face, in row-major order."""
        n = self.n_neurons
        owner = np.broadcast_to(np.arange(n), self.partner.shape)
        above = self.partner > owner
        codes = np.unique(owner[above] * n + self.partner[above])
        return tuple(divmod(int(code), n) for code in codes)

    @functools.cached_property
    def partner_index(self) -> np.ndarray:
        """(N, F): where neuron i's partner at face f sits in flat (N, F) face values."""
        return self.partner.T * self.domain.n_faces + np.arange(self.domain.n_faces)

    @functools.cached_property
    def face_groups(self) -> tuple:
        """``matched_pairs`` grouped by face count: per group the pairs' positions,
        then one row per pair of the faces where i is matched to j, as i's
        places in flat (N, F) face values, and of those faces' areas."""
        faces = [np.flatnonzero(self.partner[:, i] == j) for i, j in self.matched_pairs]
        owners = np.array([i for i, _ in self.matched_pairs]) * self.domain.n_faces
        counts = np.array([f.size for f in faces])
        ats = [np.flatnonzero(counts == count) for count in np.unique(counts)]
        rows = [np.array([faces[k] for k in at]) for at in ats]
        return tuple((at, owners[at, None] + r, self.domain.face_area[r]) for at, r in zip(ats, rows))


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
    sides = _SIDES[domain.dim]
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
    return BoundaryMatching(partner=partner, domain=domain)


def full_boundary_matching(domain: Domain, n_neurons: int, pairs) -> BoundaryMatching:
    """Matching with one pair list applied uniformly on the whole boundary."""
    segments = [{"side": side, "pairs": pairs} for side in _SIDES[domain.dim]]
    return parse_matching(segments, domain, n_neurons)


def run_matching(members, domain: Domain, matching) -> BoundaryMatching:
    """A run's matching, every face self-matched for None.  Members and matching
    must share one network size, and ``domain`` must be the matching's grid:
    dim, extents and cells compared by value, so that grids built apart or
    unpickled agree.  Else a ValueError."""
    sizes = sorted({m.n_neurons for m in [*members, matching] if m is not None})
    if len(sizes) > 1:
        raise ValueError(f"members and matching must share one network size, got n_neurons {sizes}")
    if matching is None:
        return parse_matching([], domain, sizes[0]) if sizes else None
    grid = matching.domain
    if (domain.dim, domain.extents, domain.cells) != (grid.dim, grid.extents, grid.cells):
        raise ValueError(f"a run's grid is its matching's: domain cells {domain.cells} on extents "
                         f"{domain.extents}, matching cells {grid.cells} on extents {grid.extents}")
    return matching


def apply_diffusion(u_all: np.ndarray, matching: BoundaryMatching, d: float, p: float) -> np.ndarray:
    """Finite-volume diffusion with boundary-coupling fluxes on the matching's
    grid and network.

    ``u_all`` has shape (N, n_cells), or (B, N, n_cells) for a batch whose
    member b has its own ``d[b]`` and ``p[b]``, given as (B, 1, 1) columns
    (or scalars shared by every member); N and n_cells are the matching's,
    else a ValueError.  Interior face flux is d (u_next - u_cell) / h * area;
    a boundary face matched to neuron j contributes d p (u_j - u_i) * area;
    each cell's net flux is divided by the cell volume, and a cell's faces
    are added in face order.  Self-matched faces contribute exactly zero.
    The arithmetic is elementwise, so every batch member gets the bits of
    its own (N, n_cells) call.
    """
    domain = matching.domain
    u_all = np.asarray(u_all, dtype=np.float64)
    network = (matching.n_neurons, domain.n_cells)
    if u_all.ndim not in (2, 3) or u_all.shape[-2:] != network:
        raise ValueError(f"u_all must have shape ([B,] {network[0]}, {network[1]}), "
                         f"got {u_all.shape}")
    out = np.zeros_like(u_all)
    vol = domain.cell_volume

    g = u_all.reshape(u_all.shape[:-1] + domain.cells)
    og = out.reshape(g.shape)
    dg = np.reshape(d, np.shape(d) + (1,) * (domain.dim - 1))  # member columns span the grid
    for k, hk in enumerate(domain.h):
        area = math.prod(domain.h[:k] + domain.h[k + 1:])  # the other axes' widths: 1 in 1D
        rest = (slice(None),) * (domain.dim - 1 - k)  # the axes after k
        lo, hi = (..., slice(None, -1), *rest), (..., slice(1, None), *rest)
        flux = (dg * area / (hk * vol)) * (g[hi] - g[lo])
        og[lo] += flux
        og[hi] -= flux

    if np.any(p != 0.0):
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


def _axis_eigenvalues(n: int, h: float) -> np.ndarray:
    # spectrum of -_axis_laplacian(n, h), eigenvector k the DCT-II mode k
    return (2.0 * np.sin(np.pi * np.arange(n) / (2 * n)) / h) ** 2


def _axis_laplacian(n: int, h: float) -> sp.csr_matrix:
    # zero-flux second-difference operator, negative semidefinite, built
    # straight into compressed rows (sp.diags takes several times as long)
    values = np.full((n, 3), (1.0, -2.0, 1.0))
    values[0, 1] = values[-1, 1] = -1.0
    columns = (np.arange(n)[:, None] + np.arange(-1, 2)).ravel()[1:-1]
    starts = np.clip(np.arange(-1, 3 * n, 3), 0, 3 * n - 2)
    return sp.csr_matrix((values.ravel()[1:-1] / (h * h), columns, starts), shape=(n, n))


def _diagonal_positions(a: sp.csr_matrix) -> np.ndarray:
    """Where each row's diagonal entry sits in ``a.data``, for a matrix that
    stores one in every row."""
    rows = np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))
    return np.flatnonzero(a.indices == rows)


def neumann_laplacian(domain: Domain) -> sp.csr_matrix:
    """Discrete zero-flux Laplacian on the grid (matches apply_diffusion at d=1, p=0)."""
    if domain.dim == 1:
        return _axis_laplacian(domain.cells[0], domain.h[0])
    nx, ny = domain.cells
    hx, hy = domain.h
    lx = _axis_laplacian(nx, hx)
    ly = _axis_laplacian(ny, hy)
    return (sp.kron(lx, sp.identity(ny)) + sp.kron(sp.identity(nx), ly)).tocsr()


def network_diffusion_matrix(matching: BoundaryMatching, d: float, p: float) -> sp.csr_matrix:
    """Joint operator on the stacked u-fields of the matching's network:
    block diffusion on its grid plus the coupling.

    Acts on a vector of length N * n_cells laid out neuron-major; equals
    apply_diffusion as a linear map.  A face matching neuron i to j adds its
    flux coefficient at (i, j) and subtracts it at (i, i) of its cell; a
    corner cell's two faces are summed in face order.  Compressed rows with
    sorted columns, built directly: one neuron's rows tiled over the
    diagonal blocks, and the coupling entries inserted where they sort.
    """
    domain, n_neurons = matching.domain, matching.n_neurons
    nc = domain.n_cells
    n_total = n_neurons * nc
    lap = d * neumann_laplacian(domain)  # sorted columns, one diagonal entry per row
    block = np.arange(n_neurons)  # csr_matrix stores the indices in 32 bits where they fit
    data = np.tile(lap.data, n_neurons)
    indices = (block[:, None] * nc + lap.indices).ravel()
    indptr = np.empty(n_total + 1, dtype=block.dtype)
    indptr[:-1] = (block[:, None] * lap.nnz + lap.indptr[:-1]).ravel()
    indptr[-1] = n_neurons * lap.nnz
    if p != 0.0:
        f, i = np.nonzero(matching.partner != np.arange(n_neurons))  # face-major
        coef = ((d * p / domain.cell_volume) * domain.face_area)[f]
        cell = domain.face_cell[f]
        # ufunc.at applies repeated indices one after another, in face order
        np.subtract.at(data, i * lap.nnz + _diagonal_positions(lap)[cell], coef)
        keys, slot = np.unique((i * nc + cell) * n_total + matching.partner[f, i] * nc + cell,
                               return_inverse=True)
        coupling = np.zeros(keys.size)
        np.add.at(coupling, slot, coef)
        row, col = np.divmod(keys, n_total)
        # a partner's block lies left of the row's own when j < i, else right;
        # keys are sorted, so each entry lands after those inserted before it
        at = indptr[row + (col > row)]
        data, indices = np.insert(data, at, coupling), np.insert(indices, at, col)
        indptr[1:] += np.cumsum(np.bincount(row, minlength=n_total))
    return sp.csr_matrix((data, indices, indptr), shape=(n_total, n_total))


@dataclass(frozen=True)
class PoincareConstants:
    """First nonzero Neumann eigenvalue and its measure-normalized companion.

    Both modes are closed forms, so ``iterations`` is 0.
    """

    eta1: float
    eta2: float
    iterations: int = 0


def poincare_constants(domain: Domain, mode: str = "discrete") -> PoincareConstants:
    """eta1 = first nonzero eigenvalue of the zero-flux Laplacian; eta2 = eta1/|Omega|.

    ``discrete`` is the exact eigenvalue of the grid operator
    :func:`neumann_laplacian`, min over the axes of (2 sin(pi/2n) / h)^2
    (its eigenvectors are the DCT-II modes); ``analytic`` is the continuum
    value (pi / longest extent)^2.  Both are evaluated once per domain.
    """
    if mode not in domain.poincare:
        raise ValueError(f"mode must be 'discrete' or 'analytic', got {mode!r}")
    return domain.poincare[mode]
