"""Grid geometry, boundary matching, diffusion operator and eigenvalue checks.

The diffusion operator is verified two ways against each other (direct
stencil evaluation versus assembled sparse matrix) and against manufactured
solutions with closed-form Laplacians.  The discrete eigenvalue has an exact
closed form on a uniform zero-flux grid, (4/h^2) sin^2(pi/(2n)), which
``poincare_constants`` must reproduce to near machine precision.
"""

import math

import numpy as np
import pytest

from hrnet.domain import (
    BoundaryMatching,
    apply_diffusion,
    build_domain,
    full_boundary_matching,
    integrate_domain,
    network_diffusion_matrix,
    neumann_laplacian,
    parse_matching,
    parse_pairs,
    poincare_constants,
)
from hrnet.errors import MatchingError


def lambda1_exact(n_cells: int, h: float) -> float:
    """First nonzero eigenvalue of the 1D zero-flux grid Laplacian, exactly."""
    return (4.0 / (h * h)) * math.sin(math.pi / (2 * n_cells)) ** 2


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_interval_geometry():
    d = build_domain(1, [1.0], [10])
    assert d.n_cells == 10
    assert d.n_faces == 2
    assert d.omega_measure == pytest.approx(1.0, rel=1e-12)
    assert d.boundary_measure == pytest.approx(2.0, rel=1e-12)
    assert d.cell_volume == pytest.approx(0.1, rel=1e-15)


def test_rectangle_geometry():
    d = build_domain(2, [1.0, 2.0], [10, 20])
    assert d.n_cells == 200
    assert d.omega_measure == pytest.approx(2.0, rel=1e-12)
    assert d.boundary_measure == pytest.approx(6.0, rel=1e-12)
    assert d.n_faces == 2 * (10 + 20)


def test_square_of_pi_measure():
    d = build_domain(2, [math.pi, math.pi], [32, 32])
    assert d.omega_measure == pytest.approx(math.pi ** 2, rel=1e-12)


def test_face_enumeration_order():
    # axis-major, low before high, increasing transverse coordinate
    d = build_domain(2, [1.0, 1.0], [4, 4])
    assert list(d.face_axis) == [0] * 8 + [1] * 8
    assert list(d.face_side) == [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4
    left_pos = d.face_pos[:4]
    assert np.all(np.diff(left_pos) > 0)



def loop_faces(extents, cells):
    """The per-face loop that ``build_domain``'s array expressions replaced."""
    face_cell, face_axis, face_side, face_area, face_pos = [], [], [], [], []
    if len(cells) == 1:
        (nx,) = cells
        for side, cell in ((0, 0), (1, nx - 1)):
            face_cell.append(cell)
            face_axis.append(0)
            face_side.append(side)
            face_area.append(1.0)
            face_pos.append(0.0 if side == 0 else float(extents[0]))
    else:
        nx, ny = cells
        hx, hy = extents[0] / nx, extents[1] / ny
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
    return (np.asarray(face_cell, dtype=np.intp), np.asarray(face_axis, dtype=np.int8),
            np.asarray(face_side, dtype=np.int8), np.asarray(face_area, dtype=np.float64),
            np.asarray(face_pos, dtype=np.float64))


@pytest.mark.parametrize("extents, cells", [
    ([1.0], [4]), ([0.3], [17]), ([math.pi], [128]),
    ([1.0, 1.0], [4, 4]), ([1.0, 0.8], [12, 10]), ([0.7, 2.3], [5, 9]),
    ([math.pi, 1.0], [33, 4]), ([2.0, 0.1], [64, 128]),
])
def test_face_arrays_match_the_per_face_loop(extents, cells):
    d = build_domain(len(cells), extents, cells)
    arrays = (d.face_cell, d.face_axis, d.face_side, d.face_area, d.face_pos)
    for got, want in zip(arrays, loop_faces(extents, cells)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

def test_build_domain_rejections():
    with pytest.raises(ValueError, match="out of scope"):
        build_domain(3, [1.0, 1.0, 1.0], [8, 8, 8])
    with pytest.raises(ValueError):
        build_domain(1, [0.0], [8])
    with pytest.raises(ValueError):
        build_domain(1, [-1.0], [8])
    with pytest.raises(ValueError):
        build_domain(1, [1.0], [3])
    with pytest.raises(ValueError):
        build_domain(2, [1.0], [8, 8])


@pytest.mark.parametrize("extents,cells", [
    ((1e300,), (8,)),  # eta1 and eta2 underflow to 0
    ((1e-300,), (8,)),  # eta1 overflows; the analytic one by float ** (OverflowError)
    ((1e200, 1e200), (4, 4)),  # the cell volume overflows
    ((1e-200, 1e-200), (4, 4)),  # the cell volume underflows to 0 (ZeroDivisionError)
])
def test_build_domain_rejects_a_grid_outside_float_range(extents, cells):
    with pytest.raises(ValueError) as exc:
        build_domain(len(cells), extents, cells)
    assert str(exc.value) == (f"extents {extents} on cells {cells} leave float range: the "
                              f"cell volume, |Omega|, eta1 and eta2 must be finite and > 0")


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def test_parse_pairs_text_and_passthrough():
    assert parse_pairs("1-2, 3-3") == [(1, 2), (3, 3)]
    assert parse_pairs("") == []
    assert parse_pairs([(1, 2)]) == [(1, 2)]
    with pytest.raises(MatchingError):
        parse_pairs("1+2")
    with pytest.raises(MatchingError):
        parse_pairs("1-x")


def test_interval_swap_matching():
    d = build_domain(1, [1.0], [8])
    m = parse_matching(
        [{"side": "left", "pairs": "1-2"}, {"side": "right", "pairs": "1-2"}], d, 2
    )
    assert np.array_equal(m.partner, [[1, 0], [1, 0]])


def test_rectangle_partial_matching_defaults_to_fixed_points():
    d = build_domain(2, [1.0, 1.0], [4, 4])
    m = parse_matching(
        [{"side": "left", "pairs": "1-2"}, {"side": "right", "pairs": "2-3"}], d, 3
    )
    left = (d.face_axis == 0) & (d.face_side == 0)
    right = (d.face_axis == 0) & (d.face_side == 1)
    other = d.face_axis == 1
    assert np.all(m.partner[left] == [1, 0, 2])
    assert np.all(m.partner[right] == [0, 2, 1])
    assert np.all(m.partner[other] == [0, 1, 2])


def test_matching_is_involution_by_construction():
    d = build_domain(2, [2.0, 1.0], [8, 4])
    m = parse_matching(
        [
            {"side": "left", "pairs": "1-3"},
            {"side": "top", "span": (0.0, 1.0), "pairs": "2-4, 1-1"},
            {"side": "top", "span": (1.0, 2.0), "pairs": "1-2"},
        ],
        d,
        4,
    )
    back = np.take_along_axis(m.partner, m.partner, axis=1)
    assert np.array_equal(back, np.broadcast_to(np.arange(4), m.partner.shape))


def test_matching_span_selects_faces():
    d = build_domain(2, [2.0, 1.0], [8, 4])
    m = parse_matching([{"side": "bottom", "span": (0.0, 1.0), "pairs": "1-2"}], d, 2)
    bottom = np.flatnonzero((d.face_axis == 1) & (d.face_side == 0))
    matched = bottom[d.face_pos[bottom] < 1.0]
    unmatched = bottom[d.face_pos[bottom] >= 1.0]
    assert np.all(m.partner[matched, 0] == 1)
    assert np.all(m.partner[unmatched, 0] == 0)


def test_matching_rejects_conflicting_pairs():
    d = build_domain(1, [1.0], [8])
    with pytest.raises(MatchingError, match="involution"):
        parse_matching([{"side": "left", "pairs": "1-2, 2-3"}], d, 3)


def test_matching_rejects_overlapping_segments():
    d = build_domain(1, [1.0], [8])
    with pytest.raises(MatchingError, match="overlap"):
        parse_matching(
            [{"side": "left", "pairs": "1-2"}, {"side": "left", "pairs": "1-2"}], d, 2
        )


def test_matching_rejects_out_of_range_index():
    d = build_domain(1, [1.0], [8])
    with pytest.raises(MatchingError, match="out of range"):
        parse_matching([{"side": "left", "pairs": "1-5"}], d, 3)
    with pytest.raises(MatchingError, match="out of range"):
        parse_matching([{"side": "left", "pairs": "0-1"}], d, 3)


def test_matching_rejects_bad_side_and_span():
    d1 = build_domain(1, [1.0], [8])
    d2 = build_domain(2, [1.0, 1.0], [4, 4])
    with pytest.raises(MatchingError, match="unknown side"):
        parse_matching([{"side": "top", "pairs": "1-2"}], d1, 2)
    with pytest.raises(MatchingError, match="span"):
        parse_matching([{"side": "left", "span": (0.0, 0.5), "pairs": "1-2"}], d1, 2)
    with pytest.raises(MatchingError, match="lo < hi"):
        parse_matching([{"side": "left", "span": (0.5, 0.5), "pairs": "1-2"}], d2, 2)
    with pytest.raises(MatchingError, match="no boundary faces"):
        parse_matching([{"side": "left", "span": (2.0, 3.0), "pairs": "1-2"}], d2, 2)


def test_matching_constructor_validates_involution():
    d = build_domain(1, [1.0], [8])
    bad = np.array([[1, 0], [1, 1]], dtype=np.intp)  # face 1: 0 -> 1 -> 1
    with pytest.raises(MatchingError, match="involution"):
        BoundaryMatching(partner=bad, domain=d)


@pytest.mark.parametrize("change,message", [
    ({"partner": np.zeros((3, 2), dtype=np.intp)}, "one row per boundary face"),
    ({"domain": build_domain(2, [1.0, 1.0], [4, 4])}, r"face \(16\), got shape \(2, 2\)"),
    ({"partner": np.array([[1, 0], [1, 2]], dtype=np.intp)}, "out of range"),
    ({"partner": np.array([[1, 0], [-1, 1]], dtype=np.intp)}, "out of range"),
])
def test_matching_constructor_validates_shapes_and_range(change, message):
    d = build_domain(1, [1.0], [8])
    fields = {"partner": np.array([[1, 0], [1, 0]], dtype=np.intp), "domain": d}
    with pytest.raises(MatchingError, match=message):
        BoundaryMatching(**(fields | change))


def test_matching_needs_two_neurons():
    d = build_domain(1, [1.0], [8])
    with pytest.raises(MatchingError, match="at least 2 neurons"):
        parse_matching([{"side": "left", "pairs": ""}], d, 1)


# ---------------------------------------------------------------------------
# diffusion operator
# ---------------------------------------------------------------------------

def test_diffusion_zero_on_equal_constants():
    d = build_domain(1, [1.0], [16])
    m = full_boundary_matching(d, 2, "1-2")
    u = np.full((2, 16), 3.7)
    out = apply_diffusion(u, d, m, d=2.0, p=5.0)
    assert np.all(out == 0.0)


def test_boundary_flux_value():
    # u_i = 1 matched to u_j = 0 with d=3, p=2: flux per unit area is
    # d*p*(0 - 1) = -6; the cell rate is that divided by cell volume
    d = build_domain(1, [1.0], [10])
    m = full_boundary_matching(d, 2, "1-2")
    u = np.zeros((2, 10))
    u[0] = 1.0
    out = apply_diffusion(u, d, m, d=3.0, p=2.0)
    assert out[0, 0] * d.cell_volume == pytest.approx(-6.0, rel=1e-15)
    assert out[1, 0] * d.cell_volume == pytest.approx(6.0, rel=1e-15)
    assert np.all(out[:, 1:-1] == 0.0)


def test_diffusion_shape_mismatch():
    d = build_domain(1, [1.0], [8])
    with pytest.raises(ValueError):
        apply_diffusion(np.zeros((2, 9)), d, None, 1.0, 0.0)


def manufactured_error_1d(n: int) -> float:
    length = 1.0
    d = build_domain(1, [length], [n])
    (x,) = d.cell_center_coords()
    u = np.cos(math.pi * x / length)[None, :].repeat(2, axis=0)
    want = -(math.pi / length) ** 2 * u
    got = apply_diffusion(u, d, parse_matching([], d, 2), d=1.0, p=0.0)
    return float(np.abs(got - want).max())


def manufactured_error_2d(n: int) -> float:
    lx, ly = 1.0, 1.5
    d = build_domain(2, [lx, ly], [n, n])
    x, y = d.cell_center_coords()
    u = (np.cos(math.pi * x / lx) * np.cos(math.pi * y / ly))[None, :]
    want = -((math.pi / lx) ** 2 + (math.pi / ly) ** 2) * u
    got = apply_diffusion(u, d, None, d=1.0, p=0.0)
    return float(np.abs(got - want).max())


def test_diffusion_second_order_1d():
    errors = [manufactured_error_1d(n) for n in (32, 64, 128)]
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    for order in orders:
        assert 1.8 <= order <= 2.2, orders


def test_diffusion_second_order_2d():
    errors = [manufactured_error_2d(n) for n in (16, 32, 64)]
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    for order in orders:
        assert 1.8 <= order <= 2.2, orders


def test_diffusion_linearity():
    rng = np.random.default_rng(1234)
    d = build_domain(2, [1.0, 2.0], [8, 12])
    m = parse_matching(
        [{"side": "left", "pairs": "1-2"}, {"side": "top", "pairs": "2-3"}], d, 3
    )
    u = rng.normal(size=(3, d.n_cells))
    w = rng.normal(size=(3, d.n_cells))
    a, b = 1.7, -0.4
    lhs = apply_diffusion(a * u + b * w, d, m, 2.0, 3.0)
    rhs = a * apply_diffusion(u, d, m, 2.0, 3.0) + b * apply_diffusion(w, d, m, 2.0, 3.0)
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_diffusion_global_conservation():
    # coupling fluxes cancel pairwise, so the total integral is conserved
    rng = np.random.default_rng(777)
    for dim, extents, cells in ((1, [1.0], [32]), (2, [1.0, 2.0], [8, 12])):
        d = build_domain(dim, extents, cells)
        m = full_boundary_matching(d, 3, "1-2")
        u = rng.normal(size=(3, d.n_cells))
        out = apply_diffusion(u, d, m, 2.5, 4.0)
        total = float(np.sum(integrate_domain(out, d)))
        assert abs(total) <= 1e-11 * np.abs(u).max() * d.omega_measure


def test_diffusion_negative_semidefinite():
    rng = np.random.default_rng(90210)
    d = build_domain(1, [1.0], [32])
    m = full_boundary_matching(d, 2, "1-2")
    for _ in range(25):
        u = rng.normal(size=(2, d.n_cells))
        out = apply_diffusion(u, d, m, 1.5, 2.0)
        quad = float(np.sum(u * out) * d.cell_volume)
        assert quad <= 1e-10 * np.abs(u).max() ** 2


def test_diffusion_relabeling_equivariance():
    # permuting neuron labels together with the matching permutes outputs
    rng = np.random.default_rng(5150)
    d = build_domain(1, [1.0], [16])
    segs = [{"side": "left", "pairs": "1-2"}, {"side": "right", "pairs": "2-3"}]
    m = parse_matching(segs, d, 3)
    perm = [2, 0, 1]  # old index i becomes new index perm[i]
    relabeled = [
        {"side": s["side"], "pairs": [(perm[i - 1] + 1, perm[j - 1] + 1)
                                      for i, j in parse_pairs(s["pairs"])]}
        for s in segs
    ]
    m2 = parse_matching(relabeled, d, 3)
    u = rng.normal(size=(3, d.n_cells))
    u2 = np.empty_like(u)
    for i in range(3):
        u2[perm[i]] = u[i]
    out = apply_diffusion(u, d, m, 2.0, 3.0)
    out2 = apply_diffusion(u2, d, m2, 2.0, 3.0)
    for i in range(3):
        assert np.array_equal(out2[perm[i]], out[i])


def test_matrix_route_matches_stencil_route():
    rng = np.random.default_rng(31830)
    for dim, extents, cells in ((1, [2.0], [16]), (2, [1.0, 1.5], [6, 8])):
        d = build_domain(dim, extents, cells)
        m = full_boundary_matching(d, 2, "1-2")
        a = network_diffusion_matrix(d, m, 1.3, 2.7, 2)
        u = rng.normal(size=(2, d.n_cells))
        direct = apply_diffusion(u, d, m, 1.3, 2.7)
        via_matrix = (a @ u.ravel()).reshape(2, d.n_cells)
        scale = np.abs(direct).max()
        assert np.abs(direct - via_matrix).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_constants():
    d1 = build_domain(1, [1.0], [16])
    assert integrate_domain(np.ones(16), d1) == pytest.approx(1.0, rel=1e-14)
    d2 = build_domain(2, [1.0, 2.0], [8, 8])
    assert integrate_domain(np.full(64, 3.0), d2) == pytest.approx(
        3.0 * d2.omega_measure, rel=1e-14
    )


def test_integrate_linear_exactly():
    # midpoint rule integrates linear functions without quadrature error
    d = build_domain(1, [1.0], [100])
    (x,) = d.cell_center_coords()
    assert integrate_domain(x, d) == pytest.approx(0.5, rel=1e-14)


def test_integrate_stacked_fields():
    d = build_domain(1, [1.0], [8])
    vals = integrate_domain(np.ones((3, 8)), d)
    assert vals.shape == (3,)
    assert np.allclose(vals, 1.0, rtol=1e-14)


def test_integrate_rejects_the_wrong_cell_count():
    d = build_domain(2, [1.0, 1.0], [4, 4])
    with pytest.raises(ValueError, match="field must have 16 cells"):
        integrate_domain(np.ones((2, 15)), d)


def test_matched_pairs_lists_each_unordered_pair_once_in_row_major_order():
    d = build_domain(1, [1.0], [8])
    m = parse_matching([{"side": "left", "pairs": "3-4, 1-2"},
                        {"side": "right", "pairs": "4-1, 2-2"}], d, 5)
    assert m.matched_pairs == ((0, 1), (0, 3), (2, 3))
    assert parse_matching([], d, 3).matched_pairs == ()


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_eta1_matches_exact_discrete_value():
    for n in (16, 64, 128):
        d = build_domain(1, [1.0], [n])
        pc = poincare_constants(d)
        assert pc.eta1 == pytest.approx(lambda1_exact(n, d.h[0]), rel=1e-12)
        assert pc.eta2 == pytest.approx(pc.eta1 / d.omega_measure, rel=1e-14)


def test_eta1_unit_interval_approaches_pi_squared():
    d = build_domain(1, [1.0], [256])
    pc = poincare_constants(d)
    assert pc.eta1 == pytest.approx(math.pi ** 2, rel=1e-4)


def test_eta1_interval_of_length_pi():
    d = build_domain(1, [math.pi], [256])
    pc = poincare_constants(d)
    assert pc.eta1 == pytest.approx(1.0, rel=1e-4)
    assert pc.eta2 == pytest.approx(1.0 / math.pi, rel=1e-4)


def test_eta1_rectangle_uses_longest_axis():
    d = build_domain(2, [1.0, 2.0], [24, 48])
    pc = poincare_constants(d)
    exact = lambda1_exact(48, d.h[1])
    assert pc.eta1 == pytest.approx(exact, rel=1e-10)
    assert poincare_constants(d, mode="analytic").eta1 == pytest.approx(
        (math.pi / 2.0) ** 2, rel=1e-15
    )


def test_eta1_discrete_converges_second_order():
    errs = []
    for n in (32, 64, 128):
        d = build_domain(1, [1.0], [n])
        errs.append(abs(poincare_constants(d).eta1 - math.pi ** 2))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    for order in orders:
        assert 1.8 <= order <= 2.2, orders


def test_poincare_rejects_unknown_mode():
    d = build_domain(1, [1.0], [16])
    with pytest.raises(ValueError):
        poincare_constants(d, mode="exact")


def test_neumann_laplacian_annihilates_constants():
    for dim, extents, cells in ((1, [1.0], [16]), (2, [1.0, 2.0], [8, 12])):
        d = build_domain(dim, extents, cells)
        lap = neumann_laplacian(d)
        assert np.abs(lap @ np.ones(d.n_cells)).max() <= 1e-12
