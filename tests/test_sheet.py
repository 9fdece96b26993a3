import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import morsecells.sheet as sheet_module
from morsecells import (KernelDensity, PointCloud, WebSheet, initial_sheet, relax_sheet,
                        sheet_density, sheet_force, tangent_space)
from morsecells.cwcomplex import implicit_step_matrix
from morsecells.errors import ConstructionError, InvalidInputError

from conftest import ConstantField, LinearField


def circle_loop(count=40, radius=1.0, dim=2):
    theta = np.linspace(0, 2 * math.pi, count, endpoint=False)
    loop = np.zeros((count, dim))
    loop[:, 0] = radius * np.cos(theta)
    loop[:, 1] = radius * np.sin(theta)
    return loop


# ---------------------------------------------------------------------------
# initial_sheet

def test_initial_sheet_unit_circle_geometry():
    sheet = initial_sheet(circle_loop(), rings=10, nodes_per_ring=20)
    assert sheet.positions.shape == (1 + 10 * 20, 2)
    assert sheet.positions[0] == pytest.approx([0.0, 0.0], abs=1e-12)
    # ring j sits at radius j/10
    for j in range(1, 11):
        ring = sheet.positions[1 + (j - 1) * 20: 1 + j * 20]
        assert np.linalg.norm(ring, axis=1) == pytest.approx(
            np.full(20, j / 10), abs=1e-9)


def test_initial_sheet_boundary_is_outer_ring_only():
    sheet = initial_sheet(circle_loop(), rings=4, nodes_per_ring=8)
    assert sheet.boundary.sum() == 8
    assert sheet.boundary[1 + 3 * 8:].all()
    assert not sheet.boundary[: 1 + 3 * 8].any()


def test_initial_sheet_edge_counts():
    rings, npr = 5, 12
    sheet = initial_sheet(circle_loop(), rings=rings, nodes_per_ring=npr)
    # per ring: npr ring edges; spokes between adjacent rings: (rings-1)*npr;
    # center fan: npr
    assert len(sheet.edges) == rings * npr + (rings - 1) * npr + npr


def test_initial_sheet_interior_degrees():
    sheet = initial_sheet(circle_loop(), rings=6, nodes_per_ring=10)
    adj = sheet.neighbor_lists()
    assert len(adj[0]) == 10  # center joins the whole innermost ring
    for alpha in range(1, len(adj)):
        if not sheet.boundary[alpha]:
            assert len(adj[alpha]) == 4


def test_initial_sheet_closed_loop_duplicate_endpoint_ok():
    loop = circle_loop(12)
    closed = np.vstack([loop, loop[:1]])
    a = initial_sheet(loop, rings=3, nodes_per_ring=6)
    b = initial_sheet(closed, rings=3, nodes_per_ring=6)
    assert np.array_equal(a.positions, b.positions)


def test_initial_sheet_degenerate_loop_raises():
    with pytest.raises(ConstructionError):
        initial_sheet(np.zeros((5, 2)))


def test_initial_sheet_too_small_raises():
    # the closing repeat is dropped before the points are counted: two
    # distinct points span no web
    with pytest.raises(ConstructionError, match="at least 3 points"):
        initial_sheet([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], rings=2, nodes_per_ring=4)
    # a web needs a ring, and a ring three nodes
    for rings, nodes_per_ring in [(0, 4), (2, 2)]:
        with pytest.raises(InvalidInputError):
            initial_sheet(circle_loop(), rings=rings, nodes_per_ring=nodes_per_ring)


def test_initial_sheet_follows_offset_and_scale():
    # a loop far from the origin, or tiny, is not degenerate: the web is the
    # origin's web shifted or scaled, also where the squares of the segment
    # lengths would under- (1e-170) or overflow (1e160)
    origin = initial_sheet(circle_loop(), rings=3, nodes_per_ring=6)
    shifted = initial_sheet(circle_loop() + 1e6, rings=3, nodes_per_ring=6)
    assert np.abs(shifted.positions - 1e6 - origin.positions).max() <= 1e-9
    webs = [shifted]
    for scale in (1e-9, 1e-170, 1e160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = initial_sheet(scale * circle_loop(), rings=3, nodes_per_ring=6)
        assert np.abs(scaled.positions / scale - origin.positions).max() <= 1e-12
        # the outer ring sits on the 40-gon inscribed in the unit circle
        radius = np.linalg.norm(scaled.positions[scaled.boundary] / scale, axis=1)
        assert radius == pytest.approx(np.ones(6), abs=1 - math.cos(math.pi / 40))
        webs.append(scaled)
    for web in webs:
        assert web.edges == origin.edges
        assert np.array_equal(web.boundary, origin.boundary)


# ---------------------------------------------------------------------------
# tangent_space

def test_tangent_space_planar_neighbors():
    sheet = initial_sheet(circle_loop(dim=3), rings=3, nodes_per_ring=8)
    basis, deficient = tangent_space(sheet, 1 + 8)  # middle-ring node
    assert basis.shape == (2, 3)
    assert not deficient
    # neighbors lie in the z=0 plane, so the basis spans it
    assert np.abs(basis[:, 2]).max() < 1e-12
    assert basis @ basis.T == pytest.approx(np.eye(2), abs=1e-12)


def test_tangent_space_collinear_neighbors_deficient():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    sheet = WebSheet(positions=positions, edges=((0, 1), (0, 2), (0, 3)),
                     boundary=np.array([False, True, True, True]))
    basis, deficient = tangent_space(sheet, 0)
    assert deficient
    assert basis.shape == (1, 2)
    assert np.abs(basis[0]) == pytest.approx([1.0, 0.0])


def test_tangent_space_plane_in_five_dimensions(rng):
    # neighbors on a random 2-plane in R^5: reconstructed basis must span it
    q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    plane = q.T  # (2, 5) orthonormal
    theta = np.linspace(0, 2 * math.pi, 6, endpoint=False)
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    neighbors = coords @ plane
    positions = np.vstack([np.zeros(5), neighbors])
    edges = tuple((0, i) for i in range(1, 7))
    sheet = WebSheet(positions=positions, edges=edges,
                     boundary=np.array([False] + [True] * 6))
    basis, deficient = tangent_space(sheet, 0)
    assert not deficient
    # residual of projecting the true plane onto the recovered basis
    residual = plane - (plane @ basis.T) @ basis
    assert np.abs(residual).max() < 1e-10


def test_tangent_space_too_few_neighbors_raises():
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    sheet = WebSheet(positions=positions, edges=((0, 1),),
                     boundary=np.array([False, True]))
    with pytest.raises(InvalidInputError):
        tangent_space(sheet, 0)
    with pytest.raises(InvalidInputError):
        sheet_force(ConstantField(2), sheet, 0)


# ---------------------------------------------------------------------------
# sheet_force

def test_sheet_force_constant_field_is_spring_only():
    sheet = initial_sheet(circle_loop(), rings=3, nodes_per_ring=8)
    field = ConstantField(2)
    adj = sheet.neighbor_lists()
    for alpha in np.flatnonzero(~sheet.boundary):
        expected = (sheet.positions[adj[alpha]] - sheet.positions[alpha]).sum(axis=0)
        assert sheet_force(field, sheet, alpha) == pytest.approx(expected)


def test_sheet_force_linear_field_perpendicular_component():
    # planar web in R^3 with gradient along z: g_perp = g, so force gains c*w
    sheet = initial_sheet(circle_loop(dim=3), rings=3, nodes_per_ring=8)
    w = np.array([0.0, 0.0, 2.0])
    c = 1.5
    field = LinearField(w, c=c)
    adj = sheet.neighbor_lists()
    alpha = 1 + 8  # middle-ring interior node
    spring = (sheet.positions[adj[alpha]] - sheet.positions[alpha]).sum(axis=0)
    assert sheet_force(field, sheet, alpha) == pytest.approx(spring + c * w)


def test_sheet_force_in_plane_gradient_removed():
    # gradient parallel to the web plane projects away entirely
    sheet = initial_sheet(circle_loop(dim=3), rings=3, nodes_per_ring=8)
    field = LinearField([1.0, -2.0, 0.0], c=3.0)
    adj = sheet.neighbor_lists()
    alpha = 1 + 8
    spring = (sheet.positions[adj[alpha]] - sheet.positions[alpha]).sum(axis=0)
    assert sheet_force(field, sheet, alpha) == pytest.approx(spring, abs=1e-12)


def test_sheet_force_boundary_node_raises():
    sheet = initial_sheet(circle_loop(), rings=2, nodes_per_ring=6)
    with pytest.raises(InvalidInputError):
        sheet_force(ConstantField(2), sheet, int(np.flatnonzero(sheet.boundary)[0]))


# ---------------------------------------------------------------------------
# relax_sheet

def test_relax_sheet_constant_field_reaches_harmonic_equilibrium(monkeypatch):
    sheet = initial_sheet(circle_loop(), rings=5, nodes_per_ring=12)
    monkeypatch.setattr(sheet_module, "TOLERANCE", 1e-6)
    out = relax_sheet(ConstantField(2), sheet)
    assert out is not None
    adj = out.neighbor_lists()
    for alpha in np.flatnonzero(~out.boundary):
        avg = out.positions[adj[alpha]].mean(axis=0)
        # near-equilibrium: each interior node sits at its neighbor average
        assert np.linalg.norm(out.positions[alpha] - avg) < 1e-3


def test_relax_sheet_planar_input_stays_planar_in_three_dimensions():
    sheet = initial_sheet(circle_loop(dim=3), rings=4, nodes_per_ring=10)
    field = KernelDensity(PointCloud([[0.0, 0.0, 0.0]]), 1.0)
    counts = {}
    out = relax_sheet(field, sheet, counts)
    assert out is not None
    assert np.abs(out.positions[:, 2]).max() <= 1e-9
    # off R^2 every interior node sends its row to the gradient every step
    assert counts["sheet_gradient_rows"] == counts["sheet_steps"] * (~sheet.boundary).sum()


def test_relax_sheet_boundary_bitwise_untouched():
    sheet = initial_sheet(circle_loop(), rings=4, nodes_per_ring=10)
    field = KernelDensity(PointCloud([[0.3, -0.2]]), 0.8)
    out = relax_sheet(field, sheet)
    assert out is not None
    idx = np.flatnonzero(sheet.boundary)
    assert np.array_equal(out.positions[idx], sheet.positions[idx])


def test_relax_sheet_max_steps_returns_none(monkeypatch):
    sheet = initial_sheet(circle_loop(), rings=3, nodes_per_ring=8)
    field = KernelDensity(PointCloud([[0.0, 0.0]]), 1.0)
    monkeypatch.setattr(sheet_module, "MAX_STEPS", 5)
    out = relax_sheet(field, sheet)
    assert out is None
    # the same sheet converges at step 6
    monkeypatch.undo()
    assert relax_sheet(field, sheet) is not None


def test_relax_sheet_two_gaussian_density_floor():
    # web spanning a loop around both modes: min density on the relaxed sheet
    # cannot exceed the density at either mode
    pts = PointCloud([[-1.5, 0.0], [1.5, 0.0]])
    field = KernelDensity(pts, 1.0)
    sheet = initial_sheet(circle_loop(radius=2.5), rings=5, nodes_per_ring=16)
    out = relax_sheet(field, sheet)
    assert out is not None
    d = sheet_density(field, out)
    assert d <= field.value(np.array([-1.5, 0.0])) + 1e-12
    assert d == pytest.approx(field.value_batch(out.positions).min())


# ---------------------------------------------------------------------------
# batched force path agrees with the single-node reference

def single_node_force(field, sheet, alpha):
    """The sheet force at one node, from its own SVD of the centered
    neighbor offsets: the reference for the batched path."""
    neighbors = sheet.neighbor_lists()[alpha]
    offsets = sheet.positions[neighbors] - sheet.positions[alpha]
    _, s, vt = np.linalg.svd(offsets - offsets.mean(axis=0), full_matrices=False)
    rank = int((s > max(s[0], 1e-300) * 1e-10).sum())
    basis = vt[:min(2, rank)]
    g = field.gradient_batch(sheet.positions[alpha][None, :])[0]
    return field.c * (g - basis.T @ (basis @ g)) + offsets.sum(axis=0)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_batched_forces_match_single_node(rng, dim):
    # in R^2 every node's force is its spring sum; the reference keeps the
    # gradient, and its c * g_perp is zero up to rounding.  Off R^2
    # every node takes its plane from the Gram: the 4-neighbour ring nodes
    # from the reduced 3 x 3 one, the 9-neighbour center from the reduced
    # 8 x 8 one in R^8 and from A^T A in R^3 and R^5
    from morsecells.sheet import _degree_groups, _interior_forces
    sheet = initial_sheet(circle_loop(dim=dim), rings=4, nodes_per_ring=9)
    positions = sheet.positions + 0.05 * rng.normal(size=sheet.positions.shape)
    jittered = WebSheet(positions=positions, edges=sheet.edges,
                        boundary=sheet.boundary)
    field = KernelDensity(PointCloud(rng.normal(size=(20, dim))), 0.9)
    adj = jittered.neighbor_lists()
    interior = np.flatnonzero(~jittered.boundary)
    groups = _degree_groups(adj, interior)
    batched, svd_rows = _interior_forces(field, positions, interior, groups)
    assert svd_rows == 0
    for row, alpha in enumerate(interior):
        single = single_node_force(field, jittered, int(alpha))
        assert batched[row] == pytest.approx(single, abs=1e-10)
        assert sheet_force(field, jittered, int(alpha)) == pytest.approx(single, abs=1e-10)


class GradientFreeField(ConstantField):
    """A field whose gradient must not be asked for."""

    def gradient_batch(self, ys):
        raise AssertionError("gradient_batch called")


@pytest.mark.parametrize("dim", [1, 2])
def test_forces_in_one_and_two_dimensions_are_spring_sums(dim):
    # a 2-cell's tangent plane is all of R^1 or R^2, so every force is the
    # spring sum bitwise, with no gradient call: interior nodes 0-3 have
    # degree 3 (0 with collinear offsets, 1 spanning) and degree 4 (2
    # collinear along (0.6, 0.8), 3 spanning, with node 1 a neighbor)
    from morsecells.sheet import _degree_groups, _interior_forces
    oblique = np.array([0.6, 0.8])
    interior_pos = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    neighbors = {0: [[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]],
                 1: [[6.0, 0.0], [5.0, 1.0]],
                 2: [[0.0, 5.0] + t * oblique for t in (1.0, -1.0, 2.0, -2.0)],
                 3: [[6.0, 5.0], [4.0, 5.0], [5.0, 6.0]]}
    positions, edges = [*interior_pos], [(1, 3)]
    for alpha, points in neighbors.items():
        for point in points:
            edges.append((alpha, len(positions)))
            positions.append(point)
    sheet = WebSheet(positions=np.array(positions)[:, :dim], edges=tuple(edges),
                     boundary=np.arange(len(positions)) >= 4)
    field = GradientFreeField(dim)
    adj = sheet.neighbor_lists()
    springs = [(sheet.positions[adj[alpha]] - sheet.positions[alpha]).sum(axis=0)
               for alpha in range(4)]
    for alpha in range(4):
        assert np.array_equal(sheet_force(field, sheet, alpha), springs[alpha])
    interior = np.arange(4)
    groups = _degree_groups(adj, interior)
    assert [len(rows) for rows, _ in groups] == [2, 2]
    forces, svd_rows = _interior_forces(field, sheet.positions, interior, groups)
    assert np.array_equal(forces, np.array(springs)) and svd_rows == 0
    counts = {}
    assert relax_sheet(field, sheet, counts) is not None
    assert counts["sheet_steps"] >= 1
    assert counts["sheet_gradient_rows"] == counts["sheet_svd_rows"] == 0


def test_full_rank_planar_web_makes_no_gradient_call():
    sheet = initial_sheet(circle_loop(), rings=4, nodes_per_ring=10)
    counts = {}
    out = relax_sheet(GradientFreeField(2), sheet, counts)
    assert out is not None
    assert counts["sheet_steps"] >= 1 and counts["sheet_gradient_rows"] == 0


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_planar_forces_at_extreme_scales_skip_the_gradient(scale):
    # in R^2 the force is the spring sum at any scale: no square is formed,
    # and the gradient is never asked for
    from morsecells.sheet import _degree_groups, _interior_forces
    sheet = initial_sheet(circle_loop(), rings=4, nodes_per_ring=10)
    interior = np.flatnonzero(~sheet.boundary)
    groups = _degree_groups(sheet.neighbor_lists(), interior)
    unit, _ = _interior_forces(GradientFreeField(2), sheet.positions, interior, groups)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forces, _ = _interior_forces(GradientFreeField(2), scale * sheet.positions,
                                     interior, groups)
    assert np.isfinite(forces).all()
    assert np.abs(forces / scale - unit).max() <= 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_forces_in_eight_dimensions_at_extreme_scales(rng, scale):
    # each node's offsets are scaled by their largest entry before the Gram
    # squares them, so at 1e+-200, where the squares would under- or
    # overflow, every node still takes its plane from the Gram
    from morsecells.sheet import _degree_groups, _interior_forces
    frame, _ = np.linalg.qr(rng.normal(size=(8, 2)))
    sheet = initial_sheet(circle_loop() @ frame.T, rings=4, nodes_per_ring=10)
    positions = sheet.positions + 0.02 * rng.normal(size=sheet.positions.shape)
    interior = np.flatnonzero(~sheet.boundary)
    groups = _degree_groups(sheet.neighbor_lists(), interior)
    w = rng.normal(size=8)
    unit, _ = _interior_forces(LinearField(w, c=1.5), positions, interior, groups)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forces, svd_rows = _interior_forces(LinearField(scale * w, c=1.5),
                                            scale * positions, interior, groups)
    assert svd_rows == 0
    assert np.isfinite(forces).all()
    assert np.abs(forces / scale - unit).max() <= 1e-12


def svd_tangent_rows(centered):
    """The top two right singular vectors of each (d, n) slice, a row zeroed
    where its singular value is below 1e-10 of the largest: the reference
    for the Gram path."""
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    keep = s[:, :2] > np.maximum(s[:, :1], 1e-300) * 1e-10
    return vt[:, :2] * keep[:, :, None]


def offsets_with_singular_values(rng, d, n, values):
    """(d, n) offsets whose rows sum to zero, with the given singular values
    along random orthonormal frames."""
    left = rng.normal(size=(d, len(values)))
    left, _ = np.linalg.qr(left - left.mean(axis=0))
    right, _ = np.linalg.qr(rng.normal(size=(n, len(values))))
    return (left * values) @ right.T


@st.composite
def singular_values(draw):
    """(s1, s2, s3) with s1 = 1: isotropic, planar, s2 down to 1e-6, s3
    near-tied with s2, or collinear."""
    s2 = draw(st.one_of(st.just(1.0), st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)))
    s3 = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0).map(lambda t: t * s2),
                        st.floats(-6.0, -1.0).map(lambda e: (1.0 - 10.0 ** e) * s2)))
    if draw(st.integers(0, 3)) == 0:  # collinear
        s2 = s3 = 0.0
    return (1.0, s2, s3)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([4, 12]), st.sampled_from([3, 5, 8]),
       st.lists(singular_values(), min_size=1, max_size=4),
       st.sampled_from([1e-150, 1.0, 1e150]), st.integers(0, 2 ** 32 - 1))
def test_tangent_bases_match_the_svd(d, n, values, scale, seed):
    # d = 4 takes the reduced 3 x 3 Gram, d = 12 the n x n one of A^T A
    from morsecells.sheet import _tangent_bases
    rng = np.random.default_rng(seed)
    centered = scale * np.array([offsets_with_singular_values(rng, d, n, np.array(s))
                                 for s in values])
    reference = svd_tangent_rows(centered)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bases, svd = _tangent_bases(centered)
    assert np.array_equal(bases[svd], reference[svd])
    fast = ~svd
    assert reference[fast].any(axis=2).all()
    projector = bases[fast].swapaxes(1, 2) @ bases[fast]
    expected = reference[fast].swapaxes(1, 2) @ reference[fast]
    assert np.abs(projector - expected).max(initial=0.0) <= 1e-12
    # the rule is lambda2 - lambda3 > 1e-2 lambda1; away from its edge the
    # side each node falls on is fixed
    gap = np.array([s2 * s2 - s3 * s3 for _, s2, s3 in values])
    assert not svd[gap > 1.1e-2].any()
    assert svd[gap < 0.9e-2].all()


@pytest.mark.parametrize("neighbors", [[[1.0, 2.0, -1.0], [-3.0, 0.5, 2.0]],
                                       [[1.0], [-2.0], [4.0]]])
def test_tangent_bases_below_the_plane_pad_with_zero_rows(neighbors):
    # a degree-2 node in R^3 and a node in R^1 have min(d - 1, n) < 2, so the
    # SVD takes them at once; its one direction is followed by a zero row
    from morsecells.sheet import _tangent_bases
    neighbors = np.array(neighbors)
    d, n = neighbors.shape
    sheet = WebSheet(positions=np.vstack([np.zeros(n), neighbors]),
                     edges=tuple((0, i) for i in range(1, d + 1)),
                     boundary=np.arange(d + 1) > 0)
    centered = neighbors - neighbors.mean(axis=0)
    bases, svd = _tangent_bases(centered[None])
    assert bases.shape == (1, 2, n) and svd.tolist() == [True]
    line = centered[-1] / np.linalg.norm(centered[-1])
    assert abs(bases[0, 0] @ line) == pytest.approx(1.0, abs=1e-12)
    assert not bases[0, 1].any()
    basis, deficient = tangent_space(sheet, 0)
    assert deficient and np.array_equal(basis, bases[0, :1])


def test_tangent_bases_leave_tiny_and_zero_offsets_to_the_svd(rng):
    # offsets whose largest entry is below 1e-300, and offsets that are all
    # zero, give the SVD's rows, the zero rows of a deficient node included
    from morsecells.sheet import _tangent_bases
    planar = offsets_with_singular_values(rng, 4, 8, np.array([1.0, 0.5, 0.0]))
    centered = np.array([1e-305 * planar, np.zeros((4, 8)), planar])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bases, svd = _tangent_bases(centered)
    assert svd.tolist() == [True, True, False]
    assert np.array_equal(bases[:2], svd_tangent_rows(centered[:2]))
    assert not bases[1].any()


# ---------------------------------------------------------------------------
# semi-implicit step against the exact spring-only equilibrium

def web_laplacian(sheet):
    """Graph Laplacian of the web, built node by node from its edges."""
    lap = np.zeros((len(sheet.positions),) * 2)
    for a, b in sheet.edges:
        lap[a, b] -= 1.0
        lap[b, a] -= 1.0
        lap[a, a] += 1.0
        lap[b, b] += 1.0
    return lap


def harmonic_interior(sheet):
    """Interior of the spring-only equilibrium: L_II x_I = -L_IB x_B."""
    lap = web_laplacian(sheet)
    inner, outer = ~sheet.boundary, sheet.boundary
    return np.linalg.solve(lap[np.ix_(inner, inner)],
                           -lap[np.ix_(inner, outer)] @ sheet.positions[outer])


def test_implicit_step_matrix_is_scaled_inverse():
    sheet = initial_sheet(circle_loop(), rings=4, nodes_per_ring=7)
    interior = np.flatnonzero(~sheet.boundary)
    lap = web_laplacian(sheet)[np.ix_(interior, interior)]
    h = 0.7
    expected = h * np.linalg.inv(np.eye(len(interior)) + h * lap)
    step = implicit_step_matrix(len(sheet.boundary), sheet.edges, interior, h)
    assert np.abs(step - expected).max() < 1e-12


def test_relax_sheet_criterion_10_disk_reaches_harmonic_solve_in_few_steps(monkeypatch):
    sheet = initial_sheet(circle_loop(40), rings=10, nodes_per_ring=20)
    monkeypatch.setattr(sheet_module, "MAX_STEPS", 100)
    out = relax_sheet(ConstantField(2), sheet)
    assert out is not None
    interior = ~sheet.boundary
    gap = np.linalg.norm(out.positions[interior] - harmonic_interior(sheet), axis=1)
    assert gap.max() < 1e-2


def test_relax_sheet_planar_web_in_eight_dimensions(rng, monkeypatch):
    frame, _ = np.linalg.qr(rng.normal(size=(8, 2)))  # orthonormal columns
    sheet = initial_sheet(circle_loop(40) @ frame.T, rings=10, nodes_per_ring=20)
    monkeypatch.setattr(sheet_module, "MAX_STEPS", 100)
    out = relax_sheet(ConstantField(8), sheet)
    assert out is not None
    interior = ~sheet.boundary
    gap = np.linalg.norm(out.positions[interior] - harmonic_interior(sheet), axis=1)
    assert gap.max() < 1e-2
    drift = out.positions - (out.positions @ frame) @ frame.T
    assert np.abs(drift).max() <= 1e-9
