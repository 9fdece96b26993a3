import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import morsecells.sheet as sheet_module
from morsecells import (KernelDensity, PointCloud, WebSheet, initial_sheet, relax_sheet,
                        sheet_density, sheet_force, tangent_space)
from morsecells.cwcomplex import implicit_step_matrix, laplacian
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


def test_initial_sheet_chords_join_grid_neighbors():
    # a ring node's chords join its two ring and its two spoke neighbours,
    # the center's two chords join ring-1 nodes and are never parallel on
    # the regular ring a circle gives, and a boundary node's are zero
    rings = 3
    for npr in range(3, 41):
        sheet = initial_sheet(circle_loop(), rings=rings, nodes_per_ring=npr)
        adj = sheet.neighbor_lists()
        chords = sheet.chords
        assert chords.shape == (1 + rings * npr, 2, 2)
        assert not chords[sheet.boundary].any()
        for alpha in range(1, 1 + (rings - 1) * npr):
            ring, spoke = chords[alpha]
            assert set(ring) | set(spoke) == set(adj[alpha])
            # the ring chord stays on alpha's ring
            assert {(node - 1) // npr for node in ring} == {(alpha - 1) // npr}
        assert set(chords[0].ravel()) <= set(adj[0])
        first, second = (sheet.positions[head] - sheet.positions[tail]
                         for tail, head in chords[0])
        sine = abs(first[0] * second[1] - first[1] * second[0])
        assert sine >= 0.5 * np.linalg.norm(first) * np.linalg.norm(second)


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
        assert np.array_equal(web.chords, origin.chords)


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


def no_chords(count):
    """Zero chords for count nodes, as a boundary node has."""
    return np.zeros((count, 2, 2), dtype=int)


def test_tangent_space_collinear_neighbors_deficient():
    # both chords of node 0 lie along the x axis
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    chords = no_chords(4)
    chords[0] = [[2, 1], [0, 3]]
    sheet = WebSheet(positions=positions, edges=((0, 1), (0, 2), (0, 3)),
                     boundary=np.array([False, True, True, True]), chords=chords)
    basis, deficient = tangent_space(sheet, 0)
    assert deficient
    assert basis.shape == (1, 2)
    assert np.abs(basis[0]) == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-7, 1e-3])
def test_chords_at_a_small_angle(rng, angle):
    # chords along an oblique line of R^8 leave a rounding residue that the
    # 1e-10 rule drops; past it, the rows stay orthonormal to 1e-12 however
    # nearly parallel the chords are.  The second row takes the positions'
    # rounding off the plane times 1 / angle
    frame, _ = np.linalg.qr(rng.normal(size=(8, 2)))
    positions = np.zeros((5, 8))
    positions[1:3] = [[-1.0, 0.0], [2.0, 0.0]] @ frame.T
    positions[3:5] = 0.7 * np.array([[-math.cos(angle), -math.sin(angle)],
                                     [math.cos(angle), math.sin(angle)]]) @ frame.T
    chords = no_chords(5)
    chords[0] = [[1, 2], [3, 4]]
    sheet = WebSheet(positions=positions, edges=tuple((0, i) for i in range(1, 5)),
                     boundary=np.arange(5) > 0, chords=chords)
    basis, deficient = tangent_space(sheet, 0)
    assert deficient == (angle < 1e-10)
    assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-12
    assert np.abs(basis @ frame @ frame.T - basis).max() <= (1e-12 if deficient else 1e-14 / angle)


def test_tangent_space_plane_in_five_dimensions(rng):
    # a hexagon web on a random 2-plane in R^5: every interior node's
    # reconstructed basis must span it
    q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    plane = q.T  # (2, 5) orthonormal
    theta = np.linspace(0, 2 * math.pi, 6, endpoint=False)
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    sheet = initial_sheet(coords @ plane, rings=3, nodes_per_ring=6)
    for alpha in np.flatnonzero(~sheet.boundary):
        basis, deficient = tangent_space(sheet, alpha)
        assert not deficient
        # residual of projecting the true plane onto the recovered basis
        residual = plane - (plane @ basis.T) @ basis
        assert np.abs(residual).max() < 1e-10


def test_tangent_space_too_few_neighbors_raises():
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    sheet = WebSheet(positions=positions, edges=((0, 1),),
                     boundary=np.array([False, True]), chords=no_chords(2))
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
    # a boundary node has no force, and no chords to give it a plane
    sheet = initial_sheet(circle_loop(dim=3), rings=2, nodes_per_ring=6)
    alpha = int(np.flatnonzero(sheet.boundary)[0])
    with pytest.raises(InvalidInputError):
        sheet_force(ConstantField(3), sheet, alpha)
    with pytest.raises(InvalidInputError):
        tangent_space(sheet, alpha)


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


@pytest.mark.parametrize("dim", [2, 8])
def test_relax_sheet_builds_one_laplacian(monkeypatch, dim):
    # the springs and the implicit step share one Laplacian per sheet
    import morsecells.cwcomplex as cwcomplex_module
    calls = []

    def counted(n, pairs):
        calls.append(n)
        return laplacian(n, pairs)

    monkeypatch.setattr(sheet_module, "laplacian", counted)
    monkeypatch.setattr(cwcomplex_module, "laplacian", counted)
    sheet = initial_sheet(circle_loop(dim=dim), rings=4, nodes_per_ring=10)
    field = KernelDensity(PointCloud(np.zeros((1, dim))), 1.0)
    counts = {}
    assert relax_sheet(field, sheet, counts) is not None
    assert counts["sheet_steps"] > 1
    assert calls == [len(sheet.positions)]


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
    """The sheet force at one node, its plane from a QR of its two grid
    chords: the reference for the batched path."""
    neighbors = sheet.neighbor_lists()[alpha]
    spring = (sheet.positions[neighbors] - sheet.positions[alpha]).sum(axis=0)
    tails, heads = sheet.chords[alpha].T
    plane, _ = np.linalg.qr((sheet.positions[heads] - sheet.positions[tails]).T)
    g = field.gradient_batch(sheet.positions[alpha][None, :])[0]
    return field.c * (g - plane @ (plane.T @ g)) + spring


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_batched_forces_match_single_node(rng, dim):
    # in R^2 every node's force is its spring sum; the reference keeps the
    # gradient, and its c * g_perp is zero up to rounding.  Off R^2 every
    # node, the 9-neighbour center included, takes its plane from its chords
    from morsecells.sheet import _interior_forces
    sheet = initial_sheet(circle_loop(dim=dim), rings=4, nodes_per_ring=9)
    positions = sheet.positions + 0.05 * rng.normal(size=sheet.positions.shape)
    jittered = replace(sheet, positions=positions)
    field = KernelDensity(PointCloud(rng.normal(size=(20, dim))), 0.9)
    interior = np.flatnonzero(~jittered.boundary)
    rows = laplacian(len(positions), jittered.edges)[interior]
    batched = _interior_forces(field, positions, interior, rows, jittered.chords[interior])
    for row, alpha in enumerate(interior):
        single = single_node_force(field, jittered, int(alpha))
        assert batched[row] == pytest.approx(single, abs=1e-10)
        assert sheet_force(field, jittered, int(alpha)) == pytest.approx(single, abs=1e-10)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-100, 1e100, 1e200])
@pytest.mark.parametrize("dim", [1, 2, 8])
def test_spring_sums_match_neighbor_differences(rng, dim, scale, offset):
    # under a zero gradient the force is -(L x) from the web's Laplacian rows;
    # it matches the sum of neighbor differences at any scale, and far from
    # the origin too, since the positions are taken relative to the center.
    # The largest gap measured 3.9e-16 of the scale, at offset 0: at 1e6 and
    # 1e8 the two sums were equal bitwise
    from morsecells.sheet import _interior_forces
    frame = np.linalg.qr(rng.normal(size=(8, 2)))[0] if dim == 8 else np.eye(2)[:dim]
    sheet = initial_sheet(circle_loop() @ frame.T, rings=4, nodes_per_ring=10)
    jitter = 0.02 * rng.normal(size=sheet.positions.shape)
    positions = scale * (sheet.positions + jitter + offset)
    interior = np.flatnonzero(~sheet.boundary)
    rows = laplacian(len(positions), sheet.edges)[interior]
    adj = sheet.neighbor_lists()
    expected = np.array([(positions[adj[alpha]] - positions[alpha]).sum(axis=0)
                         for alpha in interior])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forces = _interior_forces(ConstantField(dim), positions, interior, rows,
                                  sheet.chords[interior])
    assert np.abs(forces - expected).max() <= 1e-15 * scale


class GradientFreeField(ConstantField):
    """A field whose gradient must not be asked for."""

    def gradient_batch(self, ys):
        raise AssertionError("gradient_batch called")


@pytest.mark.parametrize("dim", [1, 2])
def test_forces_in_one_and_two_dimensions_are_spring_sums(dim):
    # a 2-cell's tangent plane is all of R^1 or R^2, so every force is the
    # spring sum, with no gradient call: interior nodes 0-3 have degree 3
    # (0 with collinear offsets, 1 spanning) and degree 4 (2 collinear along
    # (0.6, 0.8), 3 spanning, with node 1 a neighbor)
    from morsecells.sheet import _interior_forces
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
                     boundary=np.arange(len(positions)) >= 4, chords=no_chords(len(positions)))
    field = GradientFreeField(dim)
    adj = sheet.neighbor_lists()
    springs = [(sheet.positions[adj[alpha]] - sheet.positions[alpha]).sum(axis=0)
               for alpha in range(4)]
    interior = np.arange(4)
    rows = laplacian(len(positions), sheet.edges)[interior]
    forces = _interior_forces(field, sheet.positions, interior, rows, sheet.chords[interior])
    for alpha in range(4):
        assert np.array_equal(sheet_force(field, sheet, alpha), forces[alpha])
    # the Laplacian row sums in another order than the neighbor differences:
    # the largest gap measured 8.9e-16 in R^2 on forces of size up to 6
    assert np.abs(forces - np.array(springs)).max() <= 4e-15
    counts = {}
    assert relax_sheet(field, sheet, counts) is not None
    assert counts["sheet_steps"] >= 1
    assert counts["sheet_gradient_rows"] == 0


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
    from morsecells.sheet import _interior_forces
    sheet = initial_sheet(circle_loop(), rings=4, nodes_per_ring=10)
    interior = np.flatnonzero(~sheet.boundary)
    rows = laplacian(len(sheet.positions), sheet.edges)[interior]
    chords = sheet.chords[interior]
    unit = _interior_forces(GradientFreeField(2), sheet.positions, interior, rows, chords)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forces = _interior_forces(GradientFreeField(2), scale * sheet.positions,
                                  interior, rows, chords)
    assert np.isfinite(forces).all()
    assert np.abs(forces / scale - unit).max() <= 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_forces_in_eight_dimensions_at_extreme_scales(rng, scale):
    # each chord is scaled by its largest entry before it is squared, so at
    # 1e+-200, where the squares would under- or overflow, every node keeps
    # both rows of its plane
    from morsecells.sheet import _grid_bases, _interior_forces
    frame, _ = np.linalg.qr(rng.normal(size=(8, 2)))
    sheet = initial_sheet(circle_loop() @ frame.T, rings=4, nodes_per_ring=10)
    positions = sheet.positions + 0.02 * rng.normal(size=sheet.positions.shape)
    interior = np.flatnonzero(~sheet.boundary)
    rows = laplacian(len(positions), sheet.edges)[interior]
    chords = sheet.chords[interior]
    w = rng.normal(size=8)
    unit = _interior_forces(LinearField(w, c=1.5), positions, interior, rows, chords)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bases = _grid_bases(scale * positions, chords)
        forces = _interior_forces(LinearField(scale * w, c=1.5), scale * positions,
                                  interior, rows, chords)
    assert bases.any(axis=1).all()
    assert np.isfinite(forces).all()
    assert np.abs(forces / scale - unit).max() <= 1e-12


def svd_tangent_rows(centered):
    """The top two right singular vectors of each (d, n) slice, a row zeroed
    where its singular value is below 1e-10 of the largest: the principal
    (PCA) plane of each node's centred neighbour offsets."""
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    keep = s[:, :2] > np.maximum(s[:, :1], 1e-300) * 1e-10
    return vt[:, :2] * keep[:, :, None]


def projectors(sheet):
    """(grid, pca): each interior node's projector onto its plane from the
    solver's grid chords, and from the PCA of its neighbour offsets."""
    from morsecells.sheet import _grid_bases
    interior = np.flatnonzero(~sheet.boundary)
    grid = _grid_bases(sheet.positions, sheet.chords[interior]).transpose(2, 0, 1)
    pca = np.empty_like(grid)
    adj = sheet.neighbor_lists()
    for degree in {len(adj[alpha]) for alpha in interior}:
        rows = np.array([r for r, alpha in enumerate(interior) if len(adj[alpha]) == degree])
        offsets = (sheet.positions[[adj[alpha] for alpha in interior[rows]]]
                   - sheet.positions[interior[rows]][:, None, :])
        pca[rows] = svd_tangent_rows(offsets - offsets.mean(axis=1, keepdims=True))
    return grid.swapaxes(1, 2) @ grid, pca.swapaxes(1, 2) @ pca


@pytest.mark.parametrize("dim", [3, 5, 8])
@pytest.mark.parametrize("npr", [3, 4, 5, 6, 7, 8, 20])
def test_grid_planes_are_exact_on_planar_webs(rng, dim, npr):
    # on a web in a 2-plane of R^dim every interior node's chords, the
    # center's too, span that plane, as its neighbours' PCA does
    frame, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    sheet = initial_sheet(circle_loop() @ frame.T, rings=4, nodes_per_ring=npr)
    grid, pca = projectors(sheet)
    plane = frame @ frame.T
    assert np.abs(grid - plane).max() <= 1e-12
    assert np.abs(pca - plane).max() <= 1e-12
    for alpha in np.flatnonzero(~sheet.boundary):
        basis, deficient = tangent_space(sheet, alpha)
        assert not deficient
        assert np.abs(basis @ basis.T - np.eye(2)).max() <= 1e-12
        assert np.abs(basis.T @ basis - plane).max() <= 1e-12


def test_grid_planes_approach_pca_as_the_web_refines(rng):
    # on a curved web the chords' plane and the PCA plane differ at second
    # order: the largest projector gap measured 0.0279, 0.0105 and 0.0031
    # at these sizes, each halving of the spacing dividing it by 2.6 and 3.4
    # on the way to 4
    frame, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    gaps = []
    for rings, npr in [(8, 16), (16, 32), (32, 64)]:
        sheet = initial_sheet(circle_loop(2 * npr), rings=rings, nodes_per_ring=npr)
        x, y = sheet.positions.T
        surface = np.stack([x, y, 0.2 * (x * x - y * y) + 0.1 * x * y + 0.1 * x * x * y],
                           axis=1)
        grid, pca = projectors(replace(sheet, positions=surface @ frame.T))
        gaps.append(np.abs(grid - pca).max())
    assert all(gap <= bound for gap, bound in zip(gaps, [0.035, 0.013, 0.004]))
    assert gaps[1] <= gaps[0] / 2.5 and gaps[2] <= gaps[1] / 2.5


def test_zero_chord_gives_a_zero_row_and_a_finite_force(rng):
    # a ring node whose two ring neighbours coincide keeps the spoke row
    # alone; a node given zero chords keeps no row and feels the whole
    # gradient.  Neither warns, and every force stays finite
    from morsecells.sheet import _interior_forces
    frame, _ = np.linalg.qr(rng.normal(size=(8, 2)))
    sheet = initial_sheet(circle_loop() @ frame.T, rings=4, nodes_per_ring=10)
    alpha = 1 + 10 + 3  # ring 2, slot 3
    positions = sheet.positions.copy()
    positions[alpha + 1] = positions[alpha - 1]
    chords = sheet.chords.copy()
    chords[alpha + 10] = 0  # ring 3, slot 3
    sheet = replace(sheet, positions=positions, chords=chords)
    field = LinearField(rng.normal(size=8), c=1.5)
    interior = np.flatnonzero(~sheet.boundary)
    rows = laplacian(len(positions), sheet.edges)[interior]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis, deficient = tangent_space(sheet, alpha)
        empty, empty_deficient = tangent_space(sheet, alpha + 10)
        forces = _interior_forces(field, positions, interior, rows, chords[interior])
        single = sheet_force(field, sheet, alpha + 10)
    assert deficient and basis.shape == (1, 8)
    spoke = positions[alpha + 10] - positions[alpha - 10]
    assert abs(basis[0] @ spoke) == pytest.approx(np.linalg.norm(spoke), rel=1e-12)
    assert empty_deficient and empty.shape == (0, 8)
    assert np.isfinite(forces).all()
    spring = (positions[sheet.neighbor_lists()[alpha + 10]] - positions[alpha + 10]).sum(axis=0)
    assert np.array_equal(single, forces[alpha + 10])  # interior row = node index here
    assert single == pytest.approx(spring + 1.5 * field.w, abs=1e-12)


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
    step = implicit_step_matrix(laplacian(len(sheet.boundary), sheet.edges), interior, h)
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
