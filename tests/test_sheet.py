import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import morsecells.sheet as sheet_module
from morsecells import (KernelDensity, PointCloud, WebSheet, initial_sheet, relax_sheet,
                        sheet_density, sheet_force, tangent_space)
from morsecells.cwcomplex import implicit_step_matrix, laplacian
from morsecells.errors import ConstructionError, InvalidInputError
from morsecells.sheet import INTERIOR, NODES, NODES_PER_RING, RINGS, STEP

from conftest import ConstantField, LinearField


def circle_loop(count=40, radius=1.0, dim=2):
    theta = np.linspace(0, 2 * math.pi, count, endpoint=False)
    loop = np.zeros((count, dim))
    loop[:, 0] = radius * np.cos(theta)
    loop[:, 1] = radius * np.sin(theta)
    return loop


def neighbor_lists(edges=None, count=NODES):
    """Each node's neighbours, from the web's edges or the given ones."""
    edges = sheet_module._wiring().edges if edges is None else edges
    adj = [[] for _ in range(count)]
    for a, b in np.asarray(edges).tolist():
        adj[a].append(b)
        adj[b].append(a)
    return adj


INNER = INTERIOR.stop  # interior nodes; the outer ring follows them


def cone_sheet(loop):
    """A web away from its equilibrium, for tests of the relaxation: the
    loop resampled as the outer ring, their mean as the centre and ring j at
    fraction j / RINGS of the way from the centre to the outer ring."""
    outer = sheet_module._resample_closed_polyline(np.asarray(loop, dtype=float),
                                                  NODES_PER_RING)
    center = outer.mean(axis=0)
    rings = center + (np.arange(1, RINGS) / RINGS)[:, None, None] * (outer - center)
    return WebSheet(np.vstack([center, rings.reshape(-1, outer.shape[1]), outer]))


# ---------------------------------------------------------------------------
# the web's shared wiring

def test_wiring_is_shared_and_read_only():
    wiring = sheet_module._wiring()
    assert sheet_module._wiring() is wiring
    assert wiring.edges.shape == (400, 2) and wiring.chords.shape == (INNER, 2, 2)
    assert wiring.rows.shape == (INNER, NODES) and wiring.step.shape == (INNER, INNER)
    for array in wiring:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


def test_wiring_is_built_on_first_use_only():
    # a fresh process that runs a pipeline with no loop builds no wiring
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import numpy as np, morsecells as m, morsecells.sheet as s\n"
            "cloud = m.synth_gaussian_mixture([[0.0, 0.0], [5.0, 0.0]], 1.0, [1.0, 1.0], 200,"
            " np.random.default_rng(14))\n"
            "report = m.run(cloud, m.PipelineConfig(sigma=1.0, seed=14))[1]\n"
            "print(report.counts['one_cells'], report.counts['candidate_loops'],"
            " s._wiring.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["1", "0", "0"]


@pytest.mark.parametrize("dim", [2, 8])
def test_relax_sheet_builds_no_wiring(monkeypatch, dim):
    # once the wiring is built, a sheet forms no Laplacian, no inverse and no
    # solve, whether it starts at its equilibrium or away from it
    import morsecells.cwcomplex as cwcomplex_module
    sheet_module._wiring()
    calls = []
    for module, name in [(sheet_module, "laplacian"), (sheet_module, "implicit_step_matrix"),
                         (cwcomplex_module, "laplacian"),
                         (cwcomplex_module, "implicit_step_matrix"), (np.linalg, "inv"),
                         (np.linalg, "solve")]:
        monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name), name=name:
                            calls.append(name) or real(*args))
    field = KernelDensity(PointCloud(np.zeros((1, dim))), 1.0)
    counts = {}
    for radius in (1.0, 1.5):
        assert relax_sheet(field, cone_sheet(circle_loop(radius=radius, dim=dim)),
                           counts) is not None
        assert relax_sheet(field, initial_sheet(circle_loop(radius=radius, dim=dim)),
                           counts) is not None
    assert counts["sheet_steps"] > 4
    assert calls == []


# ---------------------------------------------------------------------------
# initial_sheet

def test_initial_sheet_unit_circle_geometry():
    # the harmonic web of a regular 40-gon: the centre at 0, each ring a
    # regular 20-gon, the radii rising with j from 0.028 at ring 1 (not the
    # cone's 0.1) to the unit circle at ring 10
    sheet = initial_sheet(circle_loop())
    assert sheet.positions.shape == (1 + 10 * 20, 2)
    assert sheet.positions[0] == pytest.approx([0.0, 0.0], abs=1e-12)
    radii = []
    for j in range(1, 11):
        ring = sheet.positions[1 + (j - 1) * 20: 1 + j * 20]
        radius = np.linalg.norm(ring, axis=1)
        assert radius == pytest.approx(np.full(20, radius.mean()), rel=1e-12)
        sides = np.linalg.norm(ring - np.roll(ring, 1, axis=0), axis=1)
        assert sides == pytest.approx(np.full(20, 2 * radius.mean() * math.sin(math.pi / 20)),
                                      rel=1e-12)
        radii.append(radius.mean())
    assert np.all(np.diff(radii) > 0)
    assert radii[0] == pytest.approx(0.028, abs=5e-4)
    assert radii[-1] == pytest.approx(1.0, abs=1e-12)


def test_initial_sheet_boundary_is_outer_ring_only():
    # the interior is every node before the outer ring, which sits on the loop
    assert (RINGS, NODES_PER_RING) == (10, 20)
    assert NODES == 201 and INTERIOR == slice(0, 1 + 9 * 20)
    sheet = initial_sheet(circle_loop())
    radius = np.linalg.norm(sheet.positions, axis=1)
    assert radius[INNER:] == pytest.approx(np.ones(NODES_PER_RING), abs=1e-12)
    assert radius[:INNER].max() <= 0.9 + 1e-12


def test_initial_sheet_edge_counts():
    edges = sheet_module._wiring().edges
    # per ring: npr ring edges; spokes between adjacent rings: (rings-1)*npr;
    # center fan: npr
    npr = NODES_PER_RING
    assert len(edges) == RINGS * npr + (RINGS - 1) * npr + npr
    assert len({frozenset(e) for e in edges.tolist()}) == len(edges)
    assert (edges[:, 0] != edges[:, 1]).all()


def test_initial_sheet_interior_degrees():
    adj = neighbor_lists()
    assert len(adj[0]) == NODES_PER_RING  # center joins the whole innermost ring
    for alpha in range(1, INNER):
        assert len(adj[alpha]) == 4


def test_initial_sheet_closed_loop_duplicate_endpoint_ok():
    loop = circle_loop(12)
    closed = np.vstack([loop, loop[:1]])
    a = initial_sheet(loop)
    b = initial_sheet(closed)
    assert np.array_equal(a.positions, b.positions)


def test_initial_sheet_degenerate_loop_raises():
    with pytest.raises(ConstructionError):
        initial_sheet(np.zeros((5, 2)))


def test_initial_sheet_too_small_raises():
    # the closing repeat is dropped before the points are counted: two
    # distinct points span no web
    with pytest.raises(ConstructionError, match="at least 3 points"):
        initial_sheet([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])


def test_web_sheet_holds_the_web_nodes():
    for shape in [(NODES - 1, 2), (NODES + 1, 2), (NODES,)]:
        with pytest.raises(InvalidInputError, match="201 node rows"):
            WebSheet(np.zeros(shape))
    assert WebSheet(np.zeros((NODES, 3))).positions.shape == (NODES, 3)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_initial_sheet_interior_is_the_harmonic_extension(rng, dim):
    # the outer ring is the resampled loop, bit for bit, and the interior
    # solves L_II x_I = -L_IB x_B, the spring-only equilibrium, in any R^n
    loop = rng.normal(size=(13, dim))
    sheet = initial_sheet(loop)
    outer = sheet_module._resample_closed_polyline(loop, NODES_PER_RING)
    assert np.array_equal(sheet.positions[INNER:], outer)
    expected = harmonic_interior(sheet)
    assert np.abs(sheet.positions[INTERIOR] - expected).max() <= 1e-12 * np.abs(expected).max()


def test_initial_sheet_chords_join_grid_neighbors():
    # a ring node's chords join its two ring and its two spoke neighbours,
    # and the center's two chords join ring-1 nodes and are not parallel on
    # the regular ring a circle gives
    npr = NODES_PER_RING
    sheet = initial_sheet(circle_loop())
    adj = neighbor_lists()
    chords = sheet_module._wiring().chords
    for alpha in range(1, INNER):
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
    origin = initial_sheet(circle_loop(38))
    shifted = initial_sheet(circle_loop(38) + 1e6)
    assert np.abs(shifted.positions - 1e6 - origin.positions).max() <= 1e-9
    for scale in (1e-9, 1e-170, 1e160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = initial_sheet(scale * circle_loop(38))
        assert np.abs(scaled.positions / scale - origin.positions).max() <= 1e-12
        # the outer ring sits on the 38-gon inscribed in the unit circle, two
        # nodes at the middle of a side
        radius = np.linalg.norm(scaled.positions[INNER:] / scale, axis=1)
        assert radius.min() == pytest.approx(math.cos(math.pi / 38), rel=1e-12)
        assert radius.max() <= 1 + 1e-12


# ---------------------------------------------------------------------------
# tangent_space

def test_tangent_space_planar_neighbors():
    sheet = initial_sheet(circle_loop(dim=3))
    basis, deficient = tangent_space(sheet, 1 + NODES_PER_RING)  # ring-2 node
    assert basis.shape == (2, 3)
    assert not deficient
    # neighbors lie in the z=0 plane, so the basis spans it
    assert np.abs(basis[:, 2]).max() < 1e-12
    assert basis @ basis.T == pytest.approx(np.eye(2), abs=1e-12)


def chord_basis(positions, chords):
    """The rows of one node's grid basis that are not zero, and whether
    fewer than two are left: tangent_space on chords of one's own."""
    basis = sheet_module._grid_bases(positions, np.asarray(chords)[None])[:, :, 0]
    basis = basis[basis.any(axis=1)]
    return basis, len(basis) < 2


def test_tangent_space_collinear_neighbors_deficient():
    # both chords of a node lie along the x axis
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    basis, deficient = chord_basis(positions, [[2, 1], [0, 3]])
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
    basis, deficient = chord_basis(positions, [[1, 2], [3, 4]])
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
    sheet = initial_sheet(coords @ plane)
    for alpha in range(INNER):
        basis, deficient = tangent_space(sheet, alpha)
        assert not deficient
        # residual of projecting the true plane onto the recovered basis
        residual = plane - (plane @ basis.T) @ basis
        assert np.abs(residual).max() < 1e-10


def test_node_outside_the_interior_raises():
    # only 0 <= alpha < 181 is an interior node: a negative index does not
    # wrap round to another node, and a large one is no bare IndexError
    sheet = initial_sheet(circle_loop(dim=3))
    for alpha in (-200, -1, INNER, 500):
        with pytest.raises(InvalidInputError, match="interior"):
            sheet_force(ConstantField(3), sheet, alpha)
        with pytest.raises(InvalidInputError, match="interior"):
            tangent_space(sheet, alpha)
    for alpha in (0, INNER - 1):
        assert sheet_force(ConstantField(3), sheet, alpha).shape == (3,)
        assert not tangent_space(sheet, alpha)[1]


# ---------------------------------------------------------------------------
# sheet_force

def test_sheet_force_constant_field_is_spring_only():
    sheet = initial_sheet(circle_loop())
    field = ConstantField(2)
    adj = neighbor_lists()
    for alpha in range(INNER):
        expected = (sheet.positions[adj[alpha]] - sheet.positions[alpha]).sum(axis=0)
        assert sheet_force(field, sheet, alpha) == pytest.approx(expected)


def test_sheet_force_linear_field_perpendicular_component():
    # planar web in R^3 with gradient along z: g_perp = g, so force gains c*w
    sheet = initial_sheet(circle_loop(dim=3))
    w = np.array([0.0, 0.0, 2.0])
    c = 1.5
    field = LinearField(w, c=c)
    adj = neighbor_lists()
    alpha = 1 + NODES_PER_RING  # ring-2 interior node
    spring = (sheet.positions[adj[alpha]] - sheet.positions[alpha]).sum(axis=0)
    assert sheet_force(field, sheet, alpha) == pytest.approx(spring + c * w)


def test_sheet_force_in_plane_gradient_removed():
    # gradient parallel to the web plane projects away entirely
    sheet = initial_sheet(circle_loop(dim=3))
    field = LinearField([1.0, -2.0, 0.0], c=3.0)
    adj = neighbor_lists()
    alpha = 1 + NODES_PER_RING
    spring = (sheet.positions[adj[alpha]] - sheet.positions[alpha]).sum(axis=0)
    assert sheet_force(field, sheet, alpha) == pytest.approx(spring, abs=1e-12)


def test_sheet_force_boundary_node_raises():
    # a boundary node has no force, and no chords to give it a plane
    sheet = initial_sheet(circle_loop(dim=3))
    for alpha in range(INNER, NODES):
        with pytest.raises(InvalidInputError):
            sheet_force(ConstantField(3), sheet, alpha)
        with pytest.raises(InvalidInputError):
            tangent_space(sheet, alpha)


# ---------------------------------------------------------------------------
# relax_sheet

def test_relax_sheet_constant_field_reaches_harmonic_equilibrium(monkeypatch):
    sheet = cone_sheet(circle_loop())
    monkeypatch.setattr(sheet_module, "TOLERANCE", 1e-6)
    counts = {}
    out = relax_sheet(ConstantField(2), sheet, counts)
    assert out is not None and counts["sheet_steps"] > 1
    adj = neighbor_lists()
    for alpha in range(INNER):
        avg = out.positions[adj[alpha]].mean(axis=0)
        # near-equilibrium: each interior node sits at its neighbor average
        assert np.linalg.norm(out.positions[alpha] - avg) < 1e-3


def test_relax_sheet_planar_input_stays_planar_in_three_dimensions():
    sheet = cone_sheet(circle_loop(dim=3))
    field = KernelDensity(PointCloud([[0.0, 0.0, 0.0]]), 1.0)
    counts = {}
    out = relax_sheet(field, sheet, counts)
    assert out is not None and counts["sheet_steps"] > 1
    assert np.abs(out.positions[:, 2]).max() <= 1e-9
    # off R^2 every interior node sends its row to the gradient every step
    assert counts["sheet_gradient_rows"] == counts["sheet_steps"] * INNER


def test_relax_sheet_boundary_bitwise_untouched():
    sheet = cone_sheet(circle_loop())
    field = KernelDensity(PointCloud([[0.3, -0.2]]), 0.8)
    counts = {}
    out = relax_sheet(field, sheet, counts)
    assert out is not None and counts["sheet_steps"] > 1
    assert np.array_equal(out.positions[INNER:], sheet.positions[INNER:])


def test_relax_sheet_max_steps_returns_none(monkeypatch):
    # from the cone the sheet converges on its 23rd force evaluation, after
    # 22 steps
    sheet = cone_sheet(circle_loop())
    field = KernelDensity(PointCloud([[0.0, 0.0]]), 1.0)
    monkeypatch.setattr(sheet_module, "MAX_STEPS", 21)
    assert relax_sheet(field, sheet) is None
    monkeypatch.setattr(sheet_module, "MAX_STEPS", 22)
    counts = {}
    assert relax_sheet(field, sheet, counts) is not None
    assert counts["sheet_steps"] == 23


def test_relax_sheet_two_gaussian_density_floor():
    # web spanning a loop around both modes: min density on the relaxed sheet
    # cannot exceed the density at either mode
    pts = PointCloud([[-1.5, 0.0], [1.5, 0.0]])
    field = KernelDensity(pts, 1.0)
    sheet = initial_sheet(circle_loop(radius=2.5))
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
    neighbors = neighbor_lists()[alpha]
    spring = (sheet.positions[neighbors] - sheet.positions[alpha]).sum(axis=0)
    tails, heads = sheet_module._wiring().chords[alpha].T
    plane, _ = np.linalg.qr((sheet.positions[heads] - sheet.positions[tails]).T)
    g = field.gradient_batch(sheet.positions[alpha][None, :])[0]
    return field.c * (g - plane @ (plane.T @ g)) + spring


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_batched_forces_match_single_node(rng, dim):
    # in R^2 every node's force is its spring sum; the reference keeps the
    # gradient, and its c * g_perp is zero up to rounding.  Off R^2 every
    # node, the 20-neighbour center included, takes its plane from its chords
    from morsecells.sheet import _interior_forces
    sheet = initial_sheet(circle_loop(dim=dim))
    positions = sheet.positions + 0.05 * rng.normal(size=sheet.positions.shape)
    jittered = replace(sheet, positions=positions)
    field = KernelDensity(PointCloud(rng.normal(size=(20, dim))), 0.9)
    wiring = sheet_module._wiring()
    batched = _interior_forces(field, positions, wiring.rows, wiring.chords)
    for alpha in range(INNER):
        single = single_node_force(field, jittered, alpha)
        assert batched[alpha] == pytest.approx(single, abs=1e-10)
        assert np.array_equal(sheet_force(field, jittered, alpha), batched[alpha])


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
    sheet = initial_sheet(circle_loop() @ frame.T)
    jitter = 0.02 * rng.normal(size=sheet.positions.shape)
    positions = scale * (sheet.positions + jitter + offset)
    wiring = sheet_module._wiring()
    adj = neighbor_lists()
    expected = np.array([(positions[adj[alpha]] - positions[alpha]).sum(axis=0)
                         for alpha in range(INNER)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forces = _interior_forces(ConstantField(dim), positions, wiring.rows, wiring.chords)
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
    positions = np.array(positions)[:, :dim]
    field = GradientFreeField(dim)
    adj = neighbor_lists(edges, len(positions))
    springs = [(positions[adj[alpha]] - positions[alpha]).sum(axis=0) for alpha in range(4)]
    rows = laplacian(len(positions), edges)[:4]
    forces = _interior_forces(field, positions, rows, np.zeros((4, 2, 2), dtype=int))
    # the Laplacian row sums in another order than the neighbor differences:
    # the largest gap measured 8.9e-16 in R^2 on forces of size up to 6
    assert np.abs(forces - np.array(springs)).max() <= 4e-15
    # a web in R^1 or R^2 relaxes with no gradient call, and its node
    # forces are rows of the solver's force
    sheet = initial_sheet(circle_loop(38)[:, :dim])
    wiring = sheet_module._wiring()
    batched = _interior_forces(field, sheet.positions, wiring.rows, wiring.chords)
    for alpha in range(INNER):
        assert np.array_equal(sheet_force(field, sheet, alpha), batched[alpha])
    counts = {}
    assert relax_sheet(field, sheet, counts) is not None
    assert counts["sheet_steps"] >= 1
    assert counts["sheet_gradient_rows"] == 0


def test_full_rank_planar_web_makes_no_gradient_call():
    sheet = initial_sheet(circle_loop())
    counts = {}
    out = relax_sheet(GradientFreeField(2), sheet, counts)
    assert out is not None
    assert counts["sheet_steps"] >= 1 and counts["sheet_gradient_rows"] == 0


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_planar_forces_at_extreme_scales_skip_the_gradient(scale):
    # in R^2 the force is the spring sum at any scale: no square is formed,
    # and the gradient is never asked for
    from morsecells.sheet import _interior_forces
    sheet = initial_sheet(circle_loop())
    wiring = sheet_module._wiring()
    rows, chords = wiring.rows, wiring.chords
    unit = _interior_forces(GradientFreeField(2), sheet.positions, rows, chords)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forces = _interior_forces(GradientFreeField(2), scale * sheet.positions, rows, chords)
    assert np.isfinite(forces).all()
    assert np.abs(forces / scale - unit).max() <= 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_forces_in_eight_dimensions_at_extreme_scales(rng, scale):
    # each chord is scaled by its largest entry before it is squared, so at
    # 1e+-200, where the squares would under- or overflow, every node keeps
    # both rows of its plane
    from morsecells.sheet import _grid_bases, _interior_forces
    frame, _ = np.linalg.qr(rng.normal(size=(8, 2)))
    sheet = initial_sheet(circle_loop() @ frame.T)
    positions = sheet.positions + 0.02 * rng.normal(size=sheet.positions.shape)
    wiring = sheet_module._wiring()
    rows, chords = wiring.rows, wiring.chords
    w = rng.normal(size=8)
    unit = _interior_forces(LinearField(w, c=1.5), positions, rows, chords)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bases = _grid_bases(scale * positions, chords)
        forces = _interior_forces(LinearField(scale * w, c=1.5), scale * positions,
                                  rows, chords)
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


def projectors(positions):
    """(grid, pca): each interior node's projector onto its plane from the
    solver's grid chords, and from the PCA of its neighbour offsets."""
    from morsecells.sheet import _grid_bases
    grid = _grid_bases(positions, sheet_module._wiring().chords).transpose(2, 0, 1)
    pca = np.empty_like(grid)
    adj = neighbor_lists()
    for nodes in (np.array([0]), np.arange(1, INNER)):  # the center, then the ring nodes
        offsets = positions[[adj[alpha] for alpha in nodes]] - positions[nodes][:, None, :]
        pca[nodes] = svd_tangent_rows(offsets - offsets.mean(axis=1, keepdims=True))
    return grid.swapaxes(1, 2) @ grid, pca.swapaxes(1, 2) @ pca


@pytest.mark.parametrize("dim", [3, 5, 8])
@pytest.mark.parametrize("corners", [3, 4, 5, 6, 7, 8, 20])
def test_grid_planes_are_exact_on_planar_webs(rng, dim, corners):
    # on a web over a regular polygon in a 2-plane of R^dim every interior
    # node's chords, the center's too, span that plane, as its neighbours'
    # PCA does
    frame, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    sheet = initial_sheet(circle_loop(corners) @ frame.T)
    grid, pca = projectors(sheet.positions)
    plane = frame @ frame.T
    assert np.abs(grid - plane).max() <= 1e-12
    assert np.abs(pca - plane).max() <= 1e-12
    for alpha in range(INNER):
        basis, deficient = tangent_space(sheet, alpha)
        assert not deficient
        assert np.abs(basis @ basis.T - np.eye(2)).max() <= 1e-12
        assert np.abs(basis.T @ basis - plane).max() <= 1e-12


def test_grid_planes_approach_pca_as_the_web_refines(rng):
    # on a curved web the chords' plane and the PCA plane differ by a term
    # linear in the curvature: on the one web, the largest projector gap
    # measured 0.0261, 0.0146 and 0.0072 as the surface's height is halved
    # twice, each halving dividing it by 1.8 and 2.0 on the way to 2
    frame, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    x, y = initial_sheet(circle_loop()).positions.T
    gaps = []
    for height in (1.0, 0.5, 0.25):
        z = height * (0.2 * (x * x - y * y) + 0.1 * x * y + 0.1 * x * x * y)
        grid, pca = projectors(np.stack([x, y, z], axis=1) @ frame.T)
        gaps.append(np.abs(grid - pca).max())
    assert all(gap <= bound for gap, bound in zip(gaps, [0.03, 0.017, 0.0085]))
    assert gaps[1] <= gaps[0] / 1.7 and gaps[2] <= gaps[1] / 1.9


def test_zero_chord_gives_a_zero_row_and_a_finite_force(rng):
    # a ring node whose two ring neighbours coincide keeps the spoke row
    # alone; a node given zero chords keeps no row and feels the whole
    # gradient.  Neither warns, and every force stays finite
    from morsecells.sheet import _interior_forces
    npr = NODES_PER_RING
    frame, _ = np.linalg.qr(rng.normal(size=(8, 2)))
    sheet = initial_sheet(circle_loop() @ frame.T)
    alpha = 1 + npr + 3  # ring 2, slot 3
    positions = sheet.positions.copy()
    positions[alpha + 1] = positions[alpha - 1]
    wiring = sheet_module._wiring()
    chords = wiring.chords.copy()
    chords[alpha + npr] = 0  # ring 3, slot 3
    field = LinearField(rng.normal(size=8), c=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis, deficient = tangent_space(WebSheet(positions), alpha)
        empty, empty_deficient = chord_basis(positions, chords[alpha + npr])
        forces = _interior_forces(field, positions, wiring.rows, chords)
    assert deficient and basis.shape == (1, 8)
    spoke = positions[alpha + npr] - positions[alpha - npr]
    assert abs(basis[0] @ spoke) == pytest.approx(np.linalg.norm(spoke), rel=1e-12)
    assert empty_deficient and empty.shape == (0, 8)
    assert np.isfinite(forces).all()
    spring = (positions[neighbor_lists()[alpha + npr]] - positions[alpha + npr]).sum(axis=0)
    assert forces[alpha + npr] == pytest.approx(spring + 1.5 * field.w, abs=1e-12)


# ---------------------------------------------------------------------------
# semi-implicit step against the exact spring-only equilibrium

def web_laplacian(edges):
    """Graph Laplacian of the web, built edge by edge."""
    lap = np.zeros((NODES, NODES))
    for a, b in np.asarray(edges).tolist():
        lap[a, b] -= 1.0
        lap[b, a] -= 1.0
        lap[a, a] += 1.0
        lap[b, b] += 1.0
    return lap


def harmonic_interior(sheet):
    """Interior of the spring-only equilibrium: L_II x_I = -L_IB x_B."""
    lap = web_laplacian(sheet_module._wiring().edges)
    return np.linalg.solve(lap[:INNER, :INNER], -lap[:INNER, INNER:] @ sheet.positions[INNER:])


def test_implicit_step_matrix_is_scaled_inverse():
    wiring = sheet_module._wiring()
    lap = web_laplacian(wiring.edges)
    h = 0.7
    expected = h * np.linalg.inv(np.eye(INNER) + h * lap[:INNER, :INNER])
    step = implicit_step_matrix(laplacian(NODES, wiring.edges), np.arange(INNER), h)
    assert np.abs(step - expected).max() < 1e-12
    # the shared wiring holds the web's interior Laplacian rows and its step at STEP
    assert np.array_equal(wiring.rows, lap[INTERIOR])
    assert np.array_equal(wiring.step, implicit_step_matrix(lap, np.arange(INNER), STEP))


def test_relax_sheet_criterion_10_disk_reaches_harmonic_solve_in_few_steps(monkeypatch):
    sheet = cone_sheet(circle_loop(40))
    monkeypatch.setattr(sheet_module, "MAX_STEPS", 100)
    counts = {}
    out = relax_sheet(ConstantField(2), sheet, counts)
    assert out is not None and counts["sheet_steps"] > 1
    gap = np.linalg.norm(out.positions[INTERIOR] - harmonic_interior(sheet), axis=1)
    assert gap.max() < 1e-2


def test_relax_sheet_planar_web_in_eight_dimensions(rng, monkeypatch):
    frame, _ = np.linalg.qr(rng.normal(size=(8, 2)))  # orthonormal columns
    sheet = cone_sheet(circle_loop(40) @ frame.T)
    monkeypatch.setattr(sheet_module, "MAX_STEPS", 100)
    counts = {}
    out = relax_sheet(ConstantField(8), sheet, counts)
    assert out is not None and counts["sheet_steps"] > 1
    gap = np.linalg.norm(out.positions[INTERIOR] - harmonic_interior(sheet), axis=1)
    assert gap.max() < 1e-2
    drift = out.positions - (out.positions @ frame) @ frame.T
    assert np.abs(drift).max() <= 1e-9
