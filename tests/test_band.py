import math

import numpy as np
import pytest

from morsecells import (Band, KernelDensity, NebParams, PointCloud, ZeroCell,
                        band_density, band_distance, evolve, find_one_cells,
                        initial_band_general, initial_band_sphere,
                        smoothing_weight, tangent, total_force)
from morsecells.band import _evolve_bands, _interior_forces, arc_band, sphere_arc_band
from morsecells.density import DensityField
from morsecells.errors import (ConstructionError, DegenerateTangentError,
                               InvalidInputError)

from conftest import ConstantField, LinearField, RadialBowlField


def straight_band(p, q, count=5):
    t = np.linspace(0, 1, count)[:, None]
    return Band((1 - t) * np.asarray(p, float) + t * np.asarray(q, float))


# ---------------------------------------------------------------------------
# tangent

def test_tangent_collinear():
    b = straight_band([0.0, 0.0], [4.0, 0.0])
    for i in (1, 2, 3):
        assert tangent(b, i) == pytest.approx([1.0, 0.0])


def test_tangent_averaging():
    nodes = np.array([[0.0, -1.0], [0.0, 0.0], [1.0, 0.0]])
    # u+ = (1,0), u- = (0,1)
    assert tangent(Band(nodes), 1) == pytest.approx(np.array([1.0, 1.0]) / math.sqrt(2))


def test_tangent_hairpin_raises():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateTangentError):
        tangent(Band(nodes), 1)


# ---------------------------------------------------------------------------
# smoothing weight

def test_smoothing_weight_boundaries():
    a, b = math.pi / 6, math.pi / 2
    assert smoothing_weight(a, a, b) == 0.0
    assert smoothing_weight(b, a, b) == 1.0
    assert smoothing_weight((a + b) / 2, a, b) == pytest.approx(0.5)


def test_smoothing_weight_continuous_and_nondecreasing():
    a, b = math.pi / 6, math.pi / 2
    grid = np.arange(0.0, math.pi, 1e-4)
    vals = np.array([smoothing_weight(t, a, b) for t in grid])
    assert (np.diff(vals) >= 0).all()
    assert np.abs(np.diff(vals)).max() < 1e-3  # no jumps on a 1e-4 grid
    assert vals.min() >= 0 and vals.max() <= 1


# ---------------------------------------------------------------------------
# total force

def test_total_force_zero_on_straight_even_band():
    field = ConstantField(2)
    b = straight_band([0.0, 0.0], [4.0, 0.0])
    params = NebParams(gradient_constant=1.0)
    for i in (1, 2, 3):
        assert total_force(field, b, params, i) == pytest.approx([0.0, 0.0], abs=1e-14)


def test_total_force_pure_spring():
    # straight band with edge lengths 1 then 2: force = (2-1) * tau
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    field = ConstantField(2)
    force = total_force(field, Band(nodes), NebParams(gradient_constant=1.0), 1)
    assert force == pytest.approx([1.0, 0.0])


def test_total_force_perpendicular_gradient():
    # f(x, y) = y on a horizontal band: gradient is wholly perpendicular
    field = LinearField([0.0, 1.0])
    b = straight_band([0.0, 0.0], [4.0, 0.0], count=5)
    params = NebParams(gradient_constant=1.0)
    for i in (1, 2, 3):
        assert total_force(field, b, params, i) == pytest.approx([0.0, 1.0])


def test_total_force_gradient_component_perpendicular_to_tangent(rng):
    field = LinearField(rng.normal(size=3))
    nodes = rng.normal(size=(7, 3))
    b = Band(nodes)
    spring_smooth_field = ConstantField(3)
    for i in range(1, 6):
        tau = tangent(b, i)
        full = total_force(field, b, NebParams(gradient_constant=2.5), i)
        rest = total_force(spring_smooth_field, b, NebParams(gradient_constant=2.5), i)
        grad_part = full - rest
        assert abs(grad_part @ tau) <= 1e-10 * max(np.linalg.norm(grad_part), 1e-300)


# ---------------------------------------------------------------------------
# evolve

def test_evolve_returns_unchanged_at_equilibrium():
    field = ConstantField(2)
    b = straight_band([0.0, 0.0], [4.0, 0.0], count=7)
    out = evolve(field, b, NebParams(gradient_constant=1.0))
    assert np.array_equal(out.nodes, b.nodes)


def test_evolve_two_gaussian_saddle():
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    rng = np.random.default_rng(11)
    y = np.array([0.0, 1.0])
    initial = arc_band(np.array([-2.0, 0.0]), np.array([2.0, 0.0]), y, 2.0, 11)
    out = evolve(field, initial, NebParams())
    assert out is not None
    assert np.abs(out.nodes[1:-1, 1]).max() < 1e-2
    saddle = field.value(np.array([0.0, 0.0]))
    assert band_density(field, out) == pytest.approx(saddle, abs=1e-3)


def test_evolve_keeps_endpoints_bitwise_fixed():
    field = RadialBowlField(2)
    p, q = np.array([1.0, 1.0]), np.array([-1.0, 2.0])
    initial = arc_band(p, q, _unit_perp(q - p), 1.0, 9)
    out = evolve(field, initial, NebParams(gradient_constant=0.5, max_steps=500,
                                           convergence_tolerance=1e-12))
    nodes = out.nodes if out is not None else initial.nodes
    assert np.array_equal(nodes[0], initial.nodes[0])
    assert np.array_equal(nodes[-1], initial.nodes[-1])


def _unit_perp(v):
    perp = np.array([-v[1], v[0]])
    return perp / np.linalg.norm(perp)


def test_evolve_convergence_certificate():
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    params = NebParams()
    initial = arc_band(np.array([-2.0, 0.0]), np.array([2.0, 0.0]),
                       np.array([0.0, 1.0]), 1.5, 11)
    out = evolve(field, initial, params)
    from morsecells.band import _interior_forces, _resolve_c
    forces, _ = _interior_forces(field, out.nodes, params, _resolve_c(field, params))
    assert np.linalg.norm(forces, axis=1).mean() < params.convergence_tolerance


class RimField(DensityField):
    """f = -||y||^2 inside radius 5 and ||y||^2 - 50 outside: a basin ringed by
    a region that pushes bands outward until they overflow.  Records the
    largest coordinate it is queried at."""

    def __init__(self):
        self.dimension = 2
        self.largest = 0.0

    def value_batch(self, ys):
        r2 = np.einsum("qn,qn->q", ys, ys)
        return np.where(r2 < 25.0, -r2, r2 - 50.0)

    def gradient_batch(self, ys):
        ys = np.asarray(ys, dtype=float)
        self.largest = max(self.largest, float(np.abs(ys).max()))
        inside = np.einsum("qn,qn->q", ys, ys) < 25.0
        return np.where(inside[:, None], -2.0, 2.0) * ys


def _on_x_axis(xs):
    return Band(np.stack([np.asarray(xs, float), np.zeros(len(xs))], axis=1))


def test_evolve_bands_together_match_each_alone():
    params = NebParams(gradient_constant=40.0, convergence_tolerance=1e-3,
                       max_steps=1500)
    p, q = np.array([0.0, 0.0]), np.array([0.0, 0.05])
    bands = [
        # converges at step 21: nearly even spacing on an axis of the basin
        _on_x_axis(np.linspace(-2, 2, 7) + [0, 1e-3, -1e-3, 0, 1e-3, 0, 0]),
        # converges at step 621
        arc_band(np.array([-2.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0]), 3.0, 7),
        # skewed spacing: needs 2591 steps, so it exhausts max_steps
        _on_x_axis([-4.5, 4.0, 4.1, 4.2, 4.3, 4.4, 4.5]),
        # a palindrome zigzag keeps its middle node a hairpin on every step;
        # it converges at step 695 and is rejected for the hairpins
        Band(np.array([p, q, p, q, p, q, p])),
        # outside the rim the gradient drives it to overflow by step 611
        arc_band(np.array([10.0, 0.0]), np.array([10.0, 10.0]), np.array([1.0, 0.0]), 4.0, 7),
    ]
    field = RimField()
    with np.errstate(over="ignore", invalid="ignore"):
        together = _evolve_bands(field, bands, params)
        reversed_order = _evolve_bands(field, bands[::-1], params)[::-1]
        alone = [evolve(field, b, params) for b in bands]
        # each failing band fails for its own reason
        assert evolve(field, bands[2], NebParams(**{**params.__dict__,
                                                    "max_steps": 5000})) is not None
        assert _interior_forces(field, bands[3].nodes, params, 40.0)[1].all()
        overflow = RimField()
        evolve(overflow, bands[4], params)
        assert overflow.largest > 1e150  # squares of its coordinates overflow

    expected = [False, False, True, True, True]
    for run in (together, reversed_order, alone):
        assert [b is None for b in run] == expected
    for t, r, a, b in zip(together, reversed_order, alone, bands):
        if a is not None:
            assert np.abs(t.nodes - a.nodes).max() <= 1e-12
            assert np.abs(r.nodes - a.nodes).max() <= 1e-12
            assert np.array_equal(t.nodes[[0, -1]], b.nodes[[0, -1]])
    assert _evolve_bands(field, [], params) == []


def test_evolve_bands_together_match_each_alone_on_kde():
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0], [0.0, 2.5]]), 1.0)
    p, q = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    bands = [arc_band(p, q, np.array([0.0, s]), r, 11)
             for s, r in [(1.0, 0.5), (1.0, 2.0), (-1.0, 1.5), (1.0, 3.5)]]
    params = NebParams()
    together = _evolve_bands(field, bands, params)
    for t, b in zip(together, bands):
        a = evolve(field, b, params)
        assert (t is None) == (a is None)
        if a is not None:
            assert np.abs(t.nodes - a.nodes).max() <= 1e-12
            assert np.array_equal(t.nodes[[0, -1]], b.nodes[[0, -1]])


# ---------------------------------------------------------------------------
# initial bands

def test_arc_band_zero_bow_is_straight_segment():
    p, q = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    b = arc_band(p, q, np.array([0.0, 1.0]), 0.0, 5)
    assert b.nodes == pytest.approx(straight_band(p, q, 5).nodes)


def test_arc_band_middle_node_is_bow_point(rng):
    for _ in range(10):
        p, q = rng.normal(size=4), rng.normal(size=4)
        d = q - p
        y = rng.normal(size=4)
        y -= (y @ d) * d / (d @ d)
        y /= np.linalg.norm(y)
        r = rng.uniform(0.1, np.linalg.norm(d))
        b = arc_band(p, q, y, r, 11)
        assert b.nodes[5] == pytest.approx((p + q + r * y) / 2)


def test_arc_band_evenly_spaced_by_arclength(rng):
    p, q = np.zeros(3), np.array([3.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    b = arc_band(p, q, y, 2.0, 21)
    seg = np.linalg.norm(np.diff(b.nodes, axis=0), axis=1)
    assert seg == pytest.approx(seg[0] * np.ones(20), rel=1e-9)


def test_initial_band_general_endpoints(rng):
    p, q = rng.normal(size=5), rng.normal(size=5)
    b = initial_band_general(p, q, 11, rng)
    assert np.array_equal(b.nodes[0], p)
    assert np.array_equal(b.nodes[-1], q)


def test_initial_band_general_dimension_one_is_straight(rng):
    b = initial_band_general(np.array([0.0]), np.array([1.0]), 5, rng)
    assert b.nodes[:, 0] == pytest.approx(np.linspace(0, 1, 5))


def test_sphere_band_unit_norms_for_unit_endpoints(rng):
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    b = initial_band_sphere(p, q, 9, rng)
    assert np.linalg.norm(b.nodes, axis=1) == pytest.approx(np.ones(9))


def test_sphere_band_norm_interpolation(rng):
    p = 2.0 * np.array([1.0, 0.0, 0.0])
    q = 0.5 * np.array([0.0, 0.0, 1.0])
    n = 7
    b = initial_band_sphere(p, q, n, rng)
    i = np.arange(1, n + 1)
    expected = ((n - i) * 2.0 + (i - 1) * 0.5) / (n - 1)
    assert np.linalg.norm(b.nodes, axis=1) == pytest.approx(expected)


def test_sphere_band_nodes_on_circumcircle_avoiding_y(rng):
    p = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, 1.0, 0.0])
    b = sphere_arc_band(p, q, y, 9)
    # circumcircle oracle: every node is equidistant from the circle center
    # computed independently from the three defining points
    center = _circumcenter_oracle(p, q, y)
    radius = np.linalg.norm(p - center)
    for node in b.nodes:
        assert np.linalg.norm(node - center) == pytest.approx(radius, rel=1e-9)
        assert np.linalg.norm(node - y) > 1e-3


def _circumcenter_oracle(a, b, c):
    # solve |x-a|^2 = |x-b|^2 = |x-c|^2 with x constrained to the affine plane
    u, v = b - a, c - a
    m = np.array([[u @ u, u @ v], [v @ u, v @ v]])
    rhs = np.array([u @ u / 2, v @ v / 2])
    s, t = np.linalg.solve(m, rhs)
    return a + s * u + t * v


def test_sphere_band_degenerate_plane_raises(rng):
    p = np.array([1.0, 0.0])
    with pytest.raises(ConstructionError):
        initial_band_sphere(p, -p, 5, rng)


# ---------------------------------------------------------------------------
# band metric

def test_band_distance_identity():
    b = straight_band([0.0, 0.0], [1.0, 0.0], 6)
    assert band_distance(b, b) == 0.0


def test_band_distance_uniform_translation():
    b1 = straight_band([0.0, 0.0], [1.0, 0.0], 6)
    nodes = b1.nodes.copy()
    nodes[1:-1] += np.array([0.3, 0.4])  # norm 0.5
    assert band_distance(b1, Band(nodes)) == pytest.approx(0.5)


def test_band_distance_matches_brute_force(rng):
    p, q = np.zeros(3), np.ones(3)
    n1 = np.vstack([p, rng.normal(size=(9, 3)), q])
    n2 = np.vstack([p, rng.normal(size=(9, 3)), q])
    expected = sum(np.linalg.norm(n1[i] - n2[i]) for i in range(1, 10)) / 9
    assert band_distance(Band(n1), Band(n2)) == pytest.approx(expected)


def test_band_distance_metric_axioms(rng):
    p, q = np.zeros(2), np.ones(2)
    bands = [Band(np.vstack([p, rng.normal(size=(4, 2)), q])) for _ in range(3)]
    for b1 in bands:
        for b2 in bands:
            d12 = band_distance(b1, b2)
            assert d12 == pytest.approx(band_distance(b2, b1))
            for b3 in bands:
                assert d12 <= band_distance(b1, b3) + band_distance(b3, b2) + 1e-12


def test_band_distance_rejects_mismatched():
    b1 = straight_band([0.0, 0.0], [1.0, 0.0], 5)
    b2 = straight_band([0.0, 0.0], [1.0, 0.0], 7)
    with pytest.raises(InvalidInputError):
        band_distance(b1, b2)
    b3 = straight_band([0.0, 0.0], [2.0, 0.0], 5)
    with pytest.raises(InvalidInputError):
        band_distance(b1, b3)


# ---------------------------------------------------------------------------
# find_one_cells

def _zero_cells(field, positions):
    return [ZeroCell(position=np.asarray(p, float), density=field.value(np.asarray(p, float)))
            for p in positions]


def test_find_one_cells_two_gaussians():
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    cells = _zero_cells(field, [[-2.0, 0.0], [2.0, 0.0]])
    params = NebParams(trials_per_pair=5)
    out = find_one_cells(field, cells, params, np.random.default_rng(3))
    assert len(out) == 1
    assert np.abs(out[0].band.nodes[1:-1, 1]).max() < 1e-2
    assert out[0].density <= min(c.density for c in cells)


def test_find_one_cells_discards_paths_through_third_cell():
    pts = PointCloud([[-4.0, 0.0], [0.0, 0.0], [4.0, 0.0]])
    field = KernelDensity(pts, 1.0)
    cells = _zero_cells(field, [[-4.0, 0.0], [0.0, 0.0], [4.0, 0.0]])
    params = NebParams(trials_per_pair=5)
    out = find_one_cells(field, cells, params, np.random.default_rng(4))
    # the outer pair has no direct 1-cell: its minimum-energy path runs along
    # the axis through the middle 0-cell
    assert all(set(c.endpoint_indices) != {0, 2} for c in out)


def test_find_one_cells_single_zero_cell_empty():
    field = KernelDensity(PointCloud([[0.0, 0.0]]), 1.0)
    cells = _zero_cells(field, [[0.0, 0.0]])
    assert find_one_cells(field, cells, NebParams(), np.random.default_rng(0)) == []


def test_find_one_cells_deterministic_across_repeats():
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    cells = _zero_cells(field, [[-2.0, 0.0], [2.0, 0.0]])
    params = NebParams(trials_per_pair=4)
    outs = []
    for _ in range(3):
        res = find_one_cells(field, cells, params, np.random.default_rng(8))
        outs.append([(np.float64(r.density).tobytes(), r.band.nodes.tobytes())
                     for r in res])
    assert outs[0] == outs[1] == outs[2]
