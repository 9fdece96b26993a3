import math
from unittest import mock

import numpy as np
import pytest

from morsecells import (Band, KernelDensity, NebParams, PipelineConfig, PointCloud,
                        ZeroCell, band, band_density, band_distance, evolve,
                        find_one_cells, initial_band_general, initial_band_sphere, run,
                        smoothing_weight, synth_bumpy_circle, tangent, total_force)
from morsecells.band import _evolve_bands, _interior_forces, arc_band, sphere_arc_band
from morsecells.errors import (ConstructionError, DegenerateTangentError,
                               InvalidInputError)

from conftest import ConstantField, FixedStepField, LinearField, RadialBowlField


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
    a, b = band.ALPHA, band.BETA
    assert smoothing_weight(a) == 0.0
    assert smoothing_weight(b) == 1.0
    assert smoothing_weight((a + b) / 2) == pytest.approx(0.5)


def test_smoothing_weight_continuous_and_nondecreasing():
    grid = np.arange(0.0, math.pi, 1e-4)
    vals = np.array([smoothing_weight(t) for t in grid])
    assert (np.diff(vals) >= 0).all()
    assert np.abs(np.diff(vals)).max() < 1e-3  # no jumps on a 1e-4 grid
    assert vals.min() >= 0 and vals.max() <= 1


def test_smoothing_weight_elementwise_matches_scalar_gate():
    a, b = band.ALPHA, band.BETA

    def scalar_gate(theta):
        if theta <= a:
            return 0.0
        if theta >= b:
            return 1.0
        return (1.0 - math.cos(math.pi * (theta - a) / (b - a))) / 2.0

    grid = np.linspace(0.0, math.pi, 1001)
    expected = np.array([scalar_gate(t) for t in grid])
    assert smoothing_weight(grid) == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# total force

def test_total_force_zero_on_straight_even_band():
    field = ConstantField(2)
    b = straight_band([0.0, 0.0], [4.0, 0.0])
    for i in (1, 2, 3):
        assert total_force(field, b, i) == pytest.approx([0.0, 0.0], abs=1e-14)


def test_total_force_pure_spring():
    # straight band with edge lengths 1 then 2: force = (2-1) * tau
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    field = ConstantField(2)
    force = total_force(field, Band(nodes), 1)
    assert force == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize("turn", [math.pi / 8, math.pi / 4])
def test_total_force_smoothing_gate(turn):
    # two unit edges turning by `turn`, so the spring is 0: the gate adds
    # h(theta) (u+ - u-) past alpha = pi/6 and nothing below it
    up = np.array([math.cos(turn), math.sin(turn)])
    nodes = np.array([[-1.0, 0.0], [0.0, 0.0], up])
    gate = (1.0 - math.cos(math.pi * max(turn - math.pi / 6, 0.0) / (math.pi / 3))) / 2.0
    force = total_force(ConstantField(2), Band(nodes), 1)
    assert force == pytest.approx(gate * (up - [1.0, 0.0]), abs=1e-15)
    assert (gate == 0.0) == (turn < math.pi / 6)


def test_total_force_perpendicular_gradient():
    # f(x, y) = y on a horizontal band: gradient is wholly perpendicular
    field = LinearField([0.0, 1.0], c=1.0)
    b = straight_band([0.0, 0.0], [4.0, 0.0], count=5)
    for i in (1, 2, 3):
        assert total_force(field, b, i) == pytest.approx([0.0, 1.0])


def test_total_force_gradient_component_perpendicular_to_tangent(rng):
    field = LinearField(rng.normal(size=3), c=2.5)
    nodes = rng.normal(size=(7, 3))
    b = Band(nodes)
    spring_smooth_field = ConstantField(3, c=2.5)
    for i in range(1, 6):
        tau = tangent(b, i)
        full = total_force(field, b, i)
        rest = total_force(spring_smooth_field, b, i)
        grad_part = full - rest
        assert abs(grad_part @ tau) <= 1e-10 * max(np.linalg.norm(grad_part), 1e-300)


def _gated_forces(field, nodes):
    """The band force term by term, with the smoothing gate
    smoothing_weight(arccos(cos θ)) evaluated at every node."""
    edges = np.diff(nodes, axis=-2)
    edge_norm = np.sqrt(np.einsum("...in,...in->...i", edges, edges))
    up, um = edges[..., 1:, :], edges[..., :-1, :]
    up_norm, um_norm = edge_norm[..., 1:], edge_norm[..., :-1]
    s = up + um
    s_norm = np.sqrt(np.einsum("...in,...in->...i", s, s))
    tau = s / np.maximum(s_norm, 1e-12)[..., None]
    interior = nodes[..., 1:-1, :]
    grad = field.gradient_batch(interior.reshape(-1, nodes.shape[-1])).reshape(interior.shape)
    grad_perp = grad - np.einsum("...in,...in->...i", grad, tau)[..., None] * tau
    spring = (up_norm - um_norm)[..., None] * tau
    cos_theta = np.clip(np.einsum("...in,...in->...i", up, um)
                        / np.maximum(up_norm * um_norm, 1e-12), -1.0, 1.0)
    smooth = smoothing_weight(np.arccos(cos_theta))[..., None] * (up - um)
    return field.c * grad_perp + spring + smooth


def _turning_band(turn):
    # seven nodes, uneven edges heading 0.3 rad; the band turns by `turn` at node 3
    headings = 0.3 + turn * (np.arange(6) >= 3)
    lengths = np.array([1.0, 0.9, 1.1, 1.0, 0.95, 1.05])[:, None]
    steps = lengths * np.c_[np.cos(headings), np.sin(headings)]
    return np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)]) + [-1.0, 0.5]


def test_interior_forces_skip_only_a_gate_that_is_zero():
    a = band.ALPHA
    bands = {"straight": _turning_band(0.0), "below alpha": _turning_band(0.4),
             "alpha (1 - 1e-9)": _turning_band(a * (1 - 1e-9)),
             "alpha - 1e-13": _turning_band(a - 1e-13),
             "alpha (1 + 1e-9)": _turning_band(a * (1 + 1e-9)),
             "between alpha and beta": _turning_band(1.0),
             "past beta": _turning_band(2.0),
             # folds back on itself at node 3: a zero tangent there, so the
             # whole gradient, no spring term and full smoothing
             "fold": np.array([[0, 0], [1, .5], [2, 1], [3, 1.5], [2, 1], [1, .5], [0, 0]],
                              dtype=float)}
    gated = {"alpha - 1e-13", "alpha (1 + 1e-9)", "between alpha and beta", "past beta",
             "fold"}
    field = RadialBowlField(2, c=0.7)
    stack = np.stack(list(bands.values()))
    with np.errstate(all="raise"):
        forces = _interior_forces(field, stack)
    assert np.isfinite(forces).all()
    for k, (name, nodes) in enumerate(bands.items()):
        with mock.patch.object(band, "smoothing_weight", wraps=smoothing_weight) as gate:
            alone = _interior_forces(field, nodes)
        assert gate.called == (name in gated), name
        reference = _gated_forces(field, nodes)
        assert forces[k].tobytes() == alone.tobytes() == reference.tobytes(), name
    fold = bands["fold"]
    up, um = fold[4] - fold[3], fold[3] - fold[2]
    assert np.array_equal(forces[-1, 2],
                          field.c * field.gradient_batch(fold[3:4])[0] + (up - um))


# ---------------------------------------------------------------------------
# evolve

def test_evolve_returns_unchanged_at_equilibrium():
    field = ConstantField(2)
    b = straight_band([0.0, 0.0], [4.0, 0.0], count=7)
    out = evolve(field, b)
    assert np.array_equal(out.nodes, b.nodes)


def test_evolve_two_gaussian_saddle():
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    rng = np.random.default_rng(11)
    y = np.array([0.0, 1.0])
    initial = arc_band(np.array([-2.0, 0.0]), np.array([2.0, 0.0]), y, 2.0, 11)
    out = evolve(field, initial)
    assert out is not None
    assert np.abs(out.nodes[1:-1, 1]).max() < 1e-2
    saddle = field.value(np.array([0.0, 0.0]))
    assert band_density(field, out) == pytest.approx(saddle, abs=1e-3)


def test_evolve_keeps_endpoints_bitwise_fixed(monkeypatch):
    field = RadialBowlField(2, c=0.5)
    p, q = np.array([1.0, 1.0]), np.array([-1.0, 2.0])
    initial = arc_band(p, q, _unit_perp(q - p), 1.0, 9)
    monkeypatch.setattr(band, "TOLERANCE", 1e-12)
    monkeypatch.setattr(band, "MAX_STEPS", 500)
    out = evolve(field, initial)
    nodes = out.nodes if out is not None else initial.nodes
    assert np.array_equal(nodes[0], initial.nodes[0])
    assert np.array_equal(nodes[-1], initial.nodes[-1])


def _unit_perp(v):
    perp = np.array([-v[1], v[0]])
    return perp / np.linalg.norm(perp)


def test_evolve_convergence_certificate():
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    initial = arc_band(np.array([-2.0, 0.0]), np.array([2.0, 0.0]),
                       np.array([0.0, 1.0]), 1.5, 11)
    out = evolve(field, initial)
    forces = _interior_forces(field, out.nodes)
    assert np.linalg.norm(forces, axis=1).mean() < band.TOLERANCE


def test_evolve_straightens_a_fold():
    # nodes 3 and 5 coincide, node 4 one unit above them: the band folds back
    # on itself at node 4, whose tangent is exactly zero at the first step
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    p, q = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    nodes = np.linspace(p, q, 8)
    nodes[5] = nodes[3]
    nodes[4] = nodes[3] + [0.0, 1.0]
    with pytest.raises(DegenerateTangentError):
        tangent(Band(nodes), 4)
    out = evolve(field, Band(nodes))
    assert out is not None
    smooth = evolve(field, arc_band(p, q, np.array([0.0, 1.0]), 1.5, 8))
    assert np.abs(out.nodes - smooth.nodes).max() <= 1e-3


def test_total_force_at_a_fold_is_the_solver_force():
    # at the exact fold of the band above the tangent stays the reference
    # and raises, but the force is the solver's row for that node, bitwise;
    # an index outside 1 <= i <= N - 2 does not wrap round to another node
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    nodes = np.linspace([-2.0, 0.0], [2.0, 0.0], 8)
    nodes[5] = nodes[3]
    nodes[4] = nodes[3] + [0.0, 1.0]
    with pytest.raises(DegenerateTangentError):
        tangent(Band(nodes), 4)
    assert np.array_equal(total_force(field, Band(nodes), 4),
                          band._interior_forces(field, nodes)[3])
    for i in (-1, 0, 7, 8):
        with pytest.raises(InvalidInputError, match="interior"):
            total_force(field, Band(nodes), i)


def test_bands_of_the_bumpy_circle_never_fold(monkeypatch):
    # no node of any band ever comes near a fold, where |u+ + u-| is 0: the
    # premise on which a fold needs no rule of its own
    cloud = synth_bumpy_circle(3, 2.0, 1000, np.random.default_rng(3), angular_spread=0.45)
    ratios = []
    forces = band._interior_forces

    def recording(field, nodes):
        edges = np.diff(nodes, axis=-2)
        up, um = edges[..., 1:, :], edges[..., :-1, :]
        longer = np.maximum(np.linalg.norm(up, axis=-1), np.linalg.norm(um, axis=-1))
        ratios.append((np.linalg.norm(up + um, axis=-1) / longer).min())
        return forces(field, nodes)

    monkeypatch.setattr(band, "_interior_forces", recording)
    config = PipelineConfig(sigma=0.8, seed=3, neb=NebParams(trials_per_pair=6))
    _, report = run(cloud, config)
    assert report.counts["one_cells"] == 3
    assert len(ratios) == report.counts["band_iterations"]
    assert min(ratios) >= 1.0


class RimField(FixedStepField):
    """f = -||y||^2 inside radius 5 and ||y||^2 - 50 outside: a basin ringed by
    a region that pushes bands outward until they overflow.  Records the
    largest coordinate it is queried at."""

    def __init__(self, c):
        self.dimension = 2
        self.c = c
        self.step = 0.01
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


def test_evolve_bands_together_match_each_alone(monkeypatch):
    # the step counts below hold at RimField's step of 0.01 and a band
    # tolerance of 1e-3
    monkeypatch.setattr(band, "TOLERANCE", 1e-3)
    monkeypatch.setattr(band, "MAX_STEPS", 1500)
    p, q = np.array([0.0, 0.0]), np.array([0.0, 0.05])
    bands = [
        # converges at step 21: nearly even spacing on an axis of the basin
        _on_x_axis(np.linspace(-2, 2, 7) + [0, 1e-3, -1e-3, 0, 1e-3, 0, 0]),
        # converges at step 626
        arc_band(np.array([-2.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0]), 3.0, 7),
        # skewed spacing: needs 2598 steps, so it exhausts MAX_STEPS
        _on_x_axis([-4.5, 4.0, 4.1, 4.2, 4.3, 4.4, 4.5]),
        # outside the rim the gradient drives it to overflow by step 620
        arc_band(np.array([10.0, 0.0]), np.array([10.0, 10.0]), np.array([1.0, 0.0]), 4.0, 7),
    ]
    field = RimField(c=40.0)
    with np.errstate(over="ignore", invalid="ignore"):
        together = _evolve_bands(field, bands)
        reversed_order = _evolve_bands(field, bands[::-1])[::-1]
        alone = [evolve(field, b) for b in bands]
        # each failing band fails for its own reason
        monkeypatch.setattr(band, "MAX_STEPS", 5000)
        assert evolve(field, bands[2]) is not None
        monkeypatch.setattr(band, "MAX_STEPS", 1500)
        overflow = RimField(c=40.0)
        evolve(overflow, bands[3])
        assert overflow.largest > 1e150  # squares of its coordinates overflow

    expected = [False, False, True, True]
    for run in (together, reversed_order, alone):
        assert [b is None for b in run] == expected
    for t, r, a, b in zip(together, reversed_order, alone, bands):
        if a is not None:
            assert np.abs(t.nodes - a.nodes).max() <= 1e-12
            assert np.abs(r.nodes - a.nodes).max() <= 1e-12
            assert np.array_equal(t.nodes[[0, -1]], b.nodes[[0, -1]])
    assert _evolve_bands(field, []) == []


def test_evolve_bands_together_match_each_alone_on_kde():
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0], [0.0, 2.5]]), 1.0)
    p, q = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    bands = [arc_band(p, q, np.array([0.0, s]), r, 11)
             for s, r in [(1.0, 0.5), (1.0, 2.0), (-1.0, 1.5), (1.0, 3.5)]]
    together = _evolve_bands(field, bands)
    for t, b in zip(together, bands):
        a = evolve(field, b)
        assert (t is None) == (a is None)
        if a is not None:
            assert np.abs(t.nodes - a.nodes).max() <= 1e-12
            assert np.array_equal(t.nodes[[0, -1]], b.nodes[[0, -1]])


def test_evolve_bands_step_follows_the_densest_endpoint_of_the_stack():
    # three points at (0, 4) make it the densest endpoint: beside the band to
    # it, the band between the two lone points takes that shorter step; alone
    # it takes e sigma / 2 and settles on the same path
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]] + [[0.0, 4.0]] * 3), 1.0)
    lo, hi, peak = np.array([-2.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 4.0])
    bands = [arc_band(lo, hi, np.array([0.0, -1.0]), 1.5, 11),
             arc_band(lo, peak, np.array([1.0, 0.0]), 1.0, 11)]
    tops = []
    step_below = KernelDensity.step_below

    def recorded(self, top):
        tops.append(top)
        return step_below(self, top)

    with mock.patch.object(KernelDensity, "step_below", recorded):
        together = _evolve_bands(field, bands)
        alone = evolve(field, bands[0])
    assert tops == [pytest.approx(field.value(peak), rel=1e-12),
                    pytest.approx(field.value(lo), rel=1e-12)]
    assert field.step_below(tops[0]) < field.step_below(tops[1]) == math.e / 2
    assert np.abs(together[0].nodes - alone.nodes).max() <= 1e-2


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


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
def test_arc_band_nodes_on_circle_through_bow_point(rng, scale):
    for _ in range(5):
        p, q = scale * rng.normal(size=4), scale * rng.normal(size=4)
        d = q - p
        y = rng.normal(size=4)
        y -= (y @ d) * d / (d @ d)
        y /= np.linalg.norm(y)
        r = rng.uniform(0.05, 1.0) * np.linalg.norm(d)
        center = _circumcenter_oracle(p, (p + q + r * y) / 2, q)
        radius = np.linalg.norm(p - center)
        b = arc_band(p, q, y, r, 11)
        assert np.linalg.norm(b.nodes - center, axis=1) == pytest.approx(
            np.full(11, radius), rel=1e-9)


def test_arc_band_flat_bow_at_small_scale():
    # the collinear cut is relative to |q - p|: at 1e-9 scale a bow below it
    # is the straight segment, and a bow just above it or a little flatter
    # than usual is a near-straight arc, never a ConstructionError
    p, q = np.array([1e-9, 2e-9]), np.array([4e-9, 6e-9])
    d = np.linalg.norm(q - p)
    y = _unit_perp(q - p)
    straight = straight_band(p, q, 7).nodes
    for ratio in [1e-12, 1.99e-12, 2.0e-12, 2.01e-12, 4e-12, 1e-9, 1e-6]:
        b = arc_band(p, q, y, ratio * d, 7)
        if ratio < 1.99e-12:
            assert np.array_equal(b.nodes, straight)
        assert np.array_equal(b.nodes[[0, -1]], [p, q])
        # a bow of height ratio * d / 2 evenly spaced in angle is evenly
        # spaced along the chord to well within 1e-4 * d
        assert np.abs(b.nodes - straight).max() <= 1e-4 * d


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


class ScriptedNormal:
    """A generator whose standard normal draws are the given vectors in
    turn, the last one again and again."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]

    def standard_normal(self, size):
        return (self.draws.pop(0) if len(self.draws) > 1 else self.draws[0]).copy()


def test_sphere_band_takes_one_draw_and_refuses_an_endpoint():
    # the draw, made unit, is the circle's third point; a draw on p-hat or
    # q-hat defines no circle apart from them
    p, q = np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])
    b = initial_band_sphere(p, q, 7, ScriptedNormal([0.0, 0.0, 3.0]))
    assert np.array_equal(b.nodes, sphere_arc_band(p, q, np.array([0.0, 0.0, 1.0]), 7).nodes)
    for endpoint in (p, q):
        with pytest.raises(ConstructionError, match="collinear"):
            initial_band_sphere(p, q, 7, ScriptedNormal(endpoint))


@pytest.mark.parametrize("call, message", [
    (lambda rng: Band(np.zeros((2, 3))), "at least 3 nodes"),
    (lambda rng: tangent(straight_band([0.0, 0.0], [1.0, 0.0]), 0), "interior nodes only"),
    (lambda rng: tangent(straight_band([0.0, 0.0], [1.0, 0.0]), 4), "interior nodes only"),
    (lambda rng: initial_band_general(np.zeros(2), np.ones(3), 5, rng), "dimensions differ"),
    (lambda rng: initial_band_general(np.ones(2), np.ones(2), 5, rng), "coincide"),
    (lambda rng: initial_band_sphere(np.zeros(3), np.ones(3), 5, rng), "nonzero"),
    (lambda rng: initial_band_sphere(np.ones(3), np.zeros(3), 5, rng), "nonzero"),
], ids=["two-node-band", "tangent-at-first", "tangent-at-last", "mismatched-endpoints",
        "coincident-endpoints", "zero-p-on-sphere", "zero-q-on-sphere"])
def test_band_inputs_rejected(rng, call, message):
    with pytest.raises(InvalidInputError, match=message):
        call(rng)


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


@pytest.mark.parametrize("offset, kept", [(0.0, False), (0.6, True)])
def test_find_one_cells_discards_by_segment(monkeypatch, offset, kept):
    # the band from (-2, 0) to (2, 0) has nodes at x = +-2/3, more than the
    # resolution 0.5 from the third 0-cell at the origin: its middle segment
    # passes through it, so it is dropped; lifted by 0.6 it is kept
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0], [0.0, 0.0]]), 1.0)
    cells = _zero_cells(field, [[-2.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    nodes = np.array([[-2.0, 0.0], [-2 / 3, offset], [2 / 3, offset], [2.0, 0.0]])
    assert np.linalg.norm(nodes, axis=1).min() > field.resolution
    # the pairs are (0, 1), (0, 2) and (1, 2); only the first band converges
    monkeypatch.setattr(band, "_evolve_bands",
                        lambda field, initial, counts: [Band(nodes), None, None])
    counts = {}
    out = find_one_cells(field, cells, NebParams(trials_per_pair=1),
                         np.random.default_rng(0), counts=counts)
    assert [c.endpoint_indices for c in out] == ([(0, 1)] if kept else [])
    assert counts["band_discarded"] == (0 if kept else 1)
    assert counts["band_converged"] == 1


def bowed_band(lift):
    """Five nodes from (-2, 0) to (2, 0) on the parabola of height lift."""
    x = np.linspace(-2.0, 2.0, 5)
    return Band(np.c_[x, lift * (1.0 - x * x / 4.0)])


def test_find_one_cells_keeps_the_densest_band_of_each_cluster(monkeypatch):
    # one pair, three converged bands: two 0.17 apart (under the resolution
    # 0.5), the less dense one first, and one more on a route far below
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    cells = _zero_cells(field, [[-2.0, 0.0], [2.0, 0.0]])
    low, other, high = bowed_band(0.3), bowed_band(-1.5), bowed_band(0.1)
    assert band_distance(low, high) <= field.resolution < band_distance(low, other)
    assert band_density(field, high) > band_density(field, low)
    monkeypatch.setattr(band, "_evolve_bands",
                        lambda field, initial, counts: [low, other, high])
    counts = {}
    out = find_one_cells(field, cells, NebParams(trials_per_pair=3),
                         np.random.default_rng(0), counts=counts)
    assert len(out) == 2
    assert np.array_equal(out[0].band.nodes, high.nodes)
    assert np.array_equal(out[1].band.nodes, other.nodes)
    for cell in out:
        assert cell.density == band_density(field, cell.band)
        assert cell.endpoint_indices == (0, 1)
    assert out[0].density > out[1].density
    assert counts["band_discarded"] == 0


def test_find_one_cells_pair_with_every_band_discarded(monkeypatch):
    # both converged bands of the pair (0, 1) pass within the resolution of
    # the third 0-cell at the origin; the other pairs' bands do not converge
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0], [0.0, 0.0]]), 1.0)
    cells = _zero_cells(field, [[-2.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    monkeypatch.setattr(band, "_evolve_bands", lambda field, initial, counts:
                        [bowed_band(0.0), bowed_band(0.05)] + [None] * 4)
    counts = {}
    out = find_one_cells(field, cells, NebParams(trials_per_pair=2),
                         np.random.default_rng(0), counts=counts)
    assert out == []
    assert counts["band_converged"] == 2 and counts["band_discarded"] == 2


def ring_field(scale=1.0):
    """KDE of a ring of radius 2 with extra mass at (2, 0) and (-2, 0): its two
    maxima are joined by two minimum-energy paths, over the top and the bottom.
    ``scale`` shrinks the cloud and sigma together."""
    t = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    pts = np.vstack([2.0 * np.c_[np.cos(t), np.sin(t)], [[2.0, 0.0]] * 3, [[-2.0, 0.0]] * 3])
    field = KernelDensity(PointCloud(scale * pts), 0.6 * scale)
    cells = []
    for start in ([2.0, 0.0], [-2.0, 0.0]):
        y = scale * np.array(start)
        for _ in range(200):
            y = field.mean_shift(y)
        cells.append(ZeroCell(position=y, density=field.value(y)))
    return field, cells


class StepView(FixedStepField):
    """The same field with another band step."""

    def __init__(self, field, step):
        self.field, self.step = field, step
        self.dimension, self.c, self.resolution = field.dimension, field.c, field.resolution

    def value_batch(self, ys):
        return self.field.value_batch(ys)

    def gradient_batch(self, ys):
        return self.field.gradient_batch(ys)


def test_find_one_cells_keeps_distinct_paths_of_a_pair():
    field, cells = ring_field()
    counts = {}
    out = find_one_cells(field, cells, NebParams(trials_per_pair=6),
                         np.random.default_rng(1), counts=counts)
    assert counts["band_trials"] == 6
    assert counts["band_trials"] == counts["band_converged"] + counts["band_failed"]
    # one 1-cell over the top of the ring and one under the bottom
    assert len(out) == 2
    assert sorted(np.sign(c.band.nodes[5, 1]) for c in out) == [-1.0, 1.0]
    for c in out:
        assert np.abs(np.linalg.norm(c.band.nodes[1:-1], axis=1) - 1.95).max() < 0.1


def test_find_one_cells_independent_of_step_size():
    field, cells = ring_field()
    default, small = [find_one_cells(f, cells, NebParams(trials_per_pair=6),
                                     np.random.default_rng(1))
                      for f in (field, StepView(field, 0.01))]
    assert len(default) == len(small) == 2
    assert ([c.endpoint_indices for c in default]
            == [c.endpoint_indices for c in small])
    for a, b in zip(default, small):
        assert abs(a.density - b.density) <= 1e-4 * b.density


def _relative_densities(out, cells):
    return sorted(c.density / min(cells[i].density for i in c.endpoint_indices)
                  for c in out)


def test_find_one_cells_on_a_shrunk_ring(monkeypatch):
    # the band step and the resolution follow sigma, so a ring 200 times
    # smaller gives the same 1-cells relative to its 0-cells
    field, cells = ring_field()
    expected = _relative_densities(
        find_one_cells(field, cells, NebParams(trials_per_pair=6),
                       np.random.default_rng(1)), cells)
    scale = 0.005
    field, cells = ring_field(scale)
    counts = {}
    monkeypatch.setattr(band, "MAX_STEPS", 20_000)
    out = find_one_cells(field, cells, NebParams(trials_per_pair=6), np.random.default_rng(1),
                         counts=counts)
    assert counts["band_converged"] == 6
    assert len(out) == 2
    assert sorted(np.sign(c.band.nodes[5, 1]) for c in out) == [-1.0, 1.0]
    assert _relative_densities(out, cells) == pytest.approx(expected, abs=1e-4)


def test_evolve_evens_skewed_spacing_at_a_large_step(monkeypatch):
    # the springs step implicitly, so a step far past the explicit bound of
    # 0.5 still evens the spacing (in 9 steps)
    xs = np.linspace(-4.5, 4.5, 7)
    monkeypatch.setattr(band, "MAX_STEPS", 100)
    out = evolve(ConstantField(2, step=10.0), _on_x_axis([-4.5, 4.0, 4.1, 4.2, 4.3, 4.4, 4.5]))
    assert out is not None
    assert out.nodes == pytest.approx(_on_x_axis(xs).nodes, abs=1e-3)


def test_find_one_cells_single_trial_never_retires():
    field, cells = ring_field()
    counts = {}
    out = find_one_cells(field, cells, NebParams(trials_per_pair=1),
                         np.random.default_rng(1), counts=counts)
    assert counts["band_trials"] == counts["band_converged"] == len(out) == 1


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
