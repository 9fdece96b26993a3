import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morsecells import (NebParams, PipelineConfig, PointCloud, band, betti, maxima,
                        pipeline, run, sheet, synth_bumpy_circle, synth_gaussian_mixture)
from morsecells.cwcomplex import components
from morsecells.errors import InvalidInputError, NoMaximaError
from morsecells.pipeline import _cycle_basis, _loop_polyline


# ---------------------------------------------------------------------------
# cycle basis

def test_cycle_basis_tree_has_no_cycles():
    assert _cycle_basis(4, [(0, 1), (1, 2), (1, 3)], 6) == []


def test_cycle_basis_triangle():
    cycles = _cycle_basis(3, [(0, 1), (1, 2), (2, 0)], 6)
    assert len(cycles) == 1
    assert sorted(cycles[0]) == [0, 1, 2]


def test_cycle_basis_parallel_edges():
    cycles = _cycle_basis(2, [(0, 1), (0, 1), (0, 1)], 6)
    assert len(cycles) == 2
    for cycle in cycles:
        assert len(cycle) == 2


def test_cycle_basis_respects_max_length():
    # a single long cycle of 7 edges is dropped at cap 6
    ring = [(i, (i + 1) % 7) for i in range(7)]
    assert _cycle_basis(7, ring, 6) == []
    assert len(_cycle_basis(7, ring, 7)) == 1


def test_cycle_basis_count_matches_cycle_rank():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)]
    cycles = _cycle_basis(4, edges, 100)
    assert len(cycles) == len(edges) - 4 + 1  # E - V + components


def test_cycle_basis_disconnected_graph():
    edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
    cycles = _cycle_basis(5, edges, 6)
    assert len(cycles) == 1


def test_cycle_basis_strips_the_common_path_to_the_root():
    # edge 3 = (2, 3) closes a triangle below vertex 1, so the shared tree
    # edge 0 = (0, 1) is stripped; the walk is 2 -> 3, then edges 2 and 1
    assert _cycle_basis(4, [(0, 1), (1, 2), (1, 3), (2, 3)], 6) == [[3, 1, 2]]


# ---------------------------------------------------------------------------
# loop polyline

class _FakeOneCell:
    def __init__(self, nodes, endpoints):
        from morsecells import Band
        self.band = Band(np.asarray(nodes, dtype=float))
        self.endpoint_indices = endpoints


def test_loop_polyline_chains_and_orients():
    a = _FakeOneCell([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]], (0, 1))
    b = _FakeOneCell([[2.0, 0.0], [1.0, 1.5], [0.0, 0.0]], (1, 0))
    poly = _loop_polyline([0, 1], [a, b])
    # closed loop: start point appears once, both interiors present
    assert poly.shape == (4, 2)
    assert np.array_equal(poly[0], [0.0, 0.0])
    assert [1.0, 0.5] in poly.tolist() and [1.0, 1.5] in poly.tolist()


@st.composite
def multigraphs(draw):
    """(vertex count, edges) of a multigraph: at most 7 vertices and 12
    edges, each between distinct vertices."""
    n = draw(st.integers(1, 7))
    if n == 1:
        return n, []
    edge = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    return n, [(a, (a + k) % n) for a, k in draw(st.lists(edge, max_size=12))]


@settings(deadline=None, max_examples=300)
@given(multigraphs())
def test_cycle_basis_cycles_are_closed_walks(graph):
    n, edges = graph
    cycles = _cycle_basis(n, edges, len(edges) + 1)
    adjacency = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = True
    assert len(cycles) == len(edges) - n + len(components(adjacency))
    positions = np.array([[v, v * v] for v in range(n)], dtype=float)
    cells = [_FakeOneCell([positions[a], [100.0 + idx, -1.0], positions[b]], (a, b))
             for idx, (a, b) in enumerate(edges)]
    for cycle in cycles:
        assert len(set(cycle)) == len(cycle)
        start, current = edges[cycle[0]]
        for idx in cycle[:0:-1]:
            a, b = edges[idx]
            assert current in (a, b)
            current = b if current == a else a
        assert current == start
        poly = _loop_polyline(cycle, cells)
        assert poly.shape == (2 * len(cycle), 2)
        assert np.array_equal(poly[0], positions[start])


def test_loop_polyline_reverses_when_needed():
    a = _FakeOneCell([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]], (0, 1))
    # second band also stored from vertex 0 to vertex 1: must be flipped
    b = _FakeOneCell([[0.0, 0.0], [1.0, 1.5], [2.0, 0.0]], (0, 1))
    poly = _loop_polyline([0, 1], [a, b])
    assert poly.shape == (4, 2)
    idx_low = poly.tolist().index([1.0, 0.5])
    idx_high = poly.tolist().index([1.0, 1.5])
    assert idx_low < idx_high  # second band traversed backwards


# ---------------------------------------------------------------------------
# end-to-end runs

@pytest.fixture(scope="module")
def bumpy_result():
    cloud = synth_bumpy_circle(3, 2.0, 1000, np.random.default_rng(3),
                               angular_spread=0.45)
    config = PipelineConfig(sigma=0.8, seed=3, neb=NebParams(trials_per_pair=6))
    return run(cloud, config)


def test_bumpy_circle_cell_counts(bumpy_result):
    filtration, report = bumpy_result
    assert report.counts["zero_cells"] == 3
    assert report.counts["one_cells"] == 3
    assert report.counts["two_cells"] == 1


def test_bumpy_circle_one_cells_form_single_cycle(bumpy_result):
    filtration, _ = bumpy_result
    ones = [c for c in filtration.cells if c.dimension == 1]
    endpoints = sorted(tuple(sorted(c.boundary)) for c in ones)
    assert endpoints == [(0, 1), (0, 2), (1, 2)]


def test_bumpy_circle_full_complex_is_disk(bumpy_result):
    filtration, _ = bumpy_result
    assert betti(list(filtration.cells)) == (1, 0)


def test_report_consistency(bumpy_result):
    filtration, report = bumpy_result
    assert report.counts["zero_cells"] == sum(
        1 for c in filtration.cells if c.dimension == 0)
    assert report.counts["one_cells"] == sum(
        1 for c in filtration.cells if c.dimension == 1)
    assert report.counts["two_cells"] == sum(
        1 for c in filtration.cells if c.dimension == 2)
    assert set(report.stage_seconds) == {"zero_cells", "one_cells", "two_cells"}


def test_report_band_counters(bumpy_result):
    _, report = bumpy_result
    counts = report.counts
    assert counts["band_trials"] == 3 * 6
    assert counts["band_trials"] == counts["band_converged"] + counts["band_failed"]
    assert counts["band_converged"] >= counts["one_cells"]
    assert counts["band_steps"] >= counts["band_trials"]
    assert 1 <= counts["band_iterations"] <= counts["band_steps"]
    assert 0.0 <= counts["band_final_force"] < band.TOLERANCE


def mean_spring_residual(filtration):
    """The mean norm of the 2-cell's interior spring sums, the whole sheet
    force in R^2."""
    (web,) = [c.geometry for c in filtration.cells if c.dimension == 2]
    a, b = sheet._wiring().edges.T
    springs = np.zeros_like(web)
    np.add.at(springs, a, web[b] - web[a])
    np.add.at(springs, b, web[a] - web[b])
    return np.linalg.norm(springs[sheet.INTERIOR], axis=1).mean()


def test_report_sheet_and_loop_counters(bumpy_result, monkeypatch):
    counts = bumpy_result[1].counts
    assert counts["candidate_loops"] == counts["two_cells"] == 1
    assert counts["loops_dropped"] == counts["sheet_failed"] == 0
    assert counts["sheet_steps"] == 1
    assert mean_spring_residual(bumpy_result[0]) <= 1e-12
    assert 0.0 <= counts["sheet_final_force"] < sheet.TOLERANCE
    # a 2-cell's tangent plane in R^2 is all of R^2, so the sheet takes no
    # gradient and no tangent basis
    assert counts["sheet_gradient_rows"] == 0
    # the same run with a sheet that cannot converge in its budget of one
    # step (a harmonic web converges at its first evaluation under any
    # budget, so the tolerance is 0), and with the loop of three 1-cells
    # over MAX_LOOP_LENGTH
    cloud = synth_bumpy_circle(3, 2.0, 1000, np.random.default_rng(3),
                               angular_spread=0.45)
    config = PipelineConfig(sigma=0.8, seed=3, neb=NebParams(trials_per_pair=6))
    monkeypatch.setattr(sheet, "TOLERANCE", 0.0)
    monkeypatch.setattr(sheet, "MAX_STEPS", 1)
    counts = run(cloud, config)[1].counts
    assert counts["two_cells"] == counts["loops_dropped"] == 0
    assert counts["sheet_failed"] == 1 and counts["sheet_steps"] == 2
    assert counts["sheet_final_force"] == 0.0
    monkeypatch.setattr(pipeline, "MAX_LOOP_LENGTH", 2)
    _, report = run(cloud, config)
    assert report.counts["candidate_loops"] == report.counts["sheet_steps"] == 0
    assert report.counts["loops_dropped"] == 1


def test_dimension_cascade(bumpy_result):
    # every cell's density never exceeds the density of any of its faces
    filtration, _ = bumpy_result
    by_id = {c.id: c for c in filtration.cells}
    for cell in filtration.cells:
        for fid in cell.boundary:
            assert cell.density <= by_id[fid].density + 1e-15


@pytest.mark.parametrize("scale", [0.001, 0.003, 0.01, 0.1, 10.0])
def test_bumpy_circle_cells_follow_the_scale(bumpy_result, scale):
    # the clustering and discard lengths and the ascent stops follow sigma, so
    # the criterion-06 cloud and sigma scaled together give the same cells,
    # scaled, the same 0-cells up to rounding and the same mean-shift rows.
    # The web starts at its loop's harmonic extension, where the spring sums
    # are round-off at any scale, so the sheet converges at its first force
    # evaluation and the absolute TOLERANCE plays no part: the largest mean
    # residual measured 9.2e-16 of the scale, against 0.085 at 0.003 and
    # 0.01 when the web started from a cone and stopped at TOLERANCE
    cloud = synth_bumpy_circle(3, 2.0, 1000, np.random.default_rng(3),
                               angular_spread=0.45)
    config = PipelineConfig(sigma=0.8 * scale, seed=3, neb=NebParams(trials_per_pair=6))
    filtration, report = run(PointCloud(scale * cloud.points), config)
    assert [report.counts[k] for k in ("zero_cells", "one_cells", "two_cells")] == [3, 3, 1]
    assert report.counts["ascent_steps"] == bumpy_result[1].counts["ascent_steps"]
    expected = [c.geometry[0] for c in bumpy_result[0].cells if c.dimension == 0]
    zeros = [c.geometry[0] / scale for c in filtration.cells if c.dimension == 0]
    for z, e in zip(zeros, expected):
        assert np.linalg.norm(z - e) <= 1e-12
    assert report.counts["sheet_steps"] == 1
    assert mean_spring_residual(filtration) <= 1e-12 * scale


_ROTATION = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
_FRAME = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 2)))[0]
_FRAME_R8 = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 2)))[0]
_PERMUTATION = np.random.default_rng(5).permutation(1000)


# (transform of the points, map of the geometry back, density factor, density
# relative bound, geometry absolute bound).  Each bound is at least 10x the
# error measured on this input, rounded up to a power of ten: rotation
# 6.2e-16 / 3.6e-15, translation by (1e4, -3e4) 1.8e-13 / 4.4e-12, by
# (1e6, -1e6) 5.1e-12 / 2.1e-10, row permutation 8.6e-6 / 3.7e-4 (the
# mean-shift seeds change, so the cells move within the solver stops),
# embedding in R^3 3.8e-6 / 1.0e-4 and embedding in R^8 1.4e-5 / 1.1e-3 (the
# bands leave the plane by up to 2e-4 within their stop).  The R^8 sheet takes
# the gradient and tangent-plane path that a planar web in R^2 skips.
_METAMORPHIC = {
    "rotation": (lambda x: x @ _ROTATION.T, lambda g: g @ _ROTATION, 1.0, 1e-14, 1e-13),
    "translation_1e4": (lambda x: x + [1e4, -3e4], lambda g: g - [1e4, -3e4], 1.0,
                        1e-11, 1e-10),
    "translation_1e6": (lambda x: x + [1e6, -1e6], lambda g: g - [1e6, -1e6], 1.0,
                        1e-10, 1e-8),
    "permutation": (lambda x: x[_PERMUTATION], lambda g: g, 1.0, 1e-4, 1e-2),
    # a plane in R^3: the kernel's normal factor 1/(sigma sqrt(2 pi)) is undone
    "embedding_r3": (lambda x: x @ _FRAME.T, lambda g: g @ _FRAME,
                     np.sqrt(2 * np.pi * 0.8 ** 2), 1e-4, 1e-2),
    "embedding_r8": (lambda x: x @ _FRAME_R8.T, lambda g: g @ _FRAME_R8,
                     np.sqrt(2 * np.pi * 0.8 ** 2) ** 6, 1e-3, 1e-1),
}


@pytest.mark.parametrize("name", sorted(_METAMORPHIC))
def test_bumpy_circle_cells_follow_isometries(bumpy_result, name):
    forward, back, factor, density_bound, geometry_bound = _METAMORPHIC[name]
    cloud = synth_bumpy_circle(3, 2.0, 1000, np.random.default_rng(3),
                               angular_spread=0.45)
    config = PipelineConfig(sigma=0.8, seed=3, neb=NebParams(trials_per_pair=6))
    moved, report = run(PointCloud(forward(cloud.points)), config)
    moved = moved.cells
    cells = bumpy_result[0].cells
    assert ([(c.id, c.dimension, c.boundary) for c in moved]
            == [(c.id, c.dimension, c.boundary) for c in cells])
    for m, c in zip(moved, cells):
        assert abs(m.density * factor - c.density) <= density_bound * c.density
        assert np.abs(back(m.geometry) - c.geometry).max() <= geometry_bound


def test_cell_counts_settle_by_band_tolerance_1e5(monkeypatch):
    # the criterion-06 cloud at sigma = 0.3: bands stopped at a looser
    # tolerance can miss their cluster, but 1e-5 and 1e-6 agree
    cloud = synth_bumpy_circle(3, 2.0, 1000, np.random.default_rng(3),
                               angular_spread=0.45)
    config = PipelineConfig(sigma=0.3, seed=3, neb=NebParams(trials_per_pair=6))
    counts = []
    for tolerance in (1e-5, 1e-6):
        monkeypatch.setattr(band, "TOLERANCE", tolerance)
        report = run(cloud, config)[1]
        assert report.counts["band_converged"] == report.counts["band_trials"]
        counts.append([report.counts[k] for k in ("zero_cells", "one_cells", "two_cells")])
    assert counts[0] == counts[1] == [3, 6, 4]


def test_six_bump_ring_discards_bands_across_the_ring():
    # six modes on a ring: only the 6 adjacent pairs have 1-cells; every
    # trial of the 9 other pairs slides onto a third 0-cell and is discarded
    cloud = synth_bumpy_circle(6, 3.0, 1500, np.random.default_rng(6),
                               angular_spread=0.3)
    config = PipelineConfig(sigma=0.6, seed=3, neb=NebParams(trials_per_pair=6))
    counts = run(cloud, config)[1].counts
    assert [counts[k] for k in ("zero_cells", "one_cells", "two_cells")] == [6, 6, 1]
    assert counts["band_trials"] == counts["band_converged"] == 15 * 6
    assert counts["band_discarded"] == 9 * 6


def test_single_gaussian_yields_one_vertex():
    cloud = synth_gaussian_mixture([[0.0, 0.0]], 1.0, [1.0], 300,
                                   np.random.default_rng(5))
    filtration, report = run(cloud, PipelineConfig(sigma=1.0, seed=5))
    assert report.counts == {"zero_cells": 1, "one_cells": 0,
                             "candidate_loops": 0, "two_cells": 0,
                             "loops_dropped": 0, "sheet_steps": 0,
                             "sheet_gradient_rows": 0, "sheet_failed": 0,
                             "sheet_final_force": 0.0,
                             "ascent_seeds": 300,
                             "ascent_converged": 2, "ascent_no_mass": 0,
                             "ascent_exhausted": 0, "ascent_joined": 298,
                             "ascent_steps": 2400}
    assert len(filtration.cells) == 1
    assert any("fewer than two" in note for note in report.notes)


def test_no_maxima_error_propagates(monkeypatch):
    cloud = PointCloud(np.random.default_rng(0).normal(size=(50, 2)))
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 2)
    with pytest.raises(NoMaximaError):
        run(cloud, PipelineConfig(sigma=1.0, seed=0))


def test_pipeline_config_validation():
    with pytest.raises(InvalidInputError):
        PipelineConfig(sigma=0.0)


@pytest.mark.parametrize("sphere_mode, used, unused", [
    (True, "initial_band_sphere", "initial_band_general"),
    (False, "initial_band_general", "initial_band_sphere"),
])
def test_run_sphere_mode_picks_initial_band(monkeypatch, sphere_mode, used, unused):
    calls = {used: 0, unused: 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(band, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(band, name, counted)
    cloud = synth_gaussian_mixture([[3.0, 0.0], [0.0, 3.0]], 0.5, [1.0, 1.0],
                                   200, np.random.default_rng(2))
    monkeypatch.setattr(band, "MAX_STEPS", 10)
    config = PipelineConfig(sigma=1.0, seed=2, sphere_mode=sphere_mode,
                            neb=NebParams(trials_per_pair=3))
    _, report = run(cloud, config)
    assert report.counts["zero_cells"] == 2
    assert calls == {used: 3, unused: 0}


def test_run_deterministic_across_repeats():
    cloud = synth_gaussian_mixture([[0.0, 0.0], [5.0, 0.0]], 1.0, [1.0, 1.0],
                                   300, np.random.default_rng(12))
    config = PipelineConfig(sigma=1.0, seed=12, neb=NebParams(trials_per_pair=4))
    a, _ = run(cloud, config)
    b, _ = run(cloud, config)
    assert all(x.geometry.tobytes() == y.geometry.tobytes()
               and x.density == y.density
               for x, y in zip(a.cells, b.cells))
