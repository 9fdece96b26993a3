import numpy as np
import pytest

from morsecells import (AscentParams, NebParams, PipelineConfig, PointCloud,
                        betti, run, synth_bumpy_circle, synth_gaussian_mixture)
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
    assert set(report.cell_densities) == {c.id for c in filtration.cells}
    assert report.change_thresholds == sorted(
        {c.density for c in filtration.cells}, reverse=True)
    assert set(report.stage_seconds) == {"zero_cells", "one_cells", "two_cells"}


def test_dimension_cascade(bumpy_result):
    # every cell's density never exceeds the density of any of its faces
    filtration, _ = bumpy_result
    by_id = {c.id: c for c in filtration.cells}
    for cell in filtration.cells:
        for fid in cell.boundary:
            assert cell.density <= by_id[fid].density + 1e-15


def test_single_gaussian_yields_one_vertex():
    cloud = synth_gaussian_mixture([[0.0, 0.0]], 1.0, [1.0], 300,
                                   np.random.default_rng(5))
    filtration, report = run(cloud, PipelineConfig(sigma=1.0, seed=5))
    assert report.counts == {"zero_cells": 1, "one_cells": 0,
                             "candidate_loops": 0, "two_cells": 0}
    assert len(filtration.cells) == 1
    assert any("fewer than two" in note for note in report.notes)


def test_no_maxima_error_propagates():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(50, 2)))
    config = PipelineConfig(
        sigma=1.0, seed=0,
        ascent=AscentParams(tolerance=1e-300, max_iterations=2))
    with pytest.raises(NoMaximaError):
        run(cloud, config)


def test_pipeline_config_validation():
    with pytest.raises(InvalidInputError):
        PipelineConfig(sigma=0.0)


def test_pipeline_config_syncs_sphere_mode():
    config = PipelineConfig(sphere_mode=True)
    assert config.neb.sphere_mode is True


def test_run_deterministic_across_repeats():
    cloud = synth_gaussian_mixture([[0.0, 0.0], [5.0, 0.0]], 1.0, [1.0, 1.0],
                                   300, np.random.default_rng(12))
    config = PipelineConfig(sigma=1.0, seed=12, neb=NebParams(trials_per_pair=4))
    a, _ = run(cloud, config)
    b, _ = run(cloud, config)
    assert all(x.geometry.tobytes() == y.geometry.tobytes()
               and x.density == y.density
               for x, y in zip(a.cells, b.cells))
