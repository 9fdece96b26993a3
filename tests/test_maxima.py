import numpy as np
import pytest

from morsecells import AscentParams, KernelDensity, PointCloud, ascend, find_zero_cells, single_linkage
from morsecells.errors import InvalidInputError, NoMaximaError

from conftest import grid_search_mode


def two_gaussian_cloud(rng, separation=6.0, count=200):
    centers = np.array([[0.0, 0.0], [separation, 0.0]])
    picks = rng.integers(0, 2, size=count)
    return PointCloud(centers[picks] + rng.standard_normal((count, 2)))


def test_ascend_single_point_cloud():
    x = np.array([1.5, -0.5])
    f = KernelDensity(PointCloud([x]), 1.0)
    out = ascend(f, np.array([1.0, 0.0]), AscentParams())
    # m is constant at x, so the first iterate already sits within tolerance
    assert out is not None
    assert np.linalg.norm(out - x) < 2.0  # converged somewhere on the ray
    assert np.linalg.norm(f.mean_shift(out) - out) < AscentParams().tolerance


def test_ascend_symmetric_stationary_point():
    f = KernelDensity(PointCloud([[-1.0], [1.0]]), 1.0)
    out = ascend(f, np.array([0.0]), AscentParams())
    assert out == pytest.approx([0.0], abs=1e-15)


def test_ascend_max_iterations_returns_none():
    f = KernelDensity(PointCloud([[0.0], [4.0]]), 1.0)
    out = ascend(f, np.array([1.0]), AscentParams(tolerance=1e-15, max_iterations=5))
    assert out is None


def test_ascend_no_mass_returns_none():
    f = KernelDensity(PointCloud([[0.0]]), 0.01)
    out = ascend(f, np.array([500.0]), AscentParams())
    assert out is None


def test_ascend_finds_grid_search_modes(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    for center in ([0.0, 0.0], [6.0, 0.0]):
        mode = grid_search_mode(f, center, half_width=1.5)
        out = ascend(f, np.asarray(center, dtype=float), AscentParams())
        assert out is not None
        assert np.linalg.norm(out - mode) < 1e-2


def test_single_linkage_below_threshold():
    assert len(single_linkage(np.array([[0.0], [0.2]]), 0.3)) == 1


def test_single_linkage_above_threshold():
    assert len(single_linkage(np.array([[0.0], [0.4]]), 0.3)) == 2


def test_single_linkage_chaining():
    clusters = single_linkage(np.array([[0.0], [0.25], [0.5]]), 0.3)
    assert len(clusters) == 1
    assert sorted(clusters[0]) == [0, 1, 2]


def test_single_linkage_empty():
    assert single_linkage(np.empty((0, 2)), 0.3) == []


def test_single_linkage_rejects_bad_threshold():
    with pytest.raises(InvalidInputError):
        single_linkage(np.array([[0.0]]), 0.0)


def test_find_zero_cells_two_modes(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    cells = find_zero_cells(f, AscentParams(), 0.3, np.random.default_rng(5))
    assert len(cells) == 2
    modes = [grid_search_mode(f, c, 1.5) for c in ([0.0, 0.0], [6.0, 0.0])]
    for cell in cells:
        assert min(np.linalg.norm(cell.position - m) for m in modes) < 1e-2


def test_find_zero_cells_single_mode(rng):
    cloud = PointCloud(rng.standard_normal((100, 2)))
    f = KernelDensity(cloud, 1.0)
    cells = find_zero_cells(f, AscentParams(), 0.3, np.random.default_rng(1))
    assert len(cells) == 1
    mode = grid_search_mode(f, cells[0].position, 1.0)
    assert np.linalg.norm(cells[0].position - mode) < 1e-2


def test_find_zero_cells_seed_count_bounds(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    cells = find_zero_cells(f, AscentParams(seed_count=1), 0.3,
                            np.random.default_rng(2))
    assert len(cells) <= 1


def test_find_zero_cells_error_when_nothing_converges(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    params = AscentParams(tolerance=1e-300, max_iterations=3)
    with pytest.raises(NoMaximaError) as err:
        find_zero_cells(f, params, 0.3, np.random.default_rng(3))
    assert err.value.seeds_attempted == 200


def test_zero_cell_invariants(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    params = AscentParams()
    cells = find_zero_cells(f, params, 0.3, np.random.default_rng(4))
    for cell in cells:
        # fixed-point residual and density agreement
        assert np.linalg.norm(f.mean_shift(cell.position) - cell.position) < params.tolerance
        assert cell.density == pytest.approx(f.value(cell.position))
        # idempotence of ascent from the returned position
        again = ascend(f, cell.position, params)
        assert np.linalg.norm(again - cell.position) < params.tolerance
    # pairwise separation above the cluster threshold
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            assert np.linalg.norm(cells[i].position - cells[j].position) > 0.3
    # density-descending order
    densities = [c.density for c in cells]
    assert densities == sorted(densities, reverse=True)


def test_find_zero_cells_deterministic_across_repeats(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    outs = []
    for _ in range(3):
        cells = find_zero_cells(f, AscentParams(), 0.3, np.random.default_rng(9))
        outs.append([(c.position.tobytes(), np.float64(c.density).tobytes())
                     for c in cells])
    assert outs[0] == outs[1] == outs[2]
