import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

from morsecells import KernelDensity, PointCloud, ascend, find_zero_cells, maxima, single_linkage
from morsecells.cwcomplex import components
from morsecells.errors import InvalidInputError, NoMassError, NoMaximaError
from morsecells.maxima import _ascend_seeds

from conftest import grid_search_mode


def two_gaussian_cloud(rng, separation=6.0, count=200):
    centers = np.array([[0.0, 0.0], [separation, 0.0]])
    picks = rng.integers(0, 2, size=count)
    return PointCloud(centers[picks] + rng.standard_normal((count, 2)))


def test_ascend_single_point_cloud():
    x = np.array([1.5, -0.5])
    f = KernelDensity(PointCloud([x]), 1.0)
    out = ascend(f, np.array([1.0, 0.0]))
    # m is constant at x, so the first iterate already sits within the stop
    assert out is not None
    assert np.linalg.norm(out - x) < 2.0  # converged somewhere on the ray
    assert np.linalg.norm(f.mean_shift(out) - out) < f.resolution / 2000


def test_ascend_symmetric_stationary_point():
    f = KernelDensity(PointCloud([[-1.0], [1.0]]), 1.0)
    out = ascend(f, np.array([0.0]))
    assert out == pytest.approx([0.0], abs=1e-15)


def test_ascend_max_iterations_returns_none(monkeypatch):
    f = KernelDensity(PointCloud([[0.0], [4.0]]), 1.0)
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 2)
    out = ascend(f, np.array([1.0]))
    assert out is None
    # the same ascent stops in its fourth iteration
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 4)
    assert ascend(f, np.array([1.0])) is not None


def test_ascend_no_mass_returns_none():
    f = KernelDensity(PointCloud([[0.0]]), 0.01)
    out = ascend(f, np.array([500.0]))
    assert out is None


def loop_ascend(field, y):
    """Reference ascent: one mean_shift call per step."""
    for _ in range(maxima.MAX_ITERATIONS):
        try:
            m = field.mean_shift(y)
        except NoMassError:
            return None
        if np.linalg.norm(m - y) < field.resolution / 2000:
            return y
        y = m
    return None


def test_ascend_seeds_together_match_each_alone(rng, monkeypatch):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 12)
    seeds = np.vstack([cloud.points[:20], [[500.0, 500.0]]])  # the last has no mass
    alone = [ascend(f, s) for s in seeds]
    reference = [loop_ascend(f, s) for s in seeds]
    together = _ascend_seeds(f, seeds)
    # the mix holds converged seeds and seeds that used up max_iterations
    assert 0 < sum(a is None for a in alone[:-1]) < len(alone) - 1
    assert alone[-1] is None
    for a, r, b in zip(alone, reference, together):
        assert (a is None) == (r is None) == (b is None)
        if a is not None:
            assert np.abs(a - b).max() <= 1e-12 and np.abs(r - b).max() <= 1e-12


def test_ascend_seeds_no_mass_among_converged(monkeypatch):
    f = KernelDensity(PointCloud([[0.0]]), 0.01)
    seeds = np.array([[0.0], [500.0], [0.001], [1e-6]])
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 1)
    out = _ascend_seeds(f, seeds)
    # 0.001 moves to 0.0 in its only iteration: not yet converged; 1e-6 is
    # within the stop f.resolution / 2000 = 2.5e-6
    assert out[0] == pytest.approx([0.0]) and out[3] == pytest.approx([1e-6])
    assert out[1] is None and out[2] is None
    assert [ascend(f, s) is None for s in seeds] == [False, True, True, False]
    counts = {}
    _ascend_seeds(f, seeds, counts)
    assert counts == {"ascent_seeds": 4, "ascent_converged": 2, "ascent_no_mass": 1,
                      "ascent_exhausted": 1, "ascent_joined": 0, "ascent_steps": 4}


def test_ascend_seeds_join_endpoints(monkeypatch):
    f = KernelDensity(PointCloud([[0.0]]), 0.01)
    # every seed with mass starts within f.resolution / 4 = 1.25e-3 of the
    # endpoint 0, so it joins before any mean-shift call
    counts = {}
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 1)
    out = _ascend_seeds(f, np.array([[0.0], [500.0], [0.001], [1e-6]]), counts,
                        ends=np.array([[0.0]]))
    assert out == [None] * 4
    assert counts == {"ascent_seeds": 4, "ascent_converged": 0, "ascent_no_mass": 1,
                      "ascent_exhausted": 0, "ascent_joined": 3, "ascent_steps": 1}
    # 1e-6 converges in the first call and becomes an endpoint; 0.001 moves
    # to 0 and joins it before the second call
    counts = {}
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 2)
    out = _ascend_seeds(f, np.array([[1e-6], [0.001]]), counts, ends=np.empty((0, 1)))
    assert out[0] == pytest.approx([1e-6]) and out[1] is None
    assert counts == {"ascent_seeds": 2, "ascent_converged": 1, "ascent_no_mass": 0,
                      "ascent_exhausted": 0, "ascent_joined": 1, "ascent_steps": 2}


def test_ascend_finds_grid_search_modes(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    for center in ([0.0, 0.0], [6.0, 0.0]):
        mode = grid_search_mode(f, center, half_width=1.5)
        out = ascend(f, np.asarray(center, dtype=float))
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


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
def test_single_linkage_rejects_bad_threshold(threshold):
    with pytest.raises(InvalidInputError):
        single_linkage(np.array([[0.0], [0.1]]), threshold)


@st.composite
def linkage_clouds(draw):
    """(points, t): grid points at spacing t (exact ties at a dyadic t),
    chains of steps just under t, scattered points and duplicates, shuffled."""
    t = draw(st.sampled_from([0.125, 0.25, 0.5]))
    dim = draw(st.integers(1, 3))
    cell = st.integers(-4, 4)
    grid = draw(st.lists(st.tuples(*[cell] * dim), max_size=12))
    points = [np.array(g, dtype=float) * t for g in grid]
    for _ in range(draw(st.integers(0, 2))):
        start = np.array(draw(st.tuples(*[cell] * dim)), dtype=float)
        step = np.zeros(dim)
        step[draw(st.integers(0, dim - 1))] = t * (1 - 1e-9)
        points += [start + k * step for k in range(draw(st.integers(2, 5)))]
    coordinate = st.floats(-1.5, 1.5, allow_nan=False)
    points += [np.array(p) for p in draw(st.lists(st.tuples(*[coordinate] * dim),
                                                  max_size=8))]
    if not points:
        points = [np.zeros(dim)]
    points += [points[i] for i in draw(st.lists(st.integers(0, len(points) - 1),
                                                max_size=4))]
    order = draw(st.permutations(range(len(points))))
    return np.array([points[i] for i in order]), t


@settings(deadline=None)
@given(linkage_clouds())
def test_single_linkage_matches_scipy_components(cloud):
    points, t = cloud
    _, labels = connected_components(squareform(pdist(points) <= t), directed=False)
    expected = sorted(np.flatnonzero(labels == k).tolist() for k in range(labels.max() + 1))
    assert single_linkage(points, t) == expected


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_single_linkage_matches_scipy_across_row_blocks(rng, dim):
    # 300 points span five blocks of 64 rows, so clusters cross block edges
    points = rng.uniform(-1.0, 1.0, size=(300, dim))
    dists = pdist(points)
    t = np.quantile(dists, 0.005)
    _, labels = connected_components(squareform(dists <= t), directed=False)
    expected = sorted(np.flatnonzero(labels == k).tolist() for k in range(labels.max() + 1))
    assert 1 < len(expected) < 300
    assert single_linkage(points, t) == expected


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("grid", [True, False])
def test_single_linkage_adjacency_matches_brute_force_across_block_edges(
        monkeypatch, m, n, grid):
    # grid points have exact squared distances, and the threshold is one of
    # them, so some pairs sit exactly at it; random points take a threshold
    # midway between two distances, and their mirrored blocks must match
    # every pair computed the other way round
    rng = np.random.default_rng(100 * m + n)
    if grid:
        points = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        points = rng.uniform(-1.0, 1.0, size=(m, n))
    dists = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    positive = np.sort(dists[dists > 0])
    quarter = len(positive) // 4
    if m == 1:
        t = 1.0
    elif grid:
        t = positive[quarter]
    else:
        t = positive[quarter:quarter + 2].mean()
    adjacencies = []
    monkeypatch.setattr(maxima, "components",
                        lambda a: adjacencies.append(a.copy()) or components(a))
    clusters = single_linkage(points, t)

    rows = np.sqrt(sum(np.square(x[:, None] - x) for x in points.T)) <= t
    assert np.array_equal(adjacencies[0], rows)
    if grid:
        assert np.array_equal(rows, dists <= t)
        assert m == 1 or np.count_nonzero(dists == t) >= 2
    _, labels = connected_components(dists <= t, directed=False)
    assert clusters == sorted(np.flatnonzero(labels == k).tolist()
                              for k in range(labels.max() + 1))


def test_find_zero_cells_two_modes(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    cells = find_zero_cells(f, np.random.default_rng(5))
    assert len(cells) == 2
    modes = [grid_search_mode(f, c, 1.5) for c in ([0.0, 0.0], [6.0, 0.0])]
    for cell in cells:
        assert min(np.linalg.norm(cell.position - m) for m in modes) < 1e-2


def test_find_zero_cells_single_mode(rng):
    cloud = PointCloud(rng.standard_normal((100, 2)))
    f = KernelDensity(cloud, 1.0)
    cells = find_zero_cells(f, np.random.default_rng(1))
    assert len(cells) == 1
    mode = grid_search_mode(f, cells[0].position, 1.0)
    assert np.linalg.norm(cells[0].position - mode) < 1e-2


def test_find_zero_cells_seed_count_bounds(rng, monkeypatch):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    monkeypatch.setattr(maxima, "SEED_COUNT", 1)
    cells = find_zero_cells(f, np.random.default_rng(2))
    assert len(cells) <= 1


def test_find_zero_cells_counts_seed_outcomes(rng, monkeypatch):
    cloud = two_gaussian_cloud(rng, count=40)
    f = KernelDensity(cloud, 1.0)
    counts = {}
    find_zero_cells(f, np.random.default_rng(5), counts=counts)
    # every seed converges, joins an endpoint, loses its mass or runs out
    assert counts["ascent_seeds"] == 40 == (
        counts["ascent_converged"] + counts["ascent_joined"] + counts["ascent_no_mass"]
        + counts["ascent_exhausted"])
    assert counts["ascent_steps"] > 40  # no seed converges in its first iteration
    assert counts["ascent_converged"] >= 2  # one endpoint per mode at least
    counts = {}
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 1)
    with pytest.raises(NoMaximaError):
        find_zero_cells(f, np.random.default_rng(5), counts=counts)
    assert counts == {"ascent_seeds": 40, "ascent_converged": 0, "ascent_no_mass": 0,
                      "ascent_exhausted": 40, "ascent_joined": 0, "ascent_steps": 40}


def test_find_zero_cells_error_when_nothing_converges(rng, monkeypatch):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 1)
    with pytest.raises(NoMaximaError) as err:
        find_zero_cells(f, np.random.default_rng(3))
    assert err.value.seeds_attempted == 200


def test_zero_cell_invariants(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    cells = find_zero_cells(f, np.random.default_rng(4))
    for cell in cells:
        # fixed-point residual and density agreement
        assert np.linalg.norm(f.mean_shift(cell.position) - cell.position) < f.resolution / 2000
        assert cell.density == pytest.approx(f.value(cell.position))
        # idempotence of ascent from the returned position
        again = ascend(f, cell.position)
        assert np.linalg.norm(again - cell.position) < f.resolution / 2000
    # pairwise separation above the clustering length
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            assert np.linalg.norm(cells[i].position - cells[j].position) > f.resolution
    # density-descending order
    densities = [c.density for c in cells]
    assert densities == sorted(densities, reverse=True)


def test_find_zero_cells_deterministic_across_repeats(rng):
    cloud = two_gaussian_cloud(rng)
    f = KernelDensity(cloud, 1.0)
    outs = []
    for _ in range(3):
        cells = find_zero_cells(f, np.random.default_rng(9))
        outs.append([(c.position.tobytes(), np.float64(c.density).tobytes())
                     for c in cells])
    assert outs[0] == outs[1] == outs[2]


def one_phase_zero_cells(field, rng):
    """Reference 0-cells: every seed ascended to the fine stop, single
    linkage at field.resolution, the densest member of each cluster; and
    the mean-shift rows it took."""
    cloud = field.cloud
    idx = rng.choice(len(cloud), size=min(len(cloud), 500), replace=False)
    counts = {}
    pts = np.array([y for y in _ascend_seeds(field, cloud.points[idx], counts)
                    if y is not None])
    dens = field.value_batch(pts)
    modes = [pts[c][np.argmax(dens[c])] for c in single_linkage(pts, field.resolution)]
    return modes, counts["ascent_steps"]


def agreement_cloud(family, k):
    rng = np.random.default_rng(100 + k)
    if family == "two_gaussians":
        return two_gaussian_cloud(rng, separation=3.0 + 0.25 * k, count=300)
    if family == "clusters":
        centers = rng.uniform(-4.0, 4.0, size=(3 + k % 3, 2))
        picks = rng.integers(0, len(centers), size=300)
        return PointCloud(centers[picks] + rng.uniform(0.3, 1.0) * rng.standard_normal((300, 2)))
    t = rng.uniform(0.0, 2.0 * np.pi, 300)  # a noisy ring
    r = 2.0 + 0.15 * rng.standard_normal(300)
    return PointCloud(np.stack([r * np.cos(t), r * np.sin(t)], axis=1))


@pytest.mark.parametrize("k", range(12))
@pytest.mark.parametrize("family", ["two_gaussians", "clusters", "ring"])
def test_joining_search_agrees_with_ascending_every_seed(family, k):
    # seeds that stop at the first endpoint they reach find the modes of
    # the search that ascends every seed to the fine stop, to within a
    # quarter of the clustering length, in fewer mean-shift rows
    f = KernelDensity(agreement_cloud(family, k), 0.2 + 0.8 * k / 11)
    reference, reference_steps = one_phase_zero_cells(f, np.random.default_rng(k))
    counts = {}
    cells = find_zero_cells(f, np.random.default_rng(k), counts)
    assert len(cells) == len(reference)
    for cell in cells:
        assert min(np.linalg.norm(cell.position - r) for r in reference) <= f.resolution / 4
    assert counts["ascent_steps"] < reference_steps
