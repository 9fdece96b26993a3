import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morsecells import (PatchConfig, PointCloud, UnweightedGraph, dct_basis,
                        mds_embed, preprocess_patches, read_graph,
                        read_point_cloud, shortest_path_distances,
                        sliding_window, synth_bumpy_circle,
                        synth_gaussian_mixture, synth_noisy_circle,
                        write_point_cloud)
from morsecells.errors import (DataError, InvalidInputError, MorseCellsError,
                               ParseError)
from morsecells.ingestion import _grid_laplacian


# ---------------------------------------------------------------------------
# CSV point clouds

def test_point_cloud_round_trip(tmp_path, rng):
    cloud = PointCloud(rng.normal(size=(30, 4)))
    path = str(tmp_path / "cloud.csv")
    write_point_cloud(cloud, path)
    back = read_point_cloud(path)
    assert np.array_equal(back.points, cloud.points)  # bitwise, %.17g suffices


def test_read_point_cloud_skips_blank_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1,2\n\n3,4\n")
    assert read_point_cloud(str(path)).points.shape == (2, 2)


def test_read_point_cloud_ragged_row_reports_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(ParseError) as err:
        read_point_cloud(str(path))
    assert err.value.line == 2


def test_read_point_cloud_bad_float_reports_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        read_point_cloud(str(path))
    assert err.value.line == 2


def test_read_point_cloud_empty_file(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_point_cloud(str(path))


def test_read_point_cloud_not_utf8_is_parse_error(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b"\xff\xfe1,2\n")
    with pytest.raises(ParseError):
        read_point_cloud(str(path))


# CSV-like fragments, so that random files often parse partway or fully
_CSV_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from([b"1", b"-2.5", b"1e308", b"1e999", b"nan", b"inf",
                              b",", b"\n", b"\r", b" ", b"\x00", b"\xff",
                              b"\xe2\x82", b"x"]), max_size=24).map(b"".join))


@settings(deadline=None, max_examples=300)
@given(_CSV_BYTES)
def test_read_point_cloud_random_bytes_raise_only_package_errors(tmp_path_factory,
                                                                 data):
    path = tmp_path_factory.mktemp("fuzz") / "c.csv"
    path.write_bytes(data)
    try:
        cloud = read_point_cloud(str(path))
    except MorseCellsError:
        return
    assert cloud.points.ndim == 2 and np.isfinite(cloud.points).all()


# ---------------------------------------------------------------------------
# Graphs and shortest paths

def test_graph_validation():
    with pytest.raises(DataError):
        UnweightedGraph(3, ((0, 0),))
    with pytest.raises(DataError):
        UnweightedGraph(3, ((0, 3),))
    with pytest.raises(DataError):
        UnweightedGraph(3, ((0, 1), (1, 0)))


def test_read_graph(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    g = read_graph(str(path))
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_read_graph_bad_header(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("four edges\n")
    with pytest.raises(ParseError):
        read_graph(str(path))


def test_read_graph_edge_count_must_match_header(tmp_path):
    path = tmp_path / "g.txt"
    for text in ("3 1\n0 1\n1 2\n", "3 2\n0 1\n"):
        path.write_text(text)
        with pytest.raises(ParseError, match="promises"):
            read_graph(str(path))


def test_shortest_paths_path_graph():
    g = UnweightedGraph(4, ((0, 1), (1, 2), (2, 3)))
    dist = shortest_path_distances(g)
    expected = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    assert np.array_equal(dist, expected)


def test_shortest_paths_complete_graph():
    edges = tuple(itertools.combinations(range(5), 2))
    dist = shortest_path_distances(UnweightedGraph(5, edges))
    assert np.array_equal(dist, np.ones((5, 5)) - np.eye(5))


def floyd_warshall(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for a, b in edges:
        d[a, b] = d[b, a] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def test_shortest_paths_random_graph_vs_floyd_warshall(rng):
    n = 20
    pairs = list(itertools.combinations(range(n), 2))
    # a spanning path keeps it connected; extra random chords
    base = [(i, i + 1) for i in range(n - 1)]
    extra = [pairs[i] for i in rng.choice(len(pairs), size=25, replace=False)]
    edges = tuple(set(base) | {(min(a, b), max(a, b)) for a, b in extra})
    dist = shortest_path_distances(UnweightedGraph(n, edges))
    assert np.array_equal(dist, floyd_warshall(n, edges))


def test_shortest_paths_disconnected_reports_component_sizes():
    g = UnweightedGraph(5, ((0, 1), (2, 3)))
    with pytest.raises(DataError) as err:
        shortest_path_distances(g)
    assert "[1, 2, 2]" in str(err.value)


# ---------------------------------------------------------------------------
# MDS

def _grid_distances(rows, cols):
    vertex = np.arange(rows * cols).reshape(rows, cols)
    right = zip(vertex[:, :-1].ravel(), vertex[:, 1:].ravel())
    down = zip(vertex[:-1].ravel(), vertex[1:].ravel())
    return shortest_path_distances(UnweightedGraph(rows * cols, (*right, *down)))


def _cycle_distances(n):
    return shortest_path_distances(
        UnweightedGraph(n, tuple((i, (i + 1) % n) for i in range(n))))


def test_mds_equilateral_triangle():
    delta = np.ones((3, 3)) - np.eye(3)
    for dim in (2, 5):  # R^5 has more dimensions than there are points
        out = mds_embed(delta, dim)
        assert out.stress < 1e-6
        pts = out.cloud.points
        assert pts.shape == (3, dim)
        for i, j in itertools.combinations(range(3), 2):
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(1.0, abs=1e-4)


def test_mds_collinear_three_points():
    # exactly realizable: three points on a line with gaps 1 and 1
    delta = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    out = mds_embed(delta, 2)
    assert out.stress < 1e-10
    pts = out.cloud.points
    assert np.linalg.norm(pts[0] - pts[1]) == pytest.approx(1.0, abs=1e-5)
    assert np.linalg.norm(pts[1] - pts[2]) == pytest.approx(1.0, abs=1e-5)
    assert np.linalg.norm(pts[0] - pts[2]) == pytest.approx(2.0, abs=1e-5)


def test_mds_zero_distances():
    out = mds_embed(np.zeros((4, 4)), 2)
    assert out.stress == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(out.cloud.points, out.cloud.points[0])


def test_mds_stress_monotone_nonincreasing():
    # the 3 x 8 grid graph takes 58 transforms from classical scaling
    out = mds_embed(_grid_distances(3, 8), 2)
    hist = np.array(out.stress_history)
    assert len(hist) > 20
    assert (np.diff(hist) <= 1e-12 * np.maximum(hist[:-1], 1e-300)).all()
    assert out.stress == hist[-1]


@pytest.mark.parametrize("delta, random_start_minimum", [
    (_cycle_distances(8), 3.4173606922217883),
    (_cycle_distances(30), 502.36362853177997),
    (_grid_distances(5, 5), 55.30440655276949),
], ids=["C8", "C30", "grid5x5"])
def test_mds_reaches_the_random_start_minimum_in_the_plane(delta, random_start_minimum):
    # the least final stress of five uniform random starts (seeds 0-4, 1,000
    # transforms each); one of them stuck at 378.5 on the 5 x 5 grid
    assert mds_embed(delta, 2).stress <= random_start_minimum * (1 + 1e-9)


def test_mds_input_validation():
    with pytest.raises(InvalidInputError):
        mds_embed(np.ones((2, 3)), 2)
    with pytest.raises(InvalidInputError):
        mds_embed(np.zeros((0, 0)), 2)
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InvalidInputError):
        mds_embed(bad, 2)
    with pytest.raises(InvalidInputError):
        mds_embed(np.eye(3), 2)  # nonzero diagonal
    for value in (np.inf, np.nan):
        delta = np.ones((3, 3)) - np.eye(3)
        delta[0, 1] = delta[1, 0] = value
        with pytest.raises(InvalidInputError, match="distances must be finite"):
            mds_embed(delta, 2)


# ---------------------------------------------------------------------------
# DCT basis

def d_inner(x, y, lap):
    return float(x @ lap @ y)


@pytest.mark.parametrize("side,count", [(3, 8), (5, 24)])
def test_dct_basis_shape(side, count):
    basis = dct_basis(side)
    assert basis.shape == (count, side * side)


@pytest.mark.parametrize("side", [3, 5])
def test_dct_basis_zero_mean(side):
    basis = dct_basis(side)
    assert np.abs(basis.sum(axis=1)).max() < 1e-10


@pytest.mark.parametrize("side", [3, 5])
def test_dct_basis_d_orthonormal_direct_sum_oracle(side):
    """Gram matrix via the raw adjacent-pixel difference sum, not the matrix."""
    basis = dct_basis(side)

    def d_inner_direct(x, y):
        xs = x.reshape(side, side, order="F")
        ys = y.reshape(side, side, order="F")
        total = 0.0
        for r in range(side):
            for c in range(side):
                if r + 1 < side:
                    total += (xs[r, c] - xs[r + 1, c]) * (ys[r, c] - ys[r + 1, c])
                if c + 1 < side:
                    total += (xs[r, c] - xs[r, c + 1]) * (ys[r, c] - ys[r, c + 1])
        return total

    k = basis.shape[0]
    gram = np.array([[d_inner_direct(basis[i], basis[j]) for j in range(k)]
                     for i in range(k)])
    assert np.abs(gram - np.eye(k)).max() < 1e-10


def test_dct_basis_linear_gradient_positions():
    # index 0 varies horizontally (across columns), constant down columns
    for side, vert_index in ((3, 1), (5, 4)):
        basis = dct_basis(side)
        e1 = basis[0].reshape(side, side, order="F")
        assert np.abs(np.diff(e1, axis=0)).max() < 1e-12  # constant vertically
        assert np.abs(np.diff(e1, axis=1)).max() > 0      # varies horizontally
        ev = basis[vert_index].reshape(side, side, order="F")
        assert np.abs(np.diff(ev, axis=1)).max() < 1e-12  # constant horizontally
        assert np.abs(np.diff(ev, axis=0)).max() > 0      # varies vertically


def test_dct_basis_unsupported_side():
    with pytest.raises(InvalidInputError):
        dct_basis(4)


# ---------------------------------------------------------------------------
# Patch preprocessing

def test_preprocess_patches_unit_norm_zero_mean(rng):
    raster = np.exp(rng.normal(size=(40, 40)))
    cfg = PatchConfig(side=3, modality="optical", sample_size=500)
    cloud = preprocess_patches([raster], cfg, rng)
    assert np.linalg.norm(cloud.points, axis=1) == pytest.approx(
        np.ones(len(cloud.points)), abs=1e-10)
    assert len(cloud.points) == 100  # top 20 percent of 500


def test_preprocess_patches_scaled_basis_vector_maps_to_coordinate(rng):
    # a raster tiled from one basis patch yields points at +-e_k
    side = 3
    basis = dct_basis(side)
    k = 2
    patch = basis[k].reshape(side, side, order="F")
    raster = np.exp(np.tile(patch, (6, 6)))  # log restores the patch grid
    cfg = PatchConfig(side=side, modality="optical",
                      contrast_quantile=1.0, sample_size=400)
    cloud = preprocess_patches([raster], cfg, rng)
    coords = cloud.points
    # patches aligned with the tile boundary recover exactly +-e_k; all
    # points are unit vectors regardless of alignment
    assert np.linalg.norm(coords, axis=1) == pytest.approx(
        np.ones(len(coords)), abs=1e-10)
    aligned = np.abs(np.abs(coords[:, k]) - 1.0) < 1e-8
    assert aligned.any()
    for row in coords[aligned]:
        expected = np.zeros(8)
        expected[k] = np.sign(row[k])
        assert row == pytest.approx(expected, abs=1e-8)


def test_preprocess_patches_constant_patches_excluded(rng):
    # half the raster is constant: constant patches have zero contrast and
    # must never appear in the output
    raster = np.ones((30, 30))
    raster[:, 15:] = np.exp(rng.normal(size=(30, 15)))
    cfg = PatchConfig(side=3, modality="range", contrast_quantile=1.0,
                      sample_size=300)
    cloud = preprocess_patches([raster], cfg, rng)
    assert np.isfinite(cloud.points).all()
    assert np.linalg.norm(cloud.points, axis=1) == pytest.approx(
        np.ones(len(cloud.points)), abs=1e-10)
    assert len(cloud.points) < 300


def test_preprocess_patches_nonpositive_log_raises(rng):
    raster = np.ones((10, 10))
    raster[5, 5] = -1.0
    with pytest.raises(DataError):
        preprocess_patches([raster], PatchConfig(side=3, modality="optical",
                                                 sample_size=200), rng)


def test_preprocess_flow_patches(rng):
    u = rng.normal(size=(25, 25))
    v = rng.normal(size=(25, 25))
    cfg = PatchConfig(side=3, modality="flow", sample_size=200)
    cloud = preprocess_patches([(u, v)], cfg, rng)
    assert cloud.points.shape[1] == 16  # 8 coordinates per component
    # joint contrast normalization: the pair has unit combined norm
    norms = np.linalg.norm(cloud.points, axis=1)
    assert norms == pytest.approx(np.ones(len(norms)), abs=1e-10)


def test_preprocess_flow_mismatched_shapes(rng):
    with pytest.raises(DataError):
        preprocess_patches([(np.ones((10, 10)), np.ones((10, 9)))],
                           PatchConfig(side=3, modality="flow", sample_size=10),
                           rng)


def test_patch_config_validation():
    with pytest.raises(InvalidInputError):
        PatchConfig(modality="sonar")
    with pytest.raises(InvalidInputError):
        PatchConfig(contrast_quantile=0.0)
    for side in (1, 4):
        with pytest.raises(InvalidInputError, match="unsupported patch side"):
            PatchConfig(side=side)


# ---------------------------------------------------------------------------
# Sliding window

def test_sliding_window_counts():
    series = np.arange(47 * 6, dtype=float).reshape(6, 47)
    cloud = sliding_window(series, 5)
    assert cloud.points.shape == (43, 30)


def test_sliding_window_window_one_is_transpose():
    series = np.arange(12, dtype=float).reshape(3, 4)
    cloud = sliding_window(series, 1)
    assert np.array_equal(cloud.points, series.T)


def test_sliding_window_hand_stacked():
    series = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    cloud = sliding_window(series, 2)
    expected = np.array([[1.0, 10.0, 2.0, 20.0],
                         [2.0, 20.0, 3.0, 30.0]])
    assert np.array_equal(cloud.points, expected)


def test_sliding_window_validation():
    series = np.ones((2, 5))
    with pytest.raises(InvalidInputError):
        sliding_window(series, 0)
    with pytest.raises(InvalidInputError):
        sliding_window(series, 6)
    bad = series.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        sliding_window(bad, 2)


def _written(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp, rng: read_graph(_written(tmp / "g.txt", "")), ParseError, "empty graph file"),
    (lambda tmp, rng: read_graph(_written(tmp / "g.txt", "3 2\n0 1\n1 x\n")),
     ParseError, "edge line must be 'i j'"),
    (lambda tmp, rng: mds_embed(np.ones((3, 3)) - np.eye(3), 0), InvalidInputError,
     "target_dim must be >= 1"),
    (lambda tmp, rng: preprocess_patches([np.ones((2, 8))], PatchConfig(sample_size=10), rng),
     DataError, "too small for 3x3 patches"),
    # log 2 and log 6 patches: the quadratic form x^T L x reads -4e-16 and
    # +4e-15 on them
    (lambda tmp, rng: preprocess_patches([np.full((6, 6), 2.0)], PatchConfig(sample_size=10),
                                         rng), DataError, "zero contrast"),
    (lambda tmp, rng: preprocess_patches([np.full((6, 6), 6.0)], PatchConfig(sample_size=10),
                                         rng), DataError, "zero contrast"),
    (lambda tmp, rng: sliding_window(np.arange(5.0), 2), InvalidInputError,
     "series must be a"),
], ids=["empty-graph-file", "bad-edge-line", "mds-target-dim-0", "raster-below-patch",
        "zero-contrast-patches-2", "zero-contrast-patches-6", "one-dimensional-series"])
def test_ingestion_inputs_rejected(tmp_path, rng, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path, rng)


def test_read_series(tmp_path):
    # a series CSV (one row per variable) reads as its (variables, time) matrix
    path = tmp_path / "s.csv"
    path.write_text("1,2,3\n4,5,6\n")
    assert np.array_equal(read_point_cloud(str(path)).points,
                          np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))


# ---------------------------------------------------------------------------
# Synthetic clouds

def test_synth_gaussian_mixture_means(rng):
    cloud = synth_gaussian_mixture([[0.0, 0.0], [10.0, 0.0]], 0.5, [1.0, 1.0],
                                   4000, rng)
    left = cloud.points[cloud.points[:, 0] < 5]
    right = cloud.points[cloud.points[:, 0] >= 5]
    assert np.linalg.norm(left.mean(axis=0) - [0.0, 0.0]) < 0.15
    assert np.linalg.norm(right.mean(axis=0) - [10.0, 0.0]) < 0.15


def test_synth_gaussian_mixture_rejects_bad_weights(rng):
    with pytest.raises(InvalidInputError):
        synth_gaussian_mixture([[0.0]], 1.0, [-1.0], 10, rng)


def test_synth_gaussian_mixture_rejects_negative_scale(rng):
    with pytest.raises(InvalidInputError):
        synth_gaussian_mixture([[0.0], [3.0]], [1.0, -0.5], None, 10, rng)


def test_synth_bumpy_circle_rejects_negative_radial_noise(rng):
    with pytest.raises(InvalidInputError):
        synth_bumpy_circle(3, 2.0, 10, rng, radial_noise=-0.1)


def test_synth_noisy_circle_radii(rng):
    cloud = synth_noisy_circle(3.0, 0.0, 500, rng)
    assert np.linalg.norm(cloud.points, axis=1) == pytest.approx(
        np.full(500, 3.0))


def test_synth_noisy_circle_noise_spreads_the_radii(rng):
    # isotropic noise of scale 0.1 on a radius-3 circle: the radius spreads
    # by about 0.1 around 3
    radii = np.linalg.norm(synth_noisy_circle(3.0, 0.1, 2000, rng).points, axis=1)
    assert abs(radii.mean() - 3.0) < 0.01
    assert 0.09 < radii.std() < 0.11


def test_synth_bumpy_circle_modes(rng):
    cloud = synth_bumpy_circle(3, 2.0, 3000, rng, angular_spread=0.2)
    angles = np.arctan2(cloud.points[:, 1], cloud.points[:, 0])
    centers = np.array([0.0, 2 * math.pi / 3, -2 * math.pi / 3])
    nearest = np.abs(np.angle(np.exp(1j * (angles[:, None] - centers[None, :]))))
    assert nearest.min(axis=1).mean() < 0.25
    assert np.linalg.norm(cloud.points, axis=1) == pytest.approx(np.full(3000, 2.0))


def test_synth_generators_deterministic():
    a = synth_bumpy_circle(3, 2.0, 100, np.random.default_rng(7))
    b = synth_bumpy_circle(3, 2.0, 100, np.random.default_rng(7))
    assert np.array_equal(a.points, b.points)
