import itertools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morsecells import KernelDensity, PointCloud, gradient_constant
from morsecells.errors import InvalidInputError, NoMassError


def mp_kde_value(points, sigma, y, dps=50):
    """Extended-precision Gaussian-sum oracle."""
    with mpmath.workdps(dps):
        n = len(y)
        norm = (2 * mpmath.pi * mpmath.mpf(sigma) ** 2) ** (-mpmath.mpf(n) / 2)
        total = mpmath.mpf(0)
        for x in points:
            sq = sum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2 for a, b in zip(y, x))
            total += mpmath.e ** (-sq / (2 * mpmath.mpf(sigma) ** 2))
        return float(norm * total / len(points))


def test_value_single_point_at_mean():
    f = KernelDensity(PointCloud([[0.0]]), 1.0)
    assert f.value(np.array([0.0])) == pytest.approx(1 / math.sqrt(2 * math.pi))


def test_value_two_points_midpoint():
    f = KernelDensity(PointCloud([[-1.0], [1.0]]), 1.0)
    expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert f.value(np.array([0.0])) == pytest.approx(expected, rel=1e-12)


def test_value_far_tail_underflows_to_zero():
    f = KernelDensity(PointCloud([[0.0, 0.0]]), 0.1)
    assert f.value(np.array([100.0, 100.0])) == pytest.approx(0.0, abs=1e-300)


def test_value_matches_extended_precision_oracle(rng):
    pts = rng.normal(size=(50, 3))
    f = KernelDensity(PointCloud(pts), 0.35)
    for _ in range(20):
        y = rng.normal(size=3)
        expected = mp_kde_value(pts, 0.35, y)
        assert f.value(y) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("offset", [1e4, -3.7e4, 1e6])
def test_value_matches_oracle_for_translated_cloud(offset):
    # criterion 01 on a cloud far from the origin: the squared distances are
    # formed in centred coordinates, so the translation costs no precision
    rng = np.random.default_rng(101)
    pts = rng.normal(size=(50, 3)) + offset
    f = KernelDensity(PointCloud(pts), 0.35)
    for _ in range(20):
        y = rng.normal(size=3) + offset
        expected = mp_kde_value(pts, 0.35, y)
        assert f.value(y) == pytest.approx(expected, rel=1e-12)


def direct_value_and_gradient(points, sigma, ys):
    """Reference sums over the explicit offsets x - y."""
    diff = points[None, :, :] - ys[:, None, :]
    w = np.exp(-np.einsum("qmn,qmn->qm", diff, diff) / (2 * sigma**2))
    norm = (2 * math.pi * sigma**2) ** (-points.shape[1] / 2)
    value = norm * w.mean(axis=1)
    grad = norm * np.einsum("qm,qmn->qn", w, diff) / (len(points) * sigma**2)
    return value, grad


@settings(deadline=None, max_examples=200)
@given(m=st.integers(1, 40), n=st.integers(1, 6), q=st.integers(1, 12),
       sigma=st.floats(0.3, 3.0), offset=st.floats(-1e6, 1e6),
       seed=st.integers(0, 2**32 - 1))
def test_batches_match_direct_sums(m, n, q, sigma, offset, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, n)) + offset
    ys = rng.normal(size=(q, n)) + offset
    f = KernelDensity(PointCloud(pts), sigma)
    value, grad = direct_value_and_gradient(pts, sigma, ys)
    assert f.value_batch(ys) == pytest.approx(value, rel=1e-12, abs=0.0)
    scale = np.abs(grad).max()
    assert np.abs(f.gradient_batch(ys) - grad).max() <= 1e-10 * scale


@pytest.mark.parametrize("offset", [0.0, 1e4, -3.7e4, 1e6])
def test_query_on_data_point_has_unit_weight(offset):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(30, 4)) * 2.0 + offset
    f = KernelDensity(PointCloud(pts), 0.5)
    w, _ = f._weights(pts - f._centre)  # rounding must not make any sq negative
    assert np.isfinite(w).all() and w.max() <= 1.0
    assert np.diag(w) == pytest.approx(np.ones(30), abs=1e-12)
    value, grad = direct_value_and_gradient(pts, 0.5, pts)
    assert f.value_batch(pts) == pytest.approx(value, rel=1e-12)
    assert np.abs(f.gradient_batch(pts) - grad).max() <= 1e-10 * np.abs(grad).max()


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_far_query_has_no_mass(offset):
    f = KernelDensity(PointCloud(np.array([[0.0, 0.0], [1.0, 0.5]]) + offset), 0.5)
    y = np.array([offset + 1e3, offset - 2e3])
    assert f.value(y) == 0.0
    assert np.array_equal(f.gradient(y), np.zeros(2))
    with pytest.raises(NoMassError):
        f.mean_shift(y)


def test_batches_in_row_blocks_match_single_rows(rng, monkeypatch):
    import morsecells.density as density
    block_entries = density._BLOCK_ENTRIES
    pts = rng.normal(size=(40, 2))
    ys = rng.normal(size=(25, 2))
    f = KernelDensity(PointCloud(pts), 0.6)
    whole = f.value_batch(ys), f.gradient_batch(ys)
    whole_shift, whole_mass = f.mean_shift_batch(ys)
    monkeypatch.setattr(density, "_BLOCK_ENTRIES", 3 * 40)  # blocks of 3 rows
    blocked = f.value_batch(ys), f.gradient_batch(ys)
    assert blocked[0] == pytest.approx(whole[0], rel=1e-14)
    assert np.abs(blocked[1] - whole[1]).max() <= 1e-14 * np.abs(whole[1]).max()
    blocked_shift, blocked_mass = f.mean_shift_batch(ys)
    assert np.array_equal(blocked_mass, whole_mass)
    assert np.abs(blocked_shift - whole_shift).max() <= 1e-14 * np.abs(whole_shift).max()
    assert f.value_batch(np.empty((0, 2))).shape == (0,)
    assert f.gradient_batch(np.empty((0, 2))).shape == (0, 2)
    # A blocked call equals, bit for bit, one call per block: every block
    # writes the whole of its slice of the call's one weight array, and
    # reads nothing another block left there.  The last block is short, and
    # one row lies beyond the reach of every kernel.
    for (m, n, block_rows), offset in itertools.product(
            [(40, 2, 3), (37, 3, 5), (1000, 2, None), (500, 8, None)], [0.0, 1e4]):
        monkeypatch.setattr(density, "_BLOCK_ENTRIES", block_rows * m if block_rows else block_entries)
        step = density._BLOCK_ENTRIES // m
        f = KernelDensity(PointCloud(rng.normal(size=(m, n)) + offset), 0.6)
        ys = rng.normal(size=(2 * step + step // 2 + 1, n)) + offset
        ys[step + 1] += 1e3
        assert np.flatnonzero(~f.mean_shift_batch(ys)[1]).tolist() == [step + 1]
        for name, batch in [("value", f.value_batch), ("gradient", f.gradient_batch),
                            ("shift", lambda y: f.mean_shift_batch(y)[0]),
                            ("has_mass", lambda y: f.mean_shift_batch(y)[1])]:
            parts = np.concatenate([batch(ys[i:i + step]) for i in range(0, len(ys), step)])
            assert np.array_equal(batch(ys), parts, equal_nan=True), (m, n, offset, name)


def test_blocked_batch_holds_one_weight_block(rng):
    import morsecells.density as density
    m = 1000
    step = density._BLOCK_ENTRIES // m
    f = KernelDensity(PointCloud(rng.normal(size=(m, 2))), 0.8)
    ys = rng.normal(size=(4 * step + 3, 2))
    for batch in (f.value_batch, f.gradient_batch, f.mean_shift_batch):
        tracemalloc.start()
        try:
            batch(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * step * m * 8, (batch.__name__, peak / (step * m * 8))


@pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros((3, 0)), np.zeros(0)],
                         ids=["no-rows", "no-columns", "flat"])
def test_empty_point_cloud_rejected(points):
    with pytest.raises(InvalidInputError, match="non-empty"):
        PointCloud(points)


def test_value_dimension_mismatch():
    f = KernelDensity(PointCloud([[0.0, 0.0]]), 1.0)
    with pytest.raises(InvalidInputError):
        f.value(np.array([0.0]))


@pytest.mark.parametrize("method, shape", [
    *itertools.product(("value_batch", "gradient_batch", "mean_shift_batch"),
                       [(4, 3), (2,)]),
    *itertools.product(("value", "gradient", "mean_shift"), [(1, 2), (3,), ()]),
])
def test_queries_of_the_wrong_shape_rejected(method, shape):
    # batches take (q, n) rows only, single-point methods one (n,) point; a
    # 1-D batch of length n must not broadcast into rows
    f = KernelDensity(PointCloud([[0.0, 0.0], [1.0, 0.0]]), 1.0)
    with pytest.raises(InvalidInputError):
        getattr(f, method)(np.zeros(shape))


@pytest.mark.parametrize("sigma, n", [(1e-200, 1), (1e200, 1), (1e-160, 1),
                                      (1e-100, 4), (1e40, 8)])
def test_sigma_out_of_kernel_range_rejected(sigma, n):
    # sigma^2, 1 / sigma^2, the normalizing constant or the gradient constant
    # under- or overflows; sigma itself is finite and positive
    with pytest.raises(InvalidInputError):
        KernelDensity(PointCloud(np.zeros((1, n))), sigma)


@pytest.mark.parametrize("points, sigma", [([[0.0, 0.0], [1e160, 0.0]], 1.0),
                                           ([[0.0, 0.0], [1e300, 1e300]], 0.5),
                                           ([[0.0], [1e150]], 1e-10)])
def test_cloud_too_spread_for_sigma_rejected(points, sigma):
    # the squared distances from the cloud's centre, over sigma^2, overflow:
    # the field is refused, with no warning, rather than answer NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="too spread"):
            KernelDensity(PointCloud(points), sigma)


def test_tight_cloud_near_the_largest_float_is_not_too_spread():
    # the coordinate sum of 1000 rows at 1e308 overflows, but the centre is
    # taken without it: the cloud is accepted, and its field at the rows is
    # the kernel's peak
    points = np.full((1000, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = KernelDensity(PointCloud(points), 0.5)
        assert f.value_batch(points[:1])[0] == pytest.approx(1.0 / (2 * math.pi * 0.25),
                                                            rel=1e-12)


def test_gradient_zero_at_symmetric_midpoint():
    f = KernelDensity(PointCloud([[-1.0], [1.0]]), 1.0)
    assert f.gradient(np.array([0.0])) == pytest.approx([0.0], abs=1e-15)


def test_gradient_single_kernel_points_to_mean(rng):
    x = rng.normal(size=4)
    f = KernelDensity(PointCloud([x]), 0.7)
    y = x + rng.normal(size=4)
    g = f.gradient(y)
    direction = x - y
    cos = g @ direction / (np.linalg.norm(g) * np.linalg.norm(direction))
    assert cos == pytest.approx(1.0, abs=1e-12)


def central_difference(f, y, h):
    grad = np.zeros_like(y)
    for d in range(len(y)):
        e = np.zeros_like(y)
        e[d] = h
        grad[d] = (f.value(y + e) - f.value(y - e)) / (2 * h)
    return grad


def test_gradient_matches_finite_differences(rng):
    sigma = 0.8
    f = KernelDensity(PointCloud(rng.normal(size=(10, 3))), sigma)
    for _ in range(100):
        y = rng.normal(size=3)
        fd = central_difference(f, y, 1e-5 * sigma)
        g = f.gradient(y)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


def test_mean_shift_single_point(rng):
    x = np.array([2.0, -1.0])
    f = KernelDensity(PointCloud([x]), 1.0)
    assert f.mean_shift(np.array([0.0, 0.0])) == pytest.approx(x)


def test_mean_shift_symmetric_fixed_point():
    f = KernelDensity(PointCloud([[-1.0], [1.0]]), 1.0)
    assert f.mean_shift(np.array([0.0])) == pytest.approx([0.0], abs=1e-15)


def test_mean_shift_matches_extended_precision_oracle():
    f = KernelDensity(PointCloud([[0.0], [3.0]]), 1.0)
    with mpmath.workdps(50):
        w0 = mpmath.e ** (-mpmath.mpf(1) / 2)
        w1 = mpmath.e ** (-mpmath.mpf(4) / 2)
        expected = float(3 * w1 / (w0 + w1))
    assert f.mean_shift(np.array([1.0]))[0] == pytest.approx(expected, rel=1e-14)


def test_mean_shift_no_mass_far_away():
    f = KernelDensity(PointCloud([[0.0]]), 0.01)
    with pytest.raises(NoMassError):
        f.mean_shift(np.array([1000.0]))


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_mean_shift_batch_matches_single_rows(rng, offset):
    pts = rng.normal(size=(30, 3)) + offset
    f = KernelDensity(PointCloud(pts), 0.05)
    ys = np.vstack([pts[:4] + 0.01 * rng.normal(size=(4, 3)),
                    rng.normal(size=(4, 3)) + offset,
                    [[offset + 50.0, offset, offset]]])  # no kernel mass
    shifted, has_mass = f.mean_shift_batch(ys)
    assert shifted.shape == ys.shape and has_mass.shape == (len(ys),)
    assert not has_mass[-1] and np.isnan(shifted[-1]).all()
    for y, row, mass in zip(ys, shifted, has_mass):
        if not mass:
            with pytest.raises(NoMassError):
                f.mean_shift(y)
            continue
        assert np.abs(row - f.mean_shift(y)).max() <= 1e-12 * max(1.0, abs(offset))
    with pytest.raises(InvalidInputError):
        f.mean_shift_batch(ys[:, :2])


def test_mean_shift_parallel_to_gradient(rng):
    f = KernelDensity(PointCloud(rng.normal(size=(25, 3))), 0.6)
    for _ in range(50):
        y = rng.normal(size=3)
        shift = f.mean_shift(y) - y
        g = f.gradient(y)
        if np.linalg.norm(shift) > 1e-12 and np.linalg.norm(g) > 1e-12:
            cos = shift @ g / (np.linalg.norm(shift) * np.linalg.norm(g))
            assert cos >= 1 - 1e-10


def test_translation_equivariance(rng):
    pts = rng.normal(size=(15, 4))
    t = rng.normal(size=4)
    y = rng.normal(size=4)
    f = KernelDensity(PointCloud(pts), 0.9)
    ft = KernelDensity(PointCloud(pts + t), 0.9)
    assert ft.value(y + t) == pytest.approx(f.value(y), rel=1e-12)


def test_normalization_integrates_to_one(rng):
    f = KernelDensity(PointCloud(rng.normal(size=(8, 1))), 0.5)
    xs = np.linspace(-10, 10, 20001)
    vals = f.value_batch(xs[:, None])
    integral = np.trapezoid(vals, xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


def numeric_max_gradient_norm(n, sigma):
    """Grid-maximize ||grad psi_{0,sigma}|| over the radius (radial symmetry)."""
    radii = np.linspace(0.0, 5 * sigma, 2_000_001)
    norm_const = (2 * math.pi * sigma**2) ** (-n / 2)
    vals = norm_const * np.exp(-radii**2 / (2 * sigma**2)) * radii / sigma**2
    return vals.max()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_constant_against_numeric_maximization_unit_sigma(n):
    c = gradient_constant(n, 1.0)
    assert 1.0 / numeric_max_gradient_norm(n, 1.0) == pytest.approx(c, rel=1e-6)


@pytest.mark.parametrize("n,sigma", [(1, 0.5), (1, 2.0), (2, 0.5), (3, 2.0)])
def test_gradient_constant_vs_true_inverse_supremum(n, sigma):
    c = gradient_constant(n, sigma)
    assert 1.0 / numeric_max_gradient_norm(n, sigma) == pytest.approx(c, rel=1e-6)


def test_gradient_constant_known_values():
    assert gradient_constant(1, 1.0) == pytest.approx(math.sqrt(2 * math.pi * math.e))
    assert gradient_constant(2, 1.0) == pytest.approx(2 * math.pi * math.sqrt(math.e))
    # sigma * (sigma * sqrt(2 pi)) * sqrt(e) = sigma^2 * sqrt(2 pi e) at sigma = 2
    assert gradient_constant(1, 2.0) == pytest.approx(4 * math.sqrt(2 * math.pi * math.e))


@pytest.mark.parametrize("n,sigma", [(1, 0.5), (2, 0.8), (8, 0.4)])
def test_kernel_density_supplies_gradient_constant(rng, n, sigma):
    f = KernelDensity(PointCloud(rng.normal(size=(5, n))), sigma)
    assert f.c == gradient_constant(n, sigma)


def _scaled_hessian_norm(f, y):
    """c times the spectral norm of a central-difference Hessian of f at y."""
    eps = 1e-5 * f.sigma
    hess = [(f.gradient(y + eps * e) - f.gradient(y - eps * e)) / (2 * eps)
            for e in np.eye(len(y))]
    return f.c * np.linalg.norm(np.array(hess), 2)


@pytest.mark.parametrize("n,sigma", [(1, 0.5), (2, 0.8), (8, 0.4)])
def test_kernel_density_step_is_inverse_of_hessian_bound(rng, n, sigma):
    # c * ||Hess f|| is largest at a lone kernel's centre, where it is 1 / step
    # for the step below the kernel's peak density
    f = KernelDensity(PointCloud(np.zeros((1, n))), sigma)
    step = f.step_below(f.value(np.zeros(n)))
    assert step == sigma / math.sqrt(math.e)
    norms = [_scaled_hessian_norm(f, y)
             for y in np.vstack([np.zeros(n), rng.normal(scale=sigma, size=(20, n))])]
    assert norms[0] == pytest.approx(1.0 / step, rel=1e-6)
    assert max(norms) <= (1.0 + 1e-6) / step


@pytest.mark.parametrize("n,sigma", [(1, 0.5), (2, 0.8), (8, 0.4)])
def test_step_below_is_tight_on_the_positive_side(n, sigma):
    # a lone kernel curves upward most at r = sqrt(3) sigma, where
    # c * lambda_max = 2 / (e sigma); the density there is below the
    # 2 e^(-3/2) psi(0) that still gives the largest step, e sigma / 2
    f = KernelDensity(PointCloud(np.zeros((1, n))), sigma)
    y = np.zeros(n)
    y[0] = math.sqrt(3.0) * sigma
    assert _scaled_hessian_norm(f, y) == pytest.approx(2.0 / (math.e * sigma), rel=1e-6)
    assert f.step_below(f.value(y)) == pytest.approx(math.e * sigma / 2.0, rel=1e-12)
    assert f.step_below(0.0) == f.step_below(f.value(y))


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([1, 2, 8]), m=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_step_below_bounds_the_hessian_where_the_density_is_below_top(n, m, seed):
    rng = np.random.default_rng(seed)
    sigma = 0.5
    cloud = rng.normal(scale=2.0 * sigma, size=(m, n))
    f = KernelDensity(PointCloud(cloud), sigma)
    # queries on the points, between them and around them
    ys = np.vstack([cloud, (cloud + cloud[::-1]) / 2.0,
                    cloud[rng.integers(m, size=6)] + rng.normal(scale=sigma, size=(6, n))])
    values = f.value_batch(ys)
    top = values.max()
    for y, value in zip(ys, values):
        norm = _scaled_hessian_norm(f, y)
        assert norm <= (1.0 + 1e-6) / f.step_below(value)
        assert f.step_below(value) >= f.step_below(top)


def test_gradient_constant_rejects_bad_args():
    with pytest.raises(InvalidInputError):
        gradient_constant(0, 1.0)
    with pytest.raises(InvalidInputError):
        gradient_constant(1, 0.0)
