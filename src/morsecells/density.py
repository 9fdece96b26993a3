"""Gaussian kernel density estimation and the differentiable scalar-field interface.

Every solver in the package (mean-shift ascent, band evolution, sheet
relaxation) consumes a ``DensityField``.  The concrete estimator is an
isotropic Gaussian KDE over a point cloud; analytic fields can implement the
same interface for testing solvers against known geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NoMassError


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points in R^n, stored as an (m, n) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError("point cloud must be a non-empty (m, n) array")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


class DensityField:
    """Differentiable scalar field on R^n, evaluated on (q, n) arrays of rows.

    ``gradient_batch`` must be the true derivative of ``value_batch``
    (finite-difference checkable); ``c`` scales the gradient in the band and
    sheet forces, and ``step_below(top)`` gives the band solver's step h
    for bands whose density stays at or below top.  A step within the
    explicit bound 2 / L, for L a bound on c times the norm of the Hessian,
    keeps the band's gradient term stable.  ``resolution`` is
    the length that clusters 0-cells and bands and discards a band passing a
    third 0-cell.  Implementations are immutable.
    """

    dimension: int
    c: float
    resolution: float

    def step_below(self, top: float) -> float:
        """1 / L for L >= c ||Hess f(y)|| at every y with f(y) <= top."""
        raise NotImplementedError

    def value_batch(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient_batch(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def gradient_constant(n: int, sigma: float) -> float:
    """Reciprocal of the maximum gradient norm of the isotropic Gaussian kernel.

    c = sigma * (sigma * sqrt(2*pi))^n * sqrt(e), since ||grad psi||(r) =
    psi(r) * r / sigma^2 is maximal at r = sigma, where it equals
    (2*pi*sigma^2)^(-n/2) * e^(-1/2) / sigma.
    """
    if n < 1 or not (math.isfinite(sigma) and sigma > 0):
        raise InvalidInputError("need n >= 1 and finite sigma > 0")
    return sigma * (sigma * math.sqrt(2.0 * math.pi)) ** n * math.sqrt(math.e)


def _require_positive(**values: float) -> None:
    """Raise InvalidInputError unless every value given is finite and positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")


def _kernel_constants(sigma: float, n: int) -> tuple[float, float, float]:
    """(sigma^2, (2 pi sigma^2)^(-n/2), gradient_constant(n, sigma)) of the
    Gaussian kernel in R^n.

    Raises InvalidInputError unless sigma is finite and positive and these
    three and 1 / sigma^2 are finite and nonzero: far from 1, sigma^2 and its
    powers under- or overflow.
    """
    _require_positive(sigma=sigma)
    try:
        constants = (sigma**2, (2.0 * math.pi * sigma**2) ** (-n / 2.0),
                     1.0 / sigma**2, gradient_constant(n, sigma))
    except (OverflowError, ZeroDivisionError):
        constants = (0.0,)
    if not all(0.0 < c < math.inf for c in constants):
        raise InvalidInputError(
            f"sigma = {sigma!r} is out of range: the Gaussian kernel's constants "
            f"in R^{n} are not all finite and nonzero")
    return constants[0], constants[1], constants[3]


# Largest (queries x points) weight array formed at once, in entries: batches
# with more rows are evaluated in row blocks (1 MB of float64 per block).
_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class KernelDensity(DensityField):
    """Mean of isotropic Gaussian kernels centered at the cloud points.

    f(y) = |X|^-1 sum_x (2 pi sigma^2)^(-n/2) exp(-||y - x||^2 / (2 sigma^2))

    Weights take two BLAS products, in coordinates centred once at the cloud
    mean rounded to integers, so that a cloud far from the origin loses no
    precision to cancellation.  Rows [y, 1, ||y||^2] times the stored columns
    [x / sigma^2, -||x||^2 / (2 sigma^2), -1 / (2 sigma^2)] give the exponents
    -||y - x||^2 / (2 sigma^2); the weights times the rows [x, 1] give
    sum w x and sum w together.  The force scale c is
    ``gradient_constant(n, sigma)`` = sigma sqrt(e) / psi(0), for psi(0) =
    (2 pi sigma^2)^(-n/2) the kernel's peak.  The estimate resolves nothing
    finer than sigma: the resolution is sigma / 2.
    """

    cloud: PointCloud
    sigma: float
    dimension: int = field(init=False)
    c: float = field(init=False)
    resolution: float = field(init=False)
    _centre: np.ndarray = field(init=False, repr=False, compare=False)
    _norm_const: float = field(init=False, repr=False, compare=False)
    _exponent_cols: np.ndarray = field(init=False, repr=False, compare=False)
    _points1: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dimension", self.cloud.dimension)
        s2, norm, c = _kernel_constants(self.sigma, self.dimension)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "resolution", self.sigma / 2.0)
        with np.errstate(over="ignore"):
            # the mean taken from the first point, so that no coordinate sum
            # of a tight cloud near the largest float overflows
            first = self.cloud.points[0]
            centre = np.round(first + (self.cloud.points - first).mean(axis=0))
            points = self.cloud.points - centre
            cols = np.vstack([points.T / s2,
                              np.einsum("mn,mn->m", points, points) / (-2.0 * s2),
                              np.full(len(points), -0.5 / s2)])
        if not np.isfinite(cols).all():
            raise InvalidInputError(f"the cloud is too spread for sigma = {self.sigma!r}: "
                                    "its squared distances over sigma^2 overflow")
        object.__setattr__(self, "_norm_const", norm)
        object.__setattr__(self, "_centre", centre)
        object.__setattr__(self, "_exponent_cols", cols)
        object.__setattr__(self, "_points1",
                           np.hstack([points, np.ones((len(points), 1))]))

    def step_below(self, top: float) -> float:
        """1 / L for L = (sqrt(e) / sigma) max(2 e^(-3/2), top / psi(0)).

        Along a unit u, u^T Hess f(y) u is the mean over the kernels of
        psi(d) ((u.d)^2 / sigma^4 - 1 / sigma^2), d = y - x: at least
        -f(y) / sigma^2, and at most 2 e^(-3/2) psi(0) / sigma^2, a lone
        kernel's value at ||d|| = sqrt(3) sigma.  Times c this is L where
        f(y) <= top.  A lone kernel's peak, top = psi(0), gives
        sigma / sqrt(e); on a spread cloud the step reaches e sigma / 2.
        """
        ratio = max(2.0 * math.exp(-1.5), top / self._norm_const)
        return self.sigma / (math.sqrt(math.e) * ratio)

    def _weights(self, ys: np.ndarray, nearest: bool = False, out: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray | float]:
        """Kernel weights of centred queries against the centred cloud.

        Returns the (q, m) weights exp(e - t) for the exponents
        e = -||y - x||^2 / (2 sigma^2) and the shifts t: 0.0, or with
        ``nearest`` each row's largest exponent, which scales the nearest
        point's weight to 1.  The weights go into ``out`` if it is given.
        """
        rows = np.empty((len(ys), self.dimension + 2))
        rows[:, :-2] = ys
        rows[:, -2] = 1.0
        rows[:, -1] = np.einsum("qn,qn->q", ys, ys)
        e = np.matmul(rows, self._exponent_cols, out=out)
        np.minimum(e, 0.0, out=e)  # rounding can leave tiny positives
        top = 0.0
        if nearest:
            top = e.max(axis=1)
            e -= top[:, None]
        return np.exp(e, out=e), top

    def _sums(self, ys: np.ndarray, nearest: bool = False
              ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row [sum w x, sum w] of centred queries and the weight shifts,
        in row blocks of at most _BLOCK_ENTRIES weights, each written in turn
        into one block array per call, so that a call holds a single block."""
        step = max(1, _BLOCK_ENTRIES // len(self._points1))
        block = np.empty((min(step, len(ys)), len(self._points1)))
        out = np.empty((len(ys), self.dimension + 1))
        top = np.empty(len(ys))
        for i in range(0, len(ys), step):
            w, top[i:i + step] = self._weights(ys[i:i + step], nearest, block[:len(ys) - i])
            np.matmul(w, self._points1, out=out[i:i + step])
        return out, top

    def _check_rows(self, ys: np.ndarray, ndim: int = 2) -> np.ndarray:
        """Queries as a float array: (q, n) rows, or with ndim=1 one (n,)
        point.  Raises InvalidInputError for any other shape."""
        ys = np.asarray(ys, dtype=float)
        if ys.ndim != ndim or ys.shape[-1] != self.dimension:
            raise InvalidInputError(
                f"query has shape {ys.shape}, field dimension is {self.dimension}"
            )
        return ys

    def _check_query(self, y: np.ndarray) -> np.ndarray:
        """One (n,) query point as a (1, n) row."""
        return self._check_rows(y, ndim=1)[None, :]

    def value(self, y: np.ndarray) -> float:
        return float(self.value_batch(self._check_query(y))[0])

    def value_batch(self, ys: np.ndarray) -> np.ndarray:
        sums, _ = self._sums(self._check_rows(ys) - self._centre)
        return self._norm_const * sums[:, -1] / len(self.cloud)

    def gradient(self, y: np.ndarray) -> np.ndarray:
        return self.gradient_batch(self._check_query(y))[0]

    def gradient_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = self._check_rows(ys) - self._centre
        sums, _ = self._sums(ys)
        # d/dy of each kernel is psi * (x - y) / sigma^2
        out = np.subtract(sums[:, :-1], sums[:, -1:] * ys, out=ys)
        out *= self._norm_const
        out /= len(self.cloud) * self.sigma**2
        return out

    def mean_shift(self, y: np.ndarray) -> np.ndarray:
        """Kernel-weighted average of the cloud at y.

        m(y) - y is proportional to grad f(y) / f(y); iterating y <- m(y)
        ascends to a local maximum.  Raises NoMassError when every kernel
        weight underflows to zero in double precision.
        """
        shifted, has_mass = self.mean_shift_batch(self._check_query(y))
        if not has_mass[0]:
            raise NoMassError("all kernel weights underflowed at the query point")
        return shifted[0]

    def mean_shift_batch(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``mean_shift`` of every row of a (q, n) array.

        Returns the (q, n) shifted points and a (q,) mask that is False where
        every kernel weight underflows; those rows hold NaN.
        """
        ys = self._check_rows(ys)
        # Shift by the nearest point for numerical headroom; ratios are unchanged.
        sums, top = self._sums(ys - self._centre, nearest=True)
        has_mass = np.exp(top) > 0.0
        shifted = sums[:, :-1] / sums[:, -1:] + self._centre
        shifted[~has_mass] = np.nan
        return shifted, has_mass
