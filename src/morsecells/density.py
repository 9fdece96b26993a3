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
    """Differentiable scalar field on R^n.

    ``gradient`` must be the true derivative of ``value`` (finite-difference
    checkable).  Implementations are immutable.
    """

    dimension: int

    def value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # Batched variants; subclasses override when they can vectorize.
    def value_batch(self, ys: np.ndarray) -> np.ndarray:
        return np.array([self.value(y) for y in np.asarray(ys, dtype=float)])

    def gradient_batch(self, ys: np.ndarray) -> np.ndarray:
        return np.array([self.gradient(y) for y in np.asarray(ys, dtype=float)])

    def _check_query(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dimension,):
            raise InvalidInputError(
                f"query has shape {y.shape}, field dimension is {self.dimension}"
            )
        return y


def gradient_constant(n: int, sigma: float) -> float:
    """Reciprocal of the maximum gradient norm of the isotropic Gaussian kernel.

    c = sigma * (sigma * sqrt(2*pi))^n * sqrt(e), since ||grad psi||(r) =
    psi(r) * r / sigma^2 is maximal at r = sigma, where it equals
    (2*pi*sigma^2)^(-n/2) * e^(-1/2) / sigma.
    """
    if n < 1 or not (math.isfinite(sigma) and sigma > 0):
        raise InvalidInputError("need n >= 1 and finite sigma > 0")
    return sigma * (sigma * math.sqrt(2.0 * math.pi)) ** n * math.sqrt(math.e)


def _require_positive(**values: float | None) -> None:
    """Raise InvalidInputError unless every value given is finite and
    positive; None stands for an unset option and passes."""
    for name, value in values.items():
        if value is not None and not (math.isfinite(value) and value > 0):
            raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")


def _resolve_c(field: DensityField, params) -> float:
    """The solvers' gradient constant: params.gradient_constant when set,
    else gradient_constant for the field's dimension and sigma."""
    if params.gradient_constant is not None:
        return params.gradient_constant
    sigma = getattr(field, "sigma", None)
    if sigma is None:
        raise InvalidInputError(
            "gradient_constant must be set explicitly for fields without sigma"
        )
    return gradient_constant(field.dimension, sigma)


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
    sum w x and sum w together.
    """

    cloud: PointCloud
    sigma: float
    dimension: int = field(init=False)
    _centre: np.ndarray = field(init=False, repr=False, compare=False)
    _exponent_cols: np.ndarray = field(init=False, repr=False, compare=False)
    _points1: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_positive(sigma=self.sigma)
        object.__setattr__(self, "dimension", self.cloud.dimension)
        centre = np.round(self.cloud.points.mean(axis=0))
        points = self.cloud.points - centre
        s2 = self.sigma**2
        cols = np.vstack([points.T / s2,
                          np.einsum("mn,mn->m", points, points) / (-2.0 * s2),
                          np.full(len(points), -0.5 / s2)])
        object.__setattr__(self, "_centre", centre)
        object.__setattr__(self, "_exponent_cols", cols)
        object.__setattr__(self, "_points1",
                           np.hstack([points, np.ones((len(points), 1))]))

    def _weights(self, ys: np.ndarray, nearest: bool = False
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Kernel weights of centred queries against the centred cloud.

        Returns the (q, m) weights exp(e - t) for the exponents
        e = -||y - x||^2 / (2 sigma^2) and the (q,) shifts t: zero, or with
        ``nearest`` each row's largest exponent, which scales the nearest
        point's weight to 1.
        """
        rows = np.empty((len(ys), self.dimension + 2))
        rows[:, :-2] = ys
        rows[:, -2] = 1.0
        rows[:, -1] = np.einsum("qn,qn->q", ys, ys)
        e = rows @ self._exponent_cols
        np.minimum(e, 0.0, out=e)  # rounding can leave tiny positives
        top = np.zeros(len(ys))
        if nearest:
            top = e.max(axis=1)
            e -= top[:, None]
        return np.exp(e, out=e), top

    def _sums(self, ys: np.ndarray, nearest: bool = False
              ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row [sum w x, sum w] of centred queries and the weight shifts,
        in row blocks of at most _BLOCK_ENTRIES weights."""
        out = np.empty((len(ys), self.dimension + 1))
        top = np.empty(len(ys))
        step = max(1, _BLOCK_ENTRIES // len(self._points1))
        for i in range(0, len(ys), step):
            w, top[i:i + step] = self._weights(ys[i:i + step], nearest)
            np.matmul(w, self._points1, out=out[i:i + step])
        return out, top

    @property
    def _norm_const(self) -> float:
        n = self.dimension
        return (2.0 * math.pi * self.sigma**2) ** (-n / 2.0)

    def value(self, y: np.ndarray) -> float:
        y = self._check_query(y)
        return float(self.value_batch(y[None, :])[0])

    def value_batch(self, ys: np.ndarray) -> np.ndarray:
        sums, _ = self._sums(np.asarray(ys, dtype=float) - self._centre)
        return self._norm_const * sums[:, -1] / len(self.cloud)

    def gradient(self, y: np.ndarray) -> np.ndarray:
        y = self._check_query(y)
        return self.gradient_batch(y[None, :])[0]

    def gradient_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float) - self._centre
        sums, _ = self._sums(ys)
        # d/dy of each kernel is psi * (x - y) / sigma^2
        out = sums[:, :-1] - sums[:, -1:] * ys
        return self._norm_const * out / (len(self.cloud) * self.sigma**2)

    def mean_shift(self, y: np.ndarray) -> np.ndarray:
        """Kernel-weighted average of the cloud at y.

        m(y) - y is proportional to grad f(y) / f(y); iterating y <- m(y)
        ascends to a local maximum.  Raises NoMassError when every kernel
        weight underflows to zero in double precision.
        """
        shifted, has_mass = self.mean_shift_batch(self._check_query(y)[None, :])
        if not has_mass[0]:
            raise NoMassError("all kernel weights underflowed at the query point")
        return shifted[0]

    def mean_shift_batch(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``mean_shift`` of every row of a (q, n) array.

        Returns the (q, n) shifted points and a (q,) mask that is False where
        every kernel weight underflows; those rows hold NaN.
        """
        ys = np.asarray(ys, dtype=float)
        if ys.ndim != 2 or ys.shape[1] != self.dimension:
            raise InvalidInputError(
                f"queries have shape {ys.shape}, field dimension is {self.dimension}"
            )
        # Shift by the nearest point for numerical headroom; ratios are unchanged.
        sums, top = self._sums(ys - self._centre, nearest=True)
        has_mass = np.exp(top) > 0.0
        shifted = sums[:, :-1] / sums[:, -1:] + self._centre
        shifted[~has_mass] = np.nan
        return shifted, has_mass
