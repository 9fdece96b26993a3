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
    if n < 1 or sigma <= 0:
        raise InvalidInputError("need n >= 1 and sigma > 0")
    return sigma * (sigma * math.sqrt(2.0 * math.pi)) ** n * math.sqrt(math.e)


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
# with more rows are evaluated in row blocks (8 MB of float64 per block).
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class KernelDensity(DensityField):
    """Mean of isotropic Gaussian kernels centered at the cloud points.

    f(y) = |X|^-1 sum_x (2 pi sigma^2)^(-n/2) exp(-||y - x||^2 / (2 sigma^2))

    Squared distances are formed as ||y||^2 + ||x||^2 - 2 y.x with BLAS, in
    coordinates centred once at the cloud mean rounded to integers, so that a
    cloud far from the origin loses no precision to cancellation.
    """

    cloud: PointCloud
    sigma: float
    dimension: int = field(init=False)
    _centre: np.ndarray = field(init=False, repr=False, compare=False)
    _points: np.ndarray = field(init=False, repr=False, compare=False)
    _sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidInputError("sigma must be positive")
        object.__setattr__(self, "dimension", self.cloud.dimension)
        centre = np.round(self.cloud.points.mean(axis=0))
        points = self.cloud.points - centre
        object.__setattr__(self, "_centre", centre)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_sq_norms", np.einsum("mn,mn->m", points, points))

    def _weights(self, ys: np.ndarray, nearest: bool = False
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Kernel weights of centred queries against the centred cloud.

        Returns the (q, m) weights exp(-(||y - x||^2 - s) / (2 sigma^2)) and
        the (q,) shifts s: zero, or with ``nearest`` each row's smallest
        squared distance, which scales the nearest point's weight to 1.
        """
        sq = ys @ self._points.T
        sq *= -2.0
        sq += self._sq_norms
        sq += np.einsum("qn,qn->q", ys, ys)[:, None]
        np.maximum(sq, 0.0, out=sq)  # rounding can leave tiny negatives
        shift = np.zeros(len(ys))
        if nearest:
            shift = sq.min(axis=1)
            sq -= shift[:, None]
        sq *= -0.5 / self.sigma**2
        return np.exp(sq, out=sq), shift

    def _row_blocks(self, ys: np.ndarray):
        """Slices of at most _BLOCK_ENTRIES / m rows covering ys."""
        step = max(1, _BLOCK_ENTRIES // len(self._points))
        return (slice(i, i + step) for i in range(0, len(ys), step))

    @property
    def _norm_const(self) -> float:
        n = self.dimension
        return (2.0 * math.pi * self.sigma**2) ** (-n / 2.0)

    def value(self, y: np.ndarray) -> float:
        y = self._check_query(y)
        return float(self.value_batch(y[None, :])[0])

    def value_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float) - self._centre
        out = np.empty(len(ys))
        for rows in self._row_blocks(ys):
            out[rows] = self._weights(ys[rows])[0].mean(axis=1)
        return self._norm_const * out

    def gradient(self, y: np.ndarray) -> np.ndarray:
        y = self._check_query(y)
        return self.gradient_batch(y[None, :])[0]

    def gradient_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float) - self._centre
        out = np.empty_like(ys)
        for rows in self._row_blocks(ys):
            w = self._weights(ys[rows])[0]
            # d/dy of each kernel is psi * (x - y) / sigma^2
            out[rows] = w @ self._points - w.sum(axis=1)[:, None] * ys[rows]
        return self._norm_const * out / (len(self.cloud) * self.sigma**2)

    def mean_shift(self, y: np.ndarray) -> np.ndarray:
        """Kernel-weighted average of the cloud at y.

        m(y) - y is proportional to grad f(y) / f(y); iterating y <- m(y)
        ascends to a local maximum.  Raises NoMassError when every kernel
        weight underflows to zero in double precision.
        """
        y = self._check_query(y)
        # Shift by the nearest point for numerical headroom; ratios are unchanged.
        w, shift = self._weights((y - self._centre)[None, :], nearest=True)
        if math.exp(-0.5 * shift[0] / self.sigma**2) == 0.0:
            raise NoMassError("all kernel weights underflowed at the query point")
        w = w[0]
        return w @ self._points / w.sum() + self._centre
