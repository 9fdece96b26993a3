"""0-cell search: mean-shift ascent, single-linkage clustering, mode selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cwcomplex import components
from .density import KernelDensity, _require_positive
from .errors import InvalidInputError, NoMaximaError


@dataclass(frozen=True)
class AscentParams:
    tolerance: float = 1e-4
    max_iterations: int = 10_000
    seed_count: int | None = None  # None -> min(|X|, 500)

    def __post_init__(self):
        _require_positive(tolerance=self.tolerance)
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be positive")
        if self.seed_count is not None and self.seed_count < 1:
            raise InvalidInputError("seed_count must be positive")


@dataclass(frozen=True)
class ZeroCell:
    """Local maximum of the density estimate."""

    position: np.ndarray
    density: float


def _ascend_seeds(field: KernelDensity, seeds: np.ndarray,
                  params: AscentParams) -> list[np.ndarray | None]:
    """Ascend every row of an (S, n) seed array together, as ``ascend`` does
    each alone.

    Every iteration makes one mean-shift call over the seeds still moving.  A
    seed leaves the stack when it converges or loses all kernel mass.
    """
    ys = np.array(seeds, dtype=float)
    out: list[np.ndarray | None] = [None] * len(ys)
    ids = np.arange(len(ys))
    for _ in range(params.max_iterations):
        shifted, has_mass = field.mean_shift_batch(ys)
        diff = shifted - ys
        done = has_mass & (np.sqrt(np.einsum("sn,sn->s", diff, diff))
                           < params.tolerance)
        for k, y in zip(ids[done], ys[done]):  # ys[done] copies: out pins no ys
            out[k] = y
        moving = has_mass & ~done
        ids, ys = ids[moving], shifted[moving]
        if not len(ids):
            break
    return out


def ascend(field: KernelDensity, y0: np.ndarray, params: AscentParams) -> np.ndarray | None:
    """Iterate y <- m(y) until ||m(y) - y|| < tolerance.

    Returns the converged point, or None when the trajectory exceeds
    max_iterations or loses all kernel mass.
    """
    return _ascend_seeds(field, field._check_query(y0)[None, :], params)[0]


def _single_linkage_from_dists(dists: np.ndarray, threshold: float) -> list[list[int]]:
    """Components of the graph joining every pair with distance <= threshold."""
    return components(len(dists), zip(*np.nonzero(np.triu(dists <= threshold, 1))))


def single_linkage(points: list[np.ndarray] | np.ndarray, threshold: float) -> list[list[int]]:
    """Partition indices; two points share a cluster iff chained by steps <= threshold."""
    if threshold <= 0:
        raise InvalidInputError("threshold must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return []
    dists = np.empty((len(pts), len(pts)))
    for i, p in enumerate(pts):  # row by row: no (m, m, n) offset array
        diff = pts - p
        dists[i] = np.sqrt(np.einsum("jk,jk->j", diff, diff))
    return _single_linkage_from_dists(dists, threshold)


def find_zero_cells(
    field: KernelDensity,
    params: AscentParams,
    cluster_threshold: float,
    rng: np.random.Generator,
) -> list[ZeroCell]:
    """Ascend from a random sample of cloud points and keep one mode per cluster.

    Seeds are drawn from the cloud itself without replacement.  Convergent
    points are clustered by single linkage and the densest member of each
    cluster is returned, sorted by density descending (ties by lexicographic
    position).  Deterministic for a fixed rng state.
    """
    cloud = field.cloud
    count = params.seed_count if params.seed_count is not None else min(len(cloud), 500)
    count = min(count, len(cloud))
    idx = rng.choice(len(cloud), size=count, replace=False)
    seeds = cloud.points[idx]

    results = _ascend_seeds(field, seeds, params)
    converged = [r for r in results if r is not None]
    if not converged:
        raise NoMaximaError(seeds_attempted=count, non_convergent=count)

    pts = np.array(converged)
    cells = []
    for cluster in single_linkage(pts, cluster_threshold):
        members = pts[cluster]
        dens = field.value_batch(members)
        best = int(np.argmax(dens))
        cells.append(ZeroCell(position=members[best], density=float(dens[best])))

    cells.sort(key=lambda c: (-c.density, tuple(c.position)))
    return cells
