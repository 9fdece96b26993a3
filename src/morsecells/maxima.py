"""0-cell search: mean-shift ascent, single-linkage clustering, mode selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cwcomplex import components
from .density import KernelDensity, _require_positive
from .errors import NoMaximaError

SEED_COUNT = 500  # cloud points drawn as ascent seeds, or all if fewer
MAX_ITERATIONS = 10_000  # mean-shift calls before an ascent gives up


@dataclass(frozen=True)
class ZeroCell:
    """Local maximum of the density estimate."""

    position: np.ndarray
    density: float


def _ascend_seeds(field: KernelDensity, seeds: np.ndarray, counts: dict | None = None,
                  ends: np.ndarray | None = None) -> list[np.ndarray | None]:
    """Ascend every row of an (S, n) seed array together, as ``ascend`` does
    each alone.

    Every iteration makes one mean-shift call over the seeds still moving.  A
    seed converges when its mean-shift step is shorter than
    ``field.resolution / 2000`` (σ/4000 for the KDE, 1e-4 at σ = 0.4), so
    the stop scales with σ as mean shift does; it leaves the stack then, or
    when it loses all kernel mass.  With ``ends``, an (E, n) array of
    endpoints, a seed within ``field.resolution / 4`` of an endpoint leaves
    the stack before its next mean-shift call as joined (its entry stays
    None), and every seed that converges becomes an endpoint.
    ``counts`` receives ``ascent_seeds``, ``ascent_converged``,
    ``ascent_no_mass``, ``ascent_exhausted`` (still moving after
    ``MAX_ITERATIONS``), ``ascent_joined`` and ``ascent_steps`` (the rows of
    the mean-shift calls); the first is the sum of the next four.
    """
    ys = np.array(seeds, dtype=float)
    out: list[np.ndarray | None] = [None] * len(ys)
    ids = np.arange(len(ys))
    counts = {} if counts is None else counts
    counts.update(ascent_seeds=len(ys), ascent_no_mass=0, ascent_joined=0, ascent_steps=0)
    stop = field.resolution / 2000
    for _ in range(MAX_ITERATIONS):
        if ends is not None and len(ends):
            squares = sum(np.square(y[:, None] - e) for y, e in zip(ys.T, ends.T))
            joined = np.sqrt(squares.min(axis=1)) <= field.resolution / 4
            counts["ascent_joined"] += int(np.count_nonzero(joined))
            ids, ys = ids[~joined], ys[~joined]
        if not len(ids):
            break
        shifted, has_mass = field.mean_shift_batch(ys)
        counts["ascent_steps"] += len(ys)
        counts["ascent_no_mass"] += int(np.count_nonzero(~has_mass))
        diff = shifted - ys
        done = has_mass & (np.sqrt(np.einsum("sn,sn->s", diff, diff)) < stop)
        for k, y in zip(ids[done], ys[done]):  # ys[done] copies: out pins no ys
            out[k] = y
        if ends is not None:
            ends = np.vstack([ends, ys[done]])
        moving = has_mass & ~done
        ids, ys = ids[moving], shifted[moving]
    counts.update(ascent_converged=sum(y is not None for y in out), ascent_exhausted=len(ids))
    return out


def ascend(field: KernelDensity, y0: np.ndarray) -> np.ndarray | None:
    """Iterate y <- m(y) until ||m(y) - y|| < field.resolution / 2000.

    Returns the converged point, or None when the trajectory exceeds
    ``MAX_ITERATIONS`` or loses all kernel mass.
    """
    return _ascend_seeds(field, field._check_query(y0))[0]


def single_linkage(points: list[np.ndarray] | np.ndarray, threshold: float) -> list[list[int]]:
    """Partition indices, ordered as by ``components``; two points share a
    cluster iff chained by steps <= threshold."""
    _require_positive(threshold=threshold)
    pts = np.asarray(points, dtype=float)
    adjacency = np.empty((len(pts), len(pts)), dtype=bool)
    for i in range(0, len(pts), 64):  # blocks: no (m, m) floats; mirrored below the diagonal
        squares = sum(np.square(x[i:i + 64, None] - x[i:]) for x in pts.T)
        near = np.sqrt(squares) <= threshold
        adjacency[i:i + 64, i:], adjacency[i:, i:i + 64] = near, near.T
    return components(adjacency)


def find_zero_cells(
    field: KernelDensity,
    rng: np.random.Generator,
    counts: dict | None = None,
) -> list[ZeroCell]:
    """Ascend from a random sample of cloud points and keep one mode per cluster.

    ``SEED_COUNT`` seeds, or every point of a smaller cloud, are drawn from
    the cloud itself without replacement.  They ascend together to the fine
    stop of ``ascend``, and since mean shift converges only linearly near a
    mode, a seed stops as soon as it comes within ``resolution / 4`` of a
    point that has already converged (see ``_ascend_seeds``).  The converged
    points are clustered by single linkage at ``field.resolution`` and the
    densest member of each cluster is returned, sorted by density
    descending (ties by lexicographic position).  Deterministic for a fixed
    rng state.  ``counts`` receives the seed outcomes of ``_ascend_seeds``.
    """
    cloud = field.cloud
    count = min(len(cloud), SEED_COUNT)
    idx = rng.choice(len(cloud), size=count, replace=False)
    seeds = cloud.points[idx]

    ends = [y for y in _ascend_seeds(field, seeds, counts, np.empty((0, seeds.shape[1])))
            if y is not None]
    if not ends:
        raise NoMaximaError(seeds_attempted=count)

    pts = np.array(ends)
    dens = field.value_batch(pts)
    best = [c[int(np.argmax(dens[c]))] for c in single_linkage(pts, field.resolution)]
    cells = [ZeroCell(position=ends[k], density=float(dens[k])) for k in best]
    cells.sort(key=lambda c: (-c.density, tuple(c.position)))
    return cells
